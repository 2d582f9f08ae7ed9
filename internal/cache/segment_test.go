package cache

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// storeN stores n interface entries named seg-<i> and returns their keys.
func storeN(t *testing.T, s *Store, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = testKey(t, fmt.Sprintf("seg-%d", i))
		if err := s.Store("interface", keys[i], "conf", payload{Name: fmt.Sprintf("seg-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// served reports, per key, whether s serves the entry storeN wrote.
func served(t *testing.T, s *Store, keys []string) []bool {
	t.Helper()
	got := make([]bool, len(keys))
	for i, key := range keys {
		var out payload
		got[i] = s.Load("interface", key, "conf", &out)
		if got[i] && out.Name != fmt.Sprintf("seg-%d", i) {
			t.Fatalf("key %d served %+v", i, out)
		}
	}
	return got
}

func TestTornSegmentKeepsEarlierRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := storeN(t, w, 3)
	// Tear the last record: cut the segment mid-payload.
	path := onlySegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if got := served(t, fresh(t, dir), keys); !got[0] || !got[1] || got[2] {
		t.Fatalf("torn segment served %v, want [true true false]", got)
	}
	// The writer's next Store appends cleanly behind the torn bytes,
	// and a reader resynchronizes onto it.
	more := testKey(t, "after-tear")
	if err := w.Store("interface", more, "conf", payload{Name: "after"}); err != nil {
		t.Fatal(err)
	}
	r := fresh(t, dir)
	var out payload
	if !r.Load("interface", more, "conf", &out) || out.Name != "after" {
		t.Fatalf("record appended after the tear not served: %+v", out)
	}
	if got := served(t, r, keys); !got[0] || !got[1] || got[2] {
		t.Fatalf("after the append, served %v, want [true true false]", got)
	}
	// Recomputing the torn entry repairs it for everyone.
	if err := r.Store("interface", keys[2], "conf", payload{Name: "seg-2"}); err != nil {
		t.Fatal(err)
	}
	if got := served(t, fresh(t, dir), keys); !got[0] || !got[1] || !got[2] {
		t.Fatalf("after the re-store, served %v", got)
	}
}

func TestFlippedPayloadByteRejectsOnlyThatRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := storeN(t, w, 3)
	early := fresh(t, dir) // indexed before the damage
	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	scanRecords(data, true, func(off, n int, _ record) { offs = append(offs, off+n) })
	// Upper-case the name's first letter in the middle record: the JSON
	// stays valid, so only the CRC can tell.
	data[offs[1]-len(`seg-1"}`)] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A handle indexing after the flip, and one that indexed before it
	// and re-checks the CRC on read, both reject only the middle record.
	for name, s := range map[string]*Store{"reopened": fresh(t, dir), "open": early} {
		if got := served(t, s, keys); !got[0] || got[1] || !got[2] {
			t.Fatalf("%s handle served %v, want [true false true]", name, got)
		}
	}
}

// segmentWriterEnv makes the test binary a segment writer (see
// TestSegmentWriterProcess) instead of running the tests.
const segmentWriterEnv = "CACHE_TEST_SEGMENT_WRITER"

// TestSegmentWriterProcess is the writer side of
// TestForeignSegmentVisibleOnMiss: for each key read from stdin it
// stores one entry, then acknowledges with a line on stdout.
func TestSegmentWriterProcess(t *testing.T) {
	dir := os.Getenv(segmentWriterEnv)
	if dir == "" {
		t.Skip("helper process only")
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := bufio.NewScanner(os.Stdin)
	for i := 0; in.Scan(); i++ {
		if err := s.Store("interface", in.Text(), "conf", payload{Name: fmt.Sprintf("seg-%d", i)}); err != nil {
			t.Fatal(err)
		}
		fmt.Println("stored")
	}
}

func TestForeignSegmentVisibleOnMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader.DisableMemoryTier()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSegmentWriterProcess$")
	cmd.Env = append(os.Environ(), segmentWriterEnv+"="+dir)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	acks := bufio.NewScanner(stdout)
	keys := []string{testKey(t, "seg-0"), testKey(t, "seg-1")}
	for i, key := range keys {
		fmt.Fprintln(stdin, key)
		if !acks.Scan() || acks.Text() != "stored" {
			t.Fatalf("writer did not store key %d: %q", i, acks.Text())
		}
		// The first record arrives in a segment created after the reader
		// opened, the second by growth of that still-live segment.
		if got := served(t, reader, keys[:i+1]); !got[i] {
			t.Fatalf("reader missed the foreign record %d", i)
		}
	}
	stdin.Close()
	_, _ = io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactSkipsLiveWriterSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := storeN(t, w, 3)
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Packed != 0 || cs.SkippedSegments != 1 || len(segments(t, dir)) != 1 {
		t.Fatalf("compaction absorbed a live writer's segment: %+v", cs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if cs, err = c.Compact(); err != nil {
		t.Fatal(err)
	}
	if cs.Packed != 3 || cs.FromSegments != 3 || cs.PrunedSegments != 1 || len(segments(t, dir)) != 0 {
		t.Fatalf("sealed segment not absorbed: %+v", cs)
	}
	r := fresh(t, dir)
	if got := served(t, r, keys); !got[0] || !got[1] || !got[2] {
		t.Fatalf("packed entries served %v", got)
	}
	if st := r.Stats(); st.PackHits != 3 {
		t.Fatalf("entries not served from the pack: %+v", st)
	}
	// The closed writer stays usable: its next Store starts a new segment.
	if err := w.Store("interface", testKey(t, "after-seal"), "conf", payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if n := len(segments(t, dir)); n != 1 {
		t.Fatalf("%d segments after a post-seal store, want 1", n)
	}
}
