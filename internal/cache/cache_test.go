package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type payload struct {
	Name     string   `json:"name"`
	Syscalls []uint64 `json:"syscalls,omitempty"`
}

// testKey derives a content address the way elff.Read does: lowercase
// hex SHA-256 of the image bytes.
func testKey(t *testing.T, s string) string {
	t.Helper()
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// segments lists the segment files under a cache directory.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segDirName, "*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// onlySegment returns the one segment under dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	paths := segments(t, dir)
	if len(paths) != 1 {
		t.Fatalf("want one segment, found %v", paths)
	}
	return paths[0]
}

// fresh opens a new handle on dir with the memory tier off, the view
// of a process that starts after what came before.
func fresh(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s.DisableMemoryTier()
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-1")
	in := payload{Name: "libc.so", Syscalls: []uint64{0, 1, 60}}
	if err := s.Store("interface", key, "conf-a", in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !s.Load("interface", key, "conf-a", &out) {
		t.Fatal("stored entry not loadable")
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v vs %+v", in, out)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Stores != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMissOnAbsentConfAndKind(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-2")
	var out payload
	if s.Load("interface", key, "conf", &out) {
		t.Fatal("hit on empty store")
	}
	if err := s.Store("interface", key, "conf", payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	// A different configuration fingerprint must not be served.
	if s.Load("interface", key, "other-conf", &out) {
		t.Fatal("hit across configurations")
	}
	// Kinds partition the namespace.
	if s.Load("program", key, "conf", &out) {
		t.Fatal("hit across kinds")
	}
	if st := s.Stats(); st.Misses != 3 {
		t.Fatalf("misses: %+v", st)
	}
}

func TestCorruptAndTruncatedEntriesIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-3")
	if err := s.Store("interface", key, "conf", payload{Name: "libm.so"}); err != nil {
		t.Fatal(err)
	}
	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out payload

	// Truncated segment: a fresh handle must miss, not fail.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if fresh(t, dir).Load("interface", key, "conf", &out) {
		t.Fatal("truncated entry served")
	}

	// Garbage segment: same.
	if err := os.WriteFile(path, []byte("not a record at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := fresh(t, dir)
	if s2.Load("interface", key, "conf", &out) {
		t.Fatal("corrupt entry served")
	}

	// The entry can be re-stored and served again.
	if err := s2.Store("interface", key, "conf", payload{Name: "libm.so"}); err != nil {
		t.Fatal(err)
	}
	if !fresh(t, dir).Load("interface", key, "conf", &out) || out.Name != "libm.so" {
		t.Fatalf("re-store failed: %+v", out)
	}
}

func TestHashMismatchBustsEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-4")
	if err := s.Store("interface", key, "conf", payload{Name: "libz.so"}); err != nil {
		t.Fatal(err)
	}
	// Re-key the record, CRC and all: it is intact, but it no longer
	// describes the image it was stored for.
	other := testKey(t, "other-image")
	var okb [32]byte
	decodeHexKey(other, &okb)
	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := parseRecord(data)
	if !ok {
		t.Fatal("stored record does not parse")
	}
	rekeyed, err := appendRecord(nil, string(r.kind), &okb, string(r.conf), r.codec, r.payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, rekeyed, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := fresh(t, dir)
	var out payload
	if s2.Load("interface", key, "conf", &out) {
		t.Fatal("hash-mismatched entry served")
	}
	// The bust is permanent until a re-store supersedes the entry.
	if s2.Load("interface", key, "conf", &out) {
		t.Fatal("hash-mismatched entry served on retry")
	}
	if !s2.Load("interface", other, "conf", &out) {
		t.Fatal("the record is served under the key it carries")
	}
	if err := s2.Store("interface", key, "conf", payload{Name: "libz.so"}); err != nil {
		t.Fatal(err)
	}
	if !s2.Load("interface", key, "conf", &out) || out.Name != "libz.so" {
		t.Fatalf("re-store did not repair the busted entry: %+v", out)
	}
}

func TestVersionSkewIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-5")
	if err := s.Store("interface", key, "conf", payload{Name: "future"}); err != nil {
		t.Fatal(err)
	}
	// A record framed by a later format version: the magic carries it.
	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "BSR2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if fresh(t, dir).Load("interface", key, "conf", &out) {
		t.Fatal("future-version entry served")
	}
}

func TestConcurrentStoreLoad(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-6")
	want := payload{Name: "libc.so", Syscalls: []uint64{1, 60}}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Store("interface", key, "conf", want); err != nil {
				t.Error(err)
			}
			var out payload
			if s.Load("interface", key, "conf", &out) && !reflect.DeepEqual(out, want) {
				t.Errorf("torn read: %+v", out)
			}
		}()
	}
	wg.Wait()
	var out payload
	if !s.Load("interface", key, "conf", &out) || !reflect.DeepEqual(out, want) {
		t.Fatalf("final state: %+v", out)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub")); err == nil {
		t.Fatal("directory under a file accepted")
	}
}

func TestShortKeyRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store("interface", "", "conf", payload{}); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Store("interface", "not-a-sha256-key", "conf", payload{}); err == nil {
		t.Fatal("non-hex key accepted")
	}
	var out payload
	if s.Load("interface", "x", "conf", &out) {
		t.Fatal("short key hit")
	}
}

// --- on-disk format and the memory tier -------------------------------

// TestCompactEnvelopeOnDisk: the framing around each payload on disk
// is one segment record — no JSON envelope, the payload JSON written
// once — and StoredBytes counts exactly the bytes written.
func TestCompactEnvelopeOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		in := payload{Name: fmt.Sprintf("libc-%d", i), Syscalls: []uint64{1, 2}}
		if err := s.Store("interface", testKey(t, fmt.Sprintf("image-rec-%d", i)), "conf", in); err != nil {
			t.Fatal(err)
		}
	}
	// One handle, one segment; every entry one record.
	data, err := os.ReadFile(onlySegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.StoredBytes != uint64(len(data)) {
		t.Fatalf("StoredBytes = %d, segment is %d bytes", st.StoredBytes, len(data))
	}
	n := 0
	scanRecords(data, true, func(_, _ int, r record) {
		if want := fmt.Sprintf(`{"name":"libc-%d","syscalls":[1,2]}`, n); string(r.payload) != want {
			t.Errorf("record %d payload %q, want %q", n, r.payload, want)
		}
		n++
	})
	if n != 3 {
		t.Fatalf("%d records in the segment, want 3", n)
	}
}

func TestLooseJSONEntriesIgnored(t *testing.T) {
	// The per-entry JSON files of earlier releases are not read: an
	// upgraded cache recomputes once.
	dir := t.TempDir()
	key := testKey(t, "image-loose")
	path := filepath.Join(dir, "interface", key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	env := fmt.Sprintf(`{"version":2,"sha256":%q,"conf":"conf","payload":{"name":"old"}}`, key)
	if err := os.WriteFile(path, []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if fresh(t, dir).Load("interface", key, "conf", &out) {
		t.Fatal("loose JSON entry served")
	}
}

func TestMemoryTierServesPromotedEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-mem")
	want := payload{Name: "hot", Syscalls: []uint64{1}}
	if err := s.Store("interface", key, "conf", want); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !s.Load("interface", key, "conf", &out) {
		t.Fatal("first load must hit disk")
	}
	// The first load promoted the payload: the second is a memory hit
	// (the segment only gets a stat, never a read — corrupting it in
	// place must not matter while it exists).
	if err := os.WriteFile(onlySegment(t, dir), []byte("unread garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = payload{}
	if !s.Load("interface", key, "conf", &out) || !reflect.DeepEqual(out, want) {
		t.Fatalf("memory tier did not serve: %+v", out)
	}
	st := s.Stats()
	if st.MemoryHits != 1 || st.Hits != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// A different fingerprint must not be served from memory.
	if s.Load("interface", key, "other-conf", &out) {
		t.Fatal("memory tier served across configurations")
	}

	// The tier is process-wide: a fresh handle on the same directory
	// sees the promoted entry.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	out = payload{}
	if !s2.Load("interface", key, "conf", &out) || !reflect.DeepEqual(out, want) {
		t.Fatalf("fresh handle missed the shared memory tier: %+v", out)
	}

	// A handle with the tier disabled reads the (now corrupt) disk.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s3.DisableMemoryTier()
	if s3.Load("interface", key, "conf", &out) {
		t.Fatal("DisableMemoryTier handle must not see memory entries")
	}
}

func TestMemoryTierDroppedWithDurableEntry(t *testing.T) {
	// Deleting the durable entry must make the process recompute and
	// repopulate the disk, not serve the memory copy forever: the
	// store-through-any-path protocol depends on misses being real.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-mem-drop")
	if err := s.Store("interface", key, "conf", payload{Name: "hot"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !s.Load("interface", key, "conf", &out) {
		t.Fatal("load failed")
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if s.Load("interface", key, "conf", &out) {
		t.Fatal("memory tier served an entry whose directory is gone")
	}
	// The miss dropped the memory copy; a re-store round-trips again.
	if err := s.Store("interface", key, "conf", payload{Name: "hot2"}); err != nil {
		t.Fatal(err)
	}
	if !s.Load("interface", key, "conf", &out) || out.Name != "hot2" {
		t.Fatalf("repopulated entry not served: %+v", out)
	}
}

func TestMemoryTierLRUEvictionBounds(t *testing.T) {
	// The tier is process-wide and lock-striped: budgets divide across
	// stripes and recency is tracked per stripe. Drain leftovers from
	// other tests (a 1-byte budget evicts every real payload), then pin
	// bounds that give each stripe a capacity of 2, and exercise the
	// LRU semantics with keys crafted to collide on ONE stripe — where
	// eviction order is defined. Restore the defaults afterwards.
	prevE, prevB := SetMemoryTierLimits(1, 1)
	SetMemoryTierLimits(2*tierStripes, 1<<20)
	defer SetMemoryTierLimits(prevE, prevB)

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Four keys landing in the same stripe. The stripe is keyed by the
	// full memory-tier key (dir\x00kind\x00key), so match on that.
	keys := make([]string, 0, 4)
	target := uint32(0)
	for nonce := 0; len(keys) < 4 && nonce < 1<<16; nonce++ {
		k := testKey(t, fmt.Sprintf("image-lru-%d", nonce))
		st := stripeOf(s.memKey("interface", k))
		if len(keys) == 0 {
			target = st
		} else if st != target {
			continue
		}
		keys = append(keys, k)
	}
	if len(keys) < 4 {
		t.Fatal("could not craft colliding keys")
	}
	for _, k := range keys {
		if err := s.Store("interface", k, "conf", payload{Name: k[:8]}); err != nil {
			t.Fatal(err)
		}
	}
	load := func(i int) {
		t.Helper()
		var out payload
		if !s.Load("interface", keys[i], "conf", &out) {
			t.Fatalf("load %d failed", i)
		}
	}
	memHits := func() uint64 { return s.Stats().MemoryHits }

	before := s.Stats()
	load(0)
	load(1)
	load(2) // evicts 0: capacity 2, order is now [2, 1]
	after := s.Stats()
	if after.MemoryEntries > 2 {
		t.Fatalf("entry bound not enforced: %d entries resident", after.MemoryEntries)
	}
	if after.MemoryEvictions == before.MemoryEvictions {
		t.Fatal("over-capacity insert did not evict")
	}

	// Recency governs eviction: touch 1, insert 3 → 2 goes, 1 stays.
	load(1)
	load(3)
	h := memHits()
	load(1)
	if memHits() != h+1 {
		t.Fatal("recently-used entry was evicted")
	}
	h = memHits()
	load(2)
	if memHits() != h {
		t.Fatal("cold entry survived past capacity")
	}

	// Eviction is not loss: everything still loads (from disk).
	for i := range keys {
		load(i)
	}
}

func TestMemoryTierByteBound(t *testing.T) {
	prevE, prevB := SetMemoryTierLimits(1<<16, 1)
	defer SetMemoryTierLimits(prevE, prevB)

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-bytes")
	if err := s.Store("interface", key, "conf", payload{Name: "oversized"}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	var out payload
	if !s.Load("interface", key, "conf", &out) {
		t.Fatal("load failed")
	}
	after := s.Stats()
	// The payload exceeds the byte bound, so promotion immediately
	// evicts it again: the tier never holds more than the cap.
	if after.MemoryBytes > 1 {
		t.Fatalf("byte bound not enforced: %d bytes resident", after.MemoryBytes)
	}
	if after.MemoryEvictions == before.MemoryEvictions {
		t.Fatal("over-budget promotion did not evict")
	}
}

func TestSetMemoryTierLimits(t *testing.T) {
	prevE, prevB := SetMemoryTierLimits(123, 456)
	defer SetMemoryTierLimits(prevE, prevB)
	// Non-positive values keep the current bound.
	if e, b := SetMemoryTierLimits(0, -1); e != 123 || b != 456 {
		t.Fatalf("previous bounds: %d/%d", e, b)
	}
	if e, b := SetMemoryTierLimits(7, 8); e != 123 || b != 456 {
		t.Fatalf("non-positive values must not change the bounds: %d/%d", e, b)
	}
}

func TestLoadAnyReturnsStoredFingerprint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-any")
	want := payload{Name: "whatever-conf", Syscalls: []uint64{42}}
	if err := s.Store("program", key, "conf-opaque|deps:libc.so=abc", want); err != nil {
		t.Fatal(err)
	}
	var out payload
	conf, ok := s.LoadAny("program", key, &out)
	if !ok || conf != "conf-opaque|deps:libc.so=abc" {
		t.Fatalf("LoadAny: ok=%v conf=%q", ok, conf)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("LoadAny payload: %+v", out)
	}
	// The first LoadAny promoted the entry; the second is a memory hit
	// and must return the same fingerprint.
	h := s.Stats().MemoryHits
	out = payload{}
	conf, ok = s.LoadAny("program", key, &out)
	if !ok || conf != "conf-opaque|deps:libc.so=abc" || !reflect.DeepEqual(out, want) {
		t.Fatalf("warm LoadAny: ok=%v conf=%q %+v", ok, conf, out)
	}
	if s.Stats().MemoryHits != h+1 {
		t.Fatal("warm LoadAny did not hit the memory tier")
	}
	// Absent keys miss.
	if _, ok := s.LoadAny("program", testKey(t, "absent"), &out); ok {
		t.Fatal("LoadAny hit on absent key")
	}
}

func TestStoreInvalidatesMemoryTier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "image-inval")
	if err := s.Store("interface", key, "conf", payload{Name: "v1"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !s.Load("interface", key, "conf", &out) {
		t.Fatal("load failed")
	}
	// Re-store (new conf): the promoted copy must not shadow it.
	if err := s.Store("interface", key, "conf-b", payload{Name: "v2"}); err != nil {
		t.Fatal(err)
	}
	if s.Load("interface", key, "conf", &out) {
		t.Fatal("stale conf served after re-store")
	}
	if !s.Load("interface", key, "conf-b", &out) || out.Name != "v2" {
		t.Fatalf("fresh entry not served: %+v", out)
	}
}
