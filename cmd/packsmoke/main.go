// Command packsmoke is the CI smoke test for the mmapped cache pack
// tier: it materializes an application corpus with the real generator
// (bsidegen), populates a cache with a cold `bside batch -cache` run,
// replays the batch warm from the segments, compacts the cache with
// `bside cache pack`, and replays the batch warm again from the pack —
// asserting the two warm replays emit byte-identical JSON and that the
// packed replay provably hit the pack tier. The operator's compaction
// path, end to end, with output equivalence as the bar.
//
// Usage:
//
//	packsmoke -bside path/to/bside -gen path/to/bsidegen
//
// Exits 0 when every step passed, 1 with a diagnostic otherwise.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
)

func main() {
	bin := flag.String("bside", "", "path to the bside binary under test")
	gen := flag.String("gen", "", "path to the bsidegen binary")
	flag.Parse()
	if err := run(*bin, *gen); err != nil {
		fmt.Fprintln(os.Stderr, "packsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("packsmoke: ok")
}

func run(bsidePath, genPath string) error {
	if bsidePath == "" || genPath == "" {
		return errors.New("-bside and -gen are required")
	}
	dir, err := os.MkdirTemp("", "packsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	corpusDir := filepath.Join(dir, "corpus")
	if out, err := exec.Command(genPath, "-out", corpusDir, "-apps-only").CombinedOutput(); err != nil {
		return fmt.Errorf("bsidegen: %v: %s", err, out)
	}
	apps, err := filepath.Glob(filepath.Join(corpusDir, "apps", "*"))
	if err != nil {
		return err
	}
	if len(apps) < 3 {
		return fmt.Errorf("generator produced only %d apps", len(apps))
	}
	libs := filepath.Join(corpusDir, "libs")
	cache := filepath.Join(dir, "cache")

	// Cold populate: every binary analyzed from scratch into the cache.
	coldOut, coldErr, err := batch(bsidePath, libs, cache, apps)
	if err != nil {
		return fmt.Errorf("cold batch: %w", err)
	}
	if n := packHits(coldErr); n != 0 {
		return fmt.Errorf("cold batch reported %d pack hits before any pack exists", n)
	}

	// Warm replay A, segment tier: the oracle output the pack tier must
	// reproduce byte for byte. (The cold stream differs only by the
	// absence of the "cached" markers, so the cold/warm comparison is
	// per-binary syscall sets, done implicitly by the cache's own
	// content addressing; the byte-level bar is warm-vs-warm.)
	segOut, segErr, err := batch(bsidePath, libs, cache, apps)
	if err != nil {
		return fmt.Errorf("warm segment batch: %w", err)
	}
	if !bytes.Contains(segErr, []byte(" 0 analyzed (cold)")) {
		return fmt.Errorf("warm segment batch was not fully cache-served:\n%s", segErr)
	}
	if n := packHits(segErr); n != 0 {
		return fmt.Errorf("warm segment batch reported %d pack hits before any pack exists", n)
	}

	// Compact the sealed segments (both batch processes have exited)
	// into a pack.
	var packStdout, packStderr bytes.Buffer
	cmd := exec.Command(bsidePath, "cache", "pack", "-dir", cache)
	cmd.Stdout = &packStdout
	cmd.Stderr = &packStderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("bside cache pack: %v\nstderr: %s", err, packStderr.String())
	}
	if !bytes.Contains(packStdout.Bytes(), []byte("entries")) {
		return fmt.Errorf("cache pack compacted nothing: %s", packStdout.String())
	}
	// Compaction deletes what it absorbed: no segment survives it.
	if left, _ := filepath.Glob(filepath.Join(cache, "segments", "*.seg")); len(left) != 0 {
		return fmt.Errorf("cache pack left %d segments behind: %s", len(left), packStdout.String())
	}

	// Warm replay B, pack tier: byte-identical output, provably served
	// out of the pack.
	packOut, packErr, err := batch(bsidePath, libs, cache, apps)
	if err != nil {
		return fmt.Errorf("warm pack batch: %w", err)
	}
	if !bytes.Contains(packErr, []byte(" 0 analyzed (cold)")) {
		return fmt.Errorf("warm pack batch was not fully cache-served:\n%s", packErr)
	}
	if !bytes.Equal(packOut, segOut) {
		return fmt.Errorf("packed warm output drifted from the segment warm replay:\n%s\nvs\n%s", packOut, segOut)
	}
	if len(packOut) == 0 || bytes.Equal(coldOut, packOut) {
		return fmt.Errorf("warm replays indistinguishable from cold (no cached markers?)")
	}
	if n := packHits(packErr); n <= 0 {
		return fmt.Errorf("packed warm batch reported no pack hits:\n%s", packErr)
	}
	return nil
}

// batch runs one `bside batch -cache` over the apps (fixed input order
// and -jobs 1, so the JSON-lines stream is deterministic) and returns
// stdout and stderr.
func batch(bsidePath, libs, cache string, apps []string) ([]byte, []byte, error) {
	args := append([]string{"batch", "-libs", libs, "-cache", cache, "-jobs", "1"}, apps...)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bsidePath, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%v\nstderr: %s", err, stderr.String())
	}
	return stdout.Bytes(), stderr.Bytes(), nil
}

var packHitsRE = regexp.MustCompile(`; pack (\d+) hits`)

// packHits extracts the pack-hit count from a batch stderr summary,
// returning 0 when the pack segment is absent.
func packHits(stderr []byte) int {
	m := packHitsRE.FindSubmatch(stderr)
	if m == nil {
		return 0
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		return 0
	}
	return n
}
