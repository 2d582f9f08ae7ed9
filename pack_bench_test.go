package bside_test

// The warm-lookup benchmarks measure the three cache tiers answering
// the same question — "analysis for this image hash?" — a resident
// service or warm fleet sweep asks per binary. Segment reads one
// record back from the segment index and JSON-decodes its payload per
// probe; Pack binary-searches a shared memory-mapped index and decodes
// a handful of varints; Memory returns the already-decoded value.
// ns/op and allocs/op across the three are the whole point of the pack
// tier, and allocs/op is gated by `make bench-check`.

import (
	"path/filepath"
	"testing"

	"bside"
	"bside/internal/cache"
	"bside/internal/corpus"
	"bside/internal/elff"
)

// warmLookupDir populates a fresh cache directory by fully analyzing
// one corpus binary into it, and returns the directory plus the image
// hash a deployment-time caller would hold.
func warmLookupDir(b *testing.B) (string, string) {
	b.Helper()
	bin, err := corpus.BuildProgram(corpus.Profile{
		Name: "packbench", Kind: elff.KindStatic,
		HotDirect: 12, HotWrapper: 4, HotStack: 2, Handlers: 2,
		ColdDirect: 8, ColdWrapper: 2, StackedTruth: 1,
		Filler: 30, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	img, err := elff.Write(bin.Spec())
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "cache")
	analyzer, err := bside.NewAnalyzerErr(bside.Options{CacheDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := analyzer.AnalyzeBytes(img); err != nil {
		b.Fatal(err)
	}
	// Sealed, so the pack benchmark can compact the segment.
	if err := analyzer.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, bin.Hash
}

func runWarmLookup(b *testing.B, a *bside.Analyzer, hash string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, ok := a.Lookup(hash)
		if !ok || !res.Cached {
			b.Fatal("warm lookup missed")
		}
	}
}

func BenchmarkWarmLookupSegment(b *testing.B) {
	dir, hash := warmLookupDir(b)
	// A fresh analyzer indexes the segment; with the memory tier off,
	// every probe reads the record back.
	a, err := bside.NewAnalyzerErr(bside.Options{CacheDir: dir, DisableMemoryTier: true})
	if err != nil {
		b.Fatal(err)
	}
	runWarmLookup(b, a, hash)
	b.StopTimer()
	if st := a.CacheStats(); st.PackHits != 0 || st.MemoryHits != 0 || st.Hits == 0 {
		b.Fatalf("lookups were not segment hits: %+v", st)
	}
}

func BenchmarkWarmLookupPack(b *testing.B) {
	dir, hash := warmLookupDir(b)
	st, err := cache.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if cs, err := st.Compact(); err != nil {
		b.Fatal(err)
	} else if cs.Packed == 0 {
		b.Fatal("compaction packed nothing")
	}
	// A fresh analyzer discovers the pack; with the memory tier off,
	// every probe is a pack probe.
	a, err := bside.NewAnalyzerErr(bside.Options{CacheDir: dir, DisableMemoryTier: true})
	if err != nil {
		b.Fatal(err)
	}
	runWarmLookup(b, a, hash)
	b.StopTimer()
	if st := a.CacheStats(); st.PackHits == 0 {
		b.Fatalf("lookups did not hit the pack tier: %+v", st)
	}
}

func BenchmarkWarmLookupMemory(b *testing.B) {
	dir, hash := warmLookupDir(b)
	a, err := bside.NewAnalyzerErr(bside.Options{CacheDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := a.Lookup(hash); !ok { // promote into the memory tier
		b.Fatal("priming lookup missed")
	}
	runWarmLookup(b, a, hash)
	b.StopTimer()
	if st := a.CacheStats(); st.MemoryHits == 0 {
		b.Fatalf("lookups were not memory hits: %+v", st)
	}
}
