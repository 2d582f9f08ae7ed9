package cfg_test

import (
	"testing"

	"bside/internal/cfg"
	"bside/internal/corpus"
	"bside/internal/fuzzer"
)

// TestLookupsMatchLinearScan: BlockAt and FuncByEntry are binary
// searches over the graph's sorted slices; on real graphs they must
// agree with a linear scan for every block and function start and for
// addresses that start neither — mid-block, below the image base, and
// past the end of code.
func TestLookupsMatchLinearScan(t *testing.T) {
	for _, p := range []corpus.Profile{corpus.LargeBinaryProfile(), fuzzer.Gen(7).Profile} {
		bin, err := corpus.BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		blocks := g.SortedBlocks()
		probes := []uint64{0, bin.Base - 1, bin.Base + bin.CodeSize, ^uint64(0)}
		for _, blk := range blocks {
			for _, in := range blk.Insns {
				probes = append(probes, in.Addr, in.Addr+1)
			}
			probes = append(probes, blk.End())
		}
		for _, fn := range g.Funcs {
			probes = append(probes, fn.Entry, fn.Entry-1)
		}

		misses := 0
		for _, addr := range probes {
			var wantBlk *cfg.Block
			for _, blk := range blocks {
				if blk.Addr == addr {
					wantBlk = blk
				}
			}
			gotBlk, ok := g.BlockAt(addr)
			if gotBlk != wantBlk || ok != (wantBlk != nil) {
				t.Fatalf("%s: BlockAt(%#x) = %v, %v; linear scan %v", p.Name, addr, gotBlk, ok, wantBlk)
			}
			if wantBlk == nil {
				misses++
			}
			var wantFn *cfg.Func
			for _, fn := range g.Funcs {
				if fn.Entry == addr {
					wantFn = fn
				}
			}
			gotFn, ok := g.FuncByEntry(addr)
			if gotFn != wantFn || ok != (wantFn != nil) {
				t.Fatalf("%s: FuncByEntry(%#x) = %v, %v; linear scan %v", p.Name, addr, gotFn, ok, wantFn)
			}
		}
		if len(blocks) < 20 || len(g.Funcs) < 5 || misses < len(blocks) {
			t.Fatalf("%s: %d blocks, %d funcs, %d misses: graph too small to cover the lookups",
				p.Name, len(blocks), len(g.Funcs), misses)
		}
	}
}
