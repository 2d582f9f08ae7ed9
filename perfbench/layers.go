package main

import (
	"time"

	"bside"
)

// setCache reports the cache, image-frontend and memo counters of
// one measured window, plus the cache directory's size after it.
func (r *run) setCache(cs bside.CacheStats, files int, bytes int64) {
	r.set("cache.hit_share", share(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	r.set("cache.memory_hits", float64(cs.MemoryHits))
	r.set("cache.pack_hits", float64(cs.PackHits))
	r.set("cache.stores", float64(cs.Stores))
	r.set("cache.files", float64(files))
	r.set("cache.dir_mb", float64(bytes)/mib)
	r.set("cache.io_errors", float64(cs.CacheIOErrors))
	r.set("elff.image_mb", float64(cs.ImageBytes)/mib)
	r.set("elff.mapped_share", share(float64(cs.ImageMapped), float64(cs.ImageOpens)))
	r.set("ident.memo_hit_share", share(float64(cs.FuncMemoHits), float64(cs.FuncMemoHits+cs.FuncMemoMisses)))
}

// cacheDelta is after minus before for the cumulative counters.
func cacheDelta(after, before bside.CacheStats) bside.CacheStats {
	d := after
	d.Hits -= before.Hits
	d.Misses -= before.Misses
	d.Stores -= before.Stores
	d.MemoryHits -= before.MemoryHits
	d.PackHits -= before.PackHits
	d.CacheIOErrors -= before.CacheIOErrors
	d.FuncMemoHits -= before.FuncMemoHits
	d.FuncMemoMisses -= before.FuncMemoMisses
	d.ImageOpens -= before.ImageOpens
	d.ImageMapped -= before.ImageMapped
	d.ImageBytes -= before.ImageBytes
	return d
}

// setProbe reports the probe's spans (mean self time per call of each
// layer) and the layer outputs it read (means per binary that reached
// the layer; budget failures as counts).
func (r *run) setProbe(probe *report) {
	r.merge("probe", probe.Spans)
	lt := layerTimes(probe.Spans)
	r.set("elff.identity_us", lt["elff.ReadIdentity"].meanSelf(time.Microsecond))
	r.set("elff.parse_us", lt["elff.OpenBinary"].meanSelf(time.Microsecond))
	r.set("cfg.recover_ms", lt["cfg.Recover"].meanSelf(time.Millisecond))
	r.set("ident.wrappers_ms", lt["ident.DetectWrappers"].meanSelf(time.Millisecond))
	r.set("ident.identify_ms", lt["ident.Identify"].meanSelf(time.Millisecond))
	r.set("shared.compute_ms", lt["shared.ComputeSummaryCtx"].meanSelf(time.Millisecond))
	r.set("shared.lookup_us", lt["shared.CachedSummary"].meanSelf(time.Microsecond))
	pc := probe.Probe
	r.set("cfg.insns", share(float64(pc.Insns), float64(pc.Recovered)))
	r.set("cfg.blocks", share(float64(pc.Blocks), float64(pc.Recovered)))
	r.set("cfg.budget_fail", float64(pc.CFGBudgetFail))
	r.set("ident.blocks_explored", share(float64(pc.BlocksExplored), float64(pc.Identified)))
	r.set("ident.sites", share(float64(pc.Sites), float64(pc.Identified)))
	r.set("ident.budget_fail", float64(pc.IdentBudgetFail))
	r.set("shared.interfaces", float64(pc.Interfaces))
}
