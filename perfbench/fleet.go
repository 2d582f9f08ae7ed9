package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bside/internal/serve"
)

// pass is one child pass with what the parent measured around it.
type pass struct {
	job   job
	rep   *report
	rssMB float64
	// cacheFiles and cacheBytes describe the cache directory right
	// after the pass.
	cacheFiles int
	cacheBytes int64
	tally
}

// tally is the oracle's account of one pass.
type tally struct {
	attempted  int
	noAnswer   int // failed analyses, designed or not
	unexpected int // failures the corpus did not design
	answered   int
	failOpen   int
	f1Sum      float64
	uploadMs   []float64 // computed (not cache-served) binaries
	hitMs      float64   // busy time by outcome
	missMs     float64
	failMs     float64
}

// fleet runs fleet-cold (warm=false) or fleet-warm. Every timed pass is
// a fresh process: cold passes start from an empty cache directory,
// warm passes from the one a set-up process filled.
func (r *run) fleet(warm bool) error {
	tree := filepath.Join(r.work, "tree")
	warmCache := filepath.Join(r.work, "cache-warm")
	var f *fleet
	var ref map[string]binResult // the set-up sweep's answers (warm)
	var setups []float64
	for k := 0; k < r.setupCount(); k++ {
		start := time.Now()
		nf, err := generateFleet(tree, r.seed, r.smoke, r.jobs)
		if err != nil {
			return err
		}
		if warm {
			rep, err := r.fill(nf, warmCache)
			if err != nil {
				return err
			}
			r.check(nf, rep, nil, false)
			ref = byName(rep.Results)
		}
		setups = append(setups, time.Since(start).Seconds())
		r.sameInputs(f, nf)
		f = nf
	}

	newJob := func() job {
		j := job{Kind: "sweep", Tree: f.binDir(), Libs: f.libDir(), Manifest: f.manifestPath(), Jobs: r.jobs}
		if warm {
			j.Cache, j.Expect, j.Owner = warmCache, "foreign", warmCache+".owner"
		} else {
			j.Cache, j.Expect = filepath.Join(r.work, "cache-cold"), "empty"
		}
		return j
	}
	// A traced run cycles untraced sweeps, traced sweeps and traced
	// direct pools, so the tracing and sweep overheads compare passes
	// measured side by side.
	cycle := []func(*job){func(*job) {}}
	if r.trace {
		cycle = append(cycle, func(j *job) { j.Trace = true }, func(j *job) { j.Kind, j.Trace = "direct", true })
	}
	minPasses := 3 * len(cycle)
	if r.smoke || r.trace {
		minPasses = len(cycle)
	}
	var passes []*pass
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for i := 0; i < minPasses || time.Now().Before(deadline) || i%len(cycle) != 0; i++ {
		j := newJob()
		cycle[i%len(cycle)](&j)
		p, err := r.fleetPass(f, j, ref, warm)
		if err != nil {
			return err
		}
		if !warm && ref == nil {
			ref = byName(p.rep.Results) // cold passes must agree with each other
		}
		passes = append(passes, p)
	}
	for _, p := range passes {
		r.res.Attempted += int64(p.attempted)
		r.res.Failed += int64(p.unexpected)
	}
	if !r.trace {
		r.set("setup_s", median(setups))
		r.fleetEndToEnd(passes)
		return nil
	}
	probe := newJob()
	probe.Kind = "probe"
	for _, b := range f.bins {
		probe.Probe = append(probe.Probe, filepath.Join(f.binDir(), b.Name))
	}
	return r.fleetLayers(passes, probe)
}

// setupCount is how many times a run sets up: several, so setup_s is
// a median, except in traced and smoke runs, which do not report it.
func (r *run) setupCount() int {
	if r.trace || r.smoke {
		return 1
	}
	return 3
}

// sameInputs checks that a repeated set-up produced the same images.
func (r *run) sameInputs(prev, cur *fleet) {
	if prev == nil {
		return
	}
	if len(prev.bins) != len(cur.bins) {
		r.violate("seed %d: set-ups generated %d and %d binaries", r.seed, len(prev.bins), len(cur.bins))
		return
	}
	for i := range prev.bins {
		if prev.bins[i].Hash != cur.bins[i].Hash {
			r.violate("seed %d: set-ups generated different images for %s", r.seed, cur.bins[i].Name)
		}
	}
}

// fill empties cache and has a separate process sweep the fleet into
// it; that process signs the cache's owner marker.
func (r *run) fill(f *fleet, cache string) (*report, error) {
	for _, p := range []string{cache, cache + ".owner"} {
		if err := os.RemoveAll(p); err != nil {
			return nil, err
		}
	}
	rep, _, err := r.spawn(job{Kind: "sweep", Tree: f.binDir(), Libs: f.libDir(), Cache: cache,
		Expect: "empty", Owner: cache + ".owner", Manifest: f.manifestPath(), Jobs: r.jobs})
	return rep, err
}

func byName(results []binResult) map[string]binResult {
	out := make(map[string]binResult, len(results))
	for _, br := range results {
		out[br.Name] = br
	}
	return out
}

// fleetPass runs one pass in a fresh process and checks its answers.
func (r *run) fleetPass(f *fleet, j job, ref map[string]binResult, warm bool) (*pass, error) {
	if j.Expect == "empty" {
		if err := os.RemoveAll(j.Cache); err != nil {
			return nil, err
		}
	}
	rep, rss, err := r.spawn(j)
	if err != nil {
		return nil, err
	}
	p := &pass{rep: rep, rssMB: rss, job: j}
	fmt.Fprintf(os.Stderr, "perfbench: %s pass (trace %v): %d binaries in %.2fs, peak RSS %.0f MB\n",
		j.Kind, j.Trace, len(rep.Results), rep.WallS, rss)
	p.cacheFiles, p.cacheBytes = dirUsage(j.Cache)
	if j.Expect == "empty" {
		if err := os.RemoveAll(j.Cache); err != nil {
			return nil, err
		}
	}
	p.tally = r.check(f, rep, ref, warm)
	return p, nil
}

// check is the fleet oracle: every binary answered exactly once;
// every answer a superset of emulator truth or fail-open; answers
// byte-identical to ref when given, and cache-served when warm; every
// post-pass lookup equal to the pass's answer.
func (r *run) check(f *fleet, rep *report, ref map[string]binResult, warm bool) tally {
	var t tally
	seen := make(map[string]bool, len(rep.Results))
	for _, br := range rep.Results {
		i, ok := f.idx[br.Name]
		if !ok || seen[br.Name] {
			r.violate("%s: unknown or repeated result", br.Name)
			continue
		}
		seen[br.Name] = true
		info := f.bins[i]
		t.attempted++
		if prev, ok := ref[br.Name]; ok && (prev.Body != br.Body || (prev.Err == "") != (br.Err == "")) {
			r.violate("%s: answer differs from the reference pass", br.Name)
		}
		if !br.Cached {
			t.uploadMs = append(t.uploadMs, br.Ms)
		}
		if br.Err != "" {
			t.noAnswer++
			t.failMs += br.Ms
			if !info.MayFail {
				t.unexpected++
			}
			continue
		}
		if br.Cached {
			t.hitMs += br.Ms
		} else {
			t.missMs += br.Ms
			if warm {
				r.violate("%s: warm pass recomputed an answered binary", br.Name)
			}
		}
		var body serve.ResultBody
		if err := json.Unmarshal([]byte(br.Body), &body); err != nil {
			r.violate("%s: unreadable answer: %v", br.Name, err)
			continue
		}
		if !body.FailOpen && !subset(info.Truth, body.Syscalls) {
			r.violate("%s: answer misses syscalls the emulator observed", br.Name)
		}
		t.answered++
		if body.FailOpen {
			t.failOpen++
		}
		t.f1Sum += f1(body.Syscalls, body.FailOpen, info.Truth)
	}
	if len(seen) != len(f.bins) {
		r.violate("pass accounted for %d of %d binaries", len(seen), len(f.bins))
	}
	for _, name := range rep.Mismatch {
		r.violate("%s: lookup by hash disagrees with the pass", name)
	}
	return t
}

// fleetEndToEnd reports the untraced run's metrics: throughput is the
// median over passes of binaries per second of sweep.Run wall time (a
// sweep's sustainable rate is its throughput), latencies are medians
// over passes of each pass's percentile (see passQuantile).
func (r *run) fleetEndToEnd(passes []*pass) {
	var thr, rss []float64
	var lookups, uploads [][]float64
	var attempted, noAnswer int
	for _, p := range passes {
		thr = append(thr, float64(p.attempted)/p.rep.WallS)
		rss = append(rss, p.rssMB)
		lookups = append(lookups, p.rep.LookupMs)
		uploads = append(uploads, p.uploadMs)
		attempted += p.attempted
		noAnswer += p.noAnswer
	}
	first := passes[0]
	r.set("throughput_bin_s", median(thr))
	r.set("sustained_rps", median(thr))
	r.set("fail_share", share(float64(noAnswer), float64(attempted)))
	r.set("peak_rss_mb", median(rss))
	r.set("f1_mean", share(first.f1Sum, float64(first.answered)))
	r.set("lookup_p50_ms", passQuantile(lookups, 0.50))
	r.set("lookup_p99_ms", passQuantile(lookups, 0.99))
	r.set("upload_p50_ms", passQuantile(uploads, 0.50))
	r.set("upload_p95_ms", passQuantile(uploads, 0.95))
}

// fleetLayers reports the traced run: tracing overhead (traced against
// untraced sweeps), the sweep's own overhead (traced sweeps against
// the direct pools), the traced sweeps' per-binary costs and counters,
// and the per-layer probe.
func (r *run) fleetLayers(passes []*pass, probe job) error {
	var plainWall, tracedWall, directWall, analyzeMs []float64
	var last *pass
	var tl tally
	for i, p := range passes {
		switch {
		case !p.job.Trace:
			plainWall = append(plainWall, p.rep.WallS)
			continue
		case p.job.Kind == "direct":
			directWall = append(directWall, p.rep.WallS)
			r.merge(fmt.Sprintf("direct-%d", i), p.rep.Spans)
			continue
		}
		tracedWall = append(tracedWall, p.rep.WallS)
		r.merge(fmt.Sprintf("sweep-%d", i), p.rep.Spans)
		for _, br := range p.rep.Results {
			analyzeMs = append(analyzeMs, br.Ms)
		}
		tl.hitMs += p.hitMs
		tl.missMs += p.missMs
		tl.failMs += p.failMs
		tl.answered += p.answered
		tl.failOpen += p.failOpen
		last = p
	}
	sweepWall := median(tracedWall)
	r.set("trace.overhead_share", sweepWall/median(plainWall)-1)
	r.set("sweep.overhead_share", (sweepWall-median(directWall))/sweepWall)
	busy := tl.hitMs + tl.missMs + tl.failMs
	r.set("bside.analyze_p50_ms", quantile(analyzeMs, 0.50))
	r.set("bside.analyze_p98_ms", quantile(analyzeMs, 0.98))
	r.set("bside.hit_busy_share", share(tl.hitMs, busy))
	r.set("bside.miss_busy_share", share(tl.missMs, busy))
	r.set("bside.failed_busy_share", share(tl.failMs, busy))
	r.set("bside.failopen_share", share(float64(tl.failOpen), float64(tl.answered)))
	r.setCache(last.rep.Stats, last.cacheFiles, last.cacheBytes)
	r.setProc(last.rep.Proc, last.rep.WallS)

	if probe.Expect == "empty" {
		if err := os.RemoveAll(probe.Cache); err != nil {
			return err
		}
		defer os.RemoveAll(probe.Cache)
	}
	rep, _, err := r.spawn(probe)
	if err != nil {
		return err
	}
	r.setProbe(rep)
	for _, name := range []string{"serve.http_overhead_us", "serve.rejected", "serve.deduped", "serve.timeouts", "serve.gen_late_ms"} {
		r.set(name, 0)
	}
	return nil
}

// passQuantile is the median over passes of each pass's q-quantile, so
// one pass that met a slow stretch of the machine does not set the
// tail. When a pass holds too few samples for ten to lie beyond its
// q-quantile, the quantile of all passes' samples pooled is used.
func passQuantile(passes [][]float64, q float64) float64 {
	var per, pooled []float64
	enough := true
	for _, samples := range passes {
		enough = enough && float64(len(samples))*(1-q) >= 10
		per = append(per, quantile(samples, q))
		pooled = append(pooled, samples...)
	}
	if !enough {
		return quantile(pooled, q)
	}
	return median(per)
}
