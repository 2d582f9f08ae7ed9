package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bside/internal/serve"
)

// The serve-mix load: one process, one connection per CPU, requests
// sent on a fixed schedule (an open loop) and timed from when each was
// due. Rates are requests per second over the whole mix.
var (
	ladderRates = []float64{150, 600}
	// rungRequests is each ladder rung's length: enough lookups that
	// the p95 has ten samples beyond it.
	rungRequests = 400
	// operatingRate is the fixed rate the end-to-end latencies are
	// read at, and the ladder's lowest rung; operatingMin the fewest
	// requests it runs (1,000 lookups and 200 uploads at the least).
	operatingRate = 100.0
	operatingMin  = 2200
	// latencyLimitMs bounds a rung's lookup p95, and its backlog: the
	// median lateness of its last tenth of requests.
	latencyLimitMs = 50.0
	// uploadEvery makes one request in this many an upload.
	uploadEvery = 10
	// probeUploads is how many extra never-seen variants the traced
	// run's layer probe analyzes.
	probeUploads = 16
)

// request is one scheduled call.
type request struct {
	upload bool
	bin    binInfo // the looked-up binary or the uploaded variant
}

// reqResult is one request's outcome.
type reqResult struct {
	request
	status int
	body   []byte
	cached bool
	// serverMs is the service's own timing header (X-Bside-Elapsed-Ms).
	serverMs        float64
	due, sent, done time.Time
	err             error
}

func (q *reqResult) latencyMs() float64 { return float64(q.done.Sub(q.due).Nanoseconds()) / 1e6 }
func (q *reqResult) lateMs() float64    { return float64(q.sent.Sub(q.due).Nanoseconds()) / 1e6 }
func (q *reqResult) serviceMs() float64 { return float64(q.done.Sub(q.sent).Nanoseconds()) / 1e6 }

// mix deals out the request sequence: one upload in every uploadEvery
// requests at a seeded phase, and lookups cycling through a seeded
// permutation of the fleet, so every binary is asked for equally
// often, with the binaries whose set-up analysis failed spread evenly
// through it, so every window of the cycle asks for them in the same
// proportion.
type mix struct {
	k       int
	phase   int
	lookups []binInfo
	uploads []binInfo
	nextUp  int
	nextLk  int
}

func newMix(seed int64, f *fleet, ref map[string]binResult, uploads []binInfo) *mix {
	rng := rand.New(rand.NewSource(seed))
	m := &mix{phase: rng.Intn(uploadEvery), uploads: uploads}
	var answered, failed []binInfo
	for _, i := range rng.Perm(len(f.bins)) {
		if b := f.bins[i]; ref[b.Name].Err == "" {
			answered = append(answered, b)
		} else {
			failed = append(failed, b)
		}
	}
	m.lookups = spread(answered, failed)
	return m
}

// spread interleaves few into many so that few's items sit at evenly
// spaced positions of the result.
func spread(many, few []binInfo) []binInfo {
	n := len(many) + len(few)
	out := make([]binInfo, 0, n)
	fi, mi := 0, 0
	for i := 0; i < n; i++ {
		if fi < len(few) && (mi == len(many) || float64(i)+0.5 >= (float64(fi)+0.5)*float64(n)/float64(len(few))) {
			out = append(out, few[fi])
			fi++
		} else {
			out = append(out, many[mi])
			mi++
		}
	}
	return out
}

func (m *mix) take(n int) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		if m.k%uploadEvery == m.phase {
			if m.nextUp == len(m.uploads) {
				return nil, fmt.Errorf("serve mix ran out of upload variants")
			}
			out[i] = request{upload: true, bin: m.uploads[m.nextUp]}
			m.nextUp++
		} else {
			out[i] = request{bin: m.lookups[m.nextLk%len(m.lookups)]}
			m.nextLk++
		}
		m.k++
	}
	return out, nil
}

// client drives the service over at most conns keep-alive connections.
type client struct {
	base  string
	conns int
	hc    *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: "http://" + addr, conns: conns, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) do(q request, due time.Time) reqResult {
	res := reqResult{request: q, due: due}
	var req *http.Request
	if q.upload {
		req, res.err = http.NewRequest(http.MethodPost, c.base+"/analyze", bytes.NewReader(q.bin.Data))
	} else {
		req, res.err = http.NewRequest(http.MethodPost, c.base+"/analyze?hash="+q.bin.Hash, nil)
	}
	res.sent = time.Now()
	if res.err == nil {
		var resp *http.Response
		if resp, res.err = c.hc.Do(req); res.err == nil {
			res.body, res.err = io.ReadAll(resp.Body)
			resp.Body.Close()
			res.status = resp.StatusCode
			res.cached = resp.Header.Get("X-Bside-Cached") == "true"
			res.serverMs, _ = strconv.ParseFloat(resp.Header.Get("X-Bside-Elapsed-Ms"), 64)
		}
	}
	res.done = time.Now()
	return res
}

// control issues one benchmark control request to the serve child.
func (c *client) control(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// openLoop sends reqs at rate, request i due at start + i/rate, each
// sent as soon as it is due and a connection is free. Spans of traced
// requests go to tr under parent.
func (c *client) openLoop(reqs []request, rate float64, tr *tracer, parent int) []reqResult {
	out := make([]reqResult, len(reqs))
	start := time.Now().Add(5 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				out[i] = c.do(reqs[i], due)
				// Every other request is traced, so the traced run can
				// compare the two halves.
				if tr != nil && i%2 == 0 {
					tr.add("serve.request", out[i].due, out[i].done, parent, i)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// serveTally is the oracle's account of a batch of responses.
type serveTally struct {
	attempted, noAnswer, unexpected int
	answered, failOpen              int
	f1Sum                           float64
	lookupMs, uploadMs, lateMs      []float64
	analyzeMs                       []float64 // server-side upload timing
	hitMs, missMs, failMs           float64   // service time by outcome
	completed                       int       // expected outcomes
}

// judge checks every response. A lookup must return the set-up
// answer byte for byte, served warm — or 404 for a binary whose
// set-up analysis failed by design. An upload must return a superset
// of emulator truth (or fail open), computed fresh.
func (r *run) judge(results []reqResult, ref map[string]binResult) serveTally {
	var t serveTally
	for i := range results {
		q := &results[i]
		t.attempted++
		t.lateMs = append(t.lateMs, q.lateMs())
		if q.upload {
			t.uploadMs = append(t.uploadMs, q.latencyMs())
		} else {
			t.lookupMs = append(t.lookupMs, q.latencyMs())
		}
		want, known := ref[q.bin.Name]
		switch {
		case q.err != nil || (q.status != http.StatusOK && q.status != http.StatusNotFound):
			t.unexpected++
			t.noAnswer++
			t.failMs += q.serviceMs()
			continue
		case q.upload && q.status != http.StatusOK:
			r.violate("upload %s: status %d", q.bin.Name, q.status)
			continue
		case !q.upload && (!known || (want.Err != "") != (q.status == http.StatusNotFound)):
			r.violate("lookup %s: status %d disagrees with set-up", q.bin.Name, q.status)
			continue
		case q.status == http.StatusNotFound:
			t.noAnswer++
			t.completed++
			t.failMs += q.serviceMs()
			continue
		}
		t.completed++
		if q.upload {
			t.missMs += q.serviceMs()
			t.analyzeMs = append(t.analyzeMs, q.serverMs)
			if q.cached {
				r.violate("upload %s: served from cache, variant not fresh", q.bin.Name)
			}
		} else {
			t.hitMs += q.serviceMs()
			if string(q.body) != want.Body || !q.cached {
				r.violate("lookup %s: answer differs from set-up or not served warm", q.bin.Name)
			}
		}
		var body serve.ResultBody
		if err := json.Unmarshal(q.body, &body); err != nil {
			r.violate("%s: unreadable answer: %v", q.bin.Name, err)
			continue
		}
		if !body.FailOpen && !subset(q.bin.Truth, body.Syscalls) {
			r.violate("%s: answer misses syscalls the emulator observed", q.bin.Name)
		}
		t.answered++
		if body.FailOpen {
			t.failOpen++
		}
		t.f1Sum += f1(body.Syscalls, body.FailOpen, q.bin.Truth)
	}
	return t
}

// achievedRate is expected outcomes per second, from the first due
// time to the last completion.
func achievedRate(results []reqResult, t serveTally) float64 {
	last := results[0].done
	for _, q := range results {
		if q.done.After(last) {
			last = q.done
		}
	}
	return float64(t.completed) / last.Sub(results[0].due).Seconds()
}

// meetsLimit is the ladder's acceptance: no unexpected failure, lookup
// p95 within the limit, and no backlog left at the rung's end.
func meetsLimit(results []reqResult, t serveTally) bool {
	tail := results[len(results)-len(results)/10:]
	var late []float64
	for i := range tail {
		late = append(late, tail[i].lateMs())
	}
	return t.unexpected == 0 && quantile(t.lookupMs, 0.95) <= latencyLimitMs && median(late) <= latencyLimitMs
}

// serveMix runs the resident service over a set-up-filled cache and
// drives it with the lookup/upload mix: the rate ladder first, then
// the operating rate.
func (r *run) serveMix() error {
	tree := filepath.Join(r.work, "tree")
	cacheDir := filepath.Join(r.work, "cache-serve")
	rungN, opN := rungRequests, max(operatingMin, int(operatingRate*r.seconds))
	if r.smoke {
		rungN, opN = 100, int(operatingRate*r.seconds)
	}
	nUploads := (len(ladderRates)*rungN+opN)/uploadEvery + 1 + probeUploads

	var f *fleet
	var uploads []binInfo
	var ref map[string]binResult
	var setups []float64
	for k := 0; k < r.setupCount(); k++ {
		start := time.Now()
		nf, err := generateFleet(tree, r.seed, r.smoke, r.jobs)
		if err != nil {
			return err
		}
		ups, err := uploadVariants(r.seed, nUploads, nf.libs, r.jobs)
		if err != nil {
			return err
		}
		rep, err := r.fill(nf, cacheDir)
		if err != nil {
			return err
		}
		r.check(nf, rep, nil, false)
		ref = byName(rep.Results)
		setups = append(setups, time.Since(start).Seconds())
		r.sameInputs(f, nf)
		f, uploads = nf, ups
	}
	m := newMix(r.seed, f, ref, uploads[:nUploads-probeUploads])

	srv, err := r.startServer(job{Kind: "serve", Libs: f.libDir(), Cache: cacheDir, Expect: "foreign",
		Owner: cacheDir + ".owner", Intra: -1})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = srv.stop()
		}
	}()
	c := newClient(srv.addr, r.jobs)

	// The operating rate is the ladder's lowest rung; the higher rungs
	// run first, which also fills the service's memory tier.
	sustained, best := 0.0, 0.0
	rung := func(rate float64, n int, tr *tracer, parent int) ([]reqResult, serveTally, error) {
		reqs, err := m.take(n)
		if err != nil {
			return nil, serveTally{}, err
		}
		res := c.openLoop(reqs, rate, tr, parent)
		t := r.judge(res, ref)
		r.res.Attempted += int64(t.attempted)
		r.res.Failed += int64(t.unexpected)
		ok := meetsLimit(res, t)
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix at %.0f/s: lookup p95 %.2fms, achieved %.1f/s, failures %d, within limit %v\n",
			rate, quantile(t.lookupMs, 0.95), achievedRate(res, t), t.unexpected, ok)
		if ok && rate > best {
			sustained, best = achievedRate(res, t), rate
		}
		return res, t, nil
	}
	for _, rate := range ladderRates {
		if _, _, err := rung(rate, rungN, nil, -1); err != nil {
			return err
		}
	}
	if err := c.control("/bench/mark", nil); err != nil {
		return err
	}
	tr := newTracer(r.trace)
	phase := tr.open("openloop.operating", -1, -1)
	res, t, err := rung(operatingRate, opN, tr, phase)
	if err != nil {
		return err
	}
	tr.close(phase)
	var sr serveReport
	if err := c.control("/bench/report", &sr); err != nil {
		return err
	}

	httpOverhead := 0.0
	if r.trace {
		if httpOverhead, err = r.httpOverhead(c, f, ref); err != nil {
			return err
		}
	}
	rss, err := srv.stop()
	stopped = true
	if err != nil {
		return err
	}

	if !r.trace {
		r.set("setup_s", median(setups))
		r.set("throughput_bin_s", achievedRate(res, t))
		r.set("sustained_rps", sustained)
		r.set("fail_share", share(float64(t.noAnswer), float64(t.attempted)))
		r.set("peak_rss_mb", rss)
		r.set("f1_mean", share(t.f1Sum, float64(t.answered)))
		r.set("lookup_p50_ms", quantile(t.lookupMs, 0.50))
		r.set("lookup_p99_ms", quantile(t.lookupMs, 0.99))
		r.set("upload_p50_ms", quantile(t.uploadMs, 0.50))
		r.set("upload_p95_ms", quantile(t.uploadMs, 0.95))
		return nil
	}

	r.merge("load", tr.all())
	var tracedMs, plainMs []float64
	for i := range res {
		if res[i].upload {
			continue
		}
		if i%2 == 0 {
			tracedMs = append(tracedMs, res[i].latencyMs())
		} else {
			plainMs = append(plainMs, res[i].latencyMs())
		}
	}
	r.set("trace.overhead_share", median(tracedMs)/median(plainMs)-1)
	busy := t.hitMs + t.missMs + t.failMs
	r.set("bside.analyze_p50_ms", quantile(t.analyzeMs, 0.50))
	r.set("bside.analyze_p98_ms", quantile(t.analyzeMs, 0.98))
	r.set("bside.hit_busy_share", share(t.hitMs, busy))
	r.set("bside.miss_busy_share", share(t.missMs, busy))
	r.set("bside.failed_busy_share", share(t.failMs, busy))
	r.set("bside.failopen_share", share(float64(t.failOpen), float64(t.answered)))
	files, size := dirUsage(cacheDir)
	r.setCache(cacheDelta(sr.After.Cache, sr.Before.Cache), files, size)
	r.setProc(sr.Proc, sr.WallS)
	r.set("sweep.overhead_share", 0)
	r.set("serve.http_overhead_us", httpOverhead)
	r.set("serve.rejected", float64(sr.After.Serve.Rejected-sr.Before.Serve.Rejected))
	r.set("serve.deduped", float64(sr.After.Serve.Deduped-sr.Before.Serve.Deduped))
	r.set("serve.timeouts", float64(sr.After.Serve.Timeouts-sr.Before.Serve.Timeouts))
	r.set("serve.gen_late_ms", quantile(t.lateMs, 0.99))

	// The layer probe analyzes never-seen variants the way an upload
	// is analyzed, against the service's cache.
	probeDir := filepath.Join(r.work, "probe")
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return err
	}
	pj := job{Kind: "probe", Libs: f.libDir(), Cache: cacheDir, Expect: "foreign", Owner: cacheDir + ".owner", Intra: -1}
	for _, u := range uploads[nUploads-probeUploads:] {
		path := filepath.Join(probeDir, u.Name)
		if err := os.WriteFile(path, u.Data, 0o644); err != nil {
			return err
		}
		pj.Probe = append(pj.Probe, path)
	}
	probe, _, err := r.spawn(pj)
	if err != nil {
		return err
	}
	r.setProbe(probe)
	return nil
}

// httpOverhead is the median round trip of a by-hash lookup over HTTP
// minus the median of the same Analyzer.Lookup timed inside the
// service process, in microseconds.
func (r *run) httpOverhead(c *client, f *fleet, ref map[string]binResult) (float64, error) {
	var rtt, direct []float64
	for _, b := range f.bins {
		if ref[b.Name].Err != "" {
			continue
		}
		q := c.do(request{bin: b}, time.Now())
		if q.err != nil || q.status != http.StatusOK {
			return 0, fmt.Errorf("overhead lookup %s failed", b.Name)
		}
		rtt = append(rtt, q.serviceMs()*1000)
		var ns float64
		if err := c.control("/bench/lookup?hash="+b.Hash, &ns); err != nil {
			return 0, err
		}
		direct = append(direct, ns/1000)
		if len(rtt) == 200 {
			break
		}
	}
	return median(rtt) - median(direct), nil
}
