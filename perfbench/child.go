package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"bside"
	"bside/internal/cache"
	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/ident"
	"bside/internal/serve"
	"bside/internal/shared"
	"bside/internal/sweep"
	"bside/internal/symex"
)

// jobEnv carries a child process's job. Cold passes need a fresh
// process: the function memo and the cache's memory tier are
// process-wide, so only a new process starts cold.
const jobEnv = "PERFBENCH_JOB"

// job is one unit of work run in a child process.
type job struct {
	// Kind is "sweep" (one sweep.Run), "direct" (the same
	// AnalyzeFileContext calls from the benchmark's own pool), "probe"
	// (the benchmark calls each layer itself) or "serve" (the resident
	// service on loopback TCP until stdin closes).
	Kind  string `json:"kind"`
	Tree  string `json:"tree"`
	Libs  string `json:"libs"`
	Cache string `json:"cache"`
	// Expect is the isolation guard's precondition on Cache: "empty"
	// (cold) or "foreign" (warm, filled by another process).
	Expect string `json:"expect"`
	// Owner is the marker file naming the process that filled Cache.
	// A sweep with Expect "empty" signs it when done.
	Owner    string   `json:"owner"`
	Manifest string   `json:"manifest"`
	Jobs     int      `json:"jobs"`
	Intra    int      `json:"intra"`
	Trace    bool     `json:"trace"`
	Probe    []string `json:"probe,omitempty"`
}

// binResult is one binary's answer as a pass saw it.
type binResult struct {
	Name string `json:"name"`
	// Body is the canonical rendering (serve.Render) of the answer;
	// empty when the analysis failed.
	Body   string  `json:"body,omitempty"`
	Cached bool    `json:"cached,omitempty"`
	Ms     float64 `json:"ms"`
	Err    string  `json:"err,omitempty"`
}

// report is what a child hands back on stdout.
type report struct {
	WallS   float64     `json:"wall_s"`
	Results []binResult `json:"results,omitempty"`
	// LookupMs times by-hash lookups of the answered binaries during
	// the pass; Mismatch lists binaries whose lookup disagreed with it.
	LookupMs []float64        `json:"lookup_ms,omitempty"`
	Mismatch []string         `json:"mismatch,omitempty"`
	Stats    bside.CacheStats `json:"stats"`
	Proc     procSample       `json:"proc"`
	Spans    []span           `json:"spans,omitempty"`
	Probe    *probeCounts     `json:"probe,omitempty"`
}

// probeCounts are the layer outputs the probe read.
type probeCounts struct {
	Recovered, Identified          int
	Insns, Blocks                  int64
	CFGBudgetFail, IdentBudgetFail int
	BlocksExplored, Sites          int64
	Interfaces                     int
}

// childCmd prepares a fresh process of this executable that runs j.
func childCmd(j job) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), jobEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// spawn runs j in a fresh process and returns its report and peak RSS
// in MiB.
func (r *run) spawn(j job) (*report, float64, error) {
	cmd, err := childCmd(j)
	if err != nil {
		return nil, 0, err
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s pass: %w", j.Kind, err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, 0, fmt.Errorf("%s pass: bad report: %w", j.Kind, err)
	}
	return &rep, maxRSS(cmd.ProcessState), nil
}

func maxRSS(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) * 1024 / mib // Linux reports KiB
	}
	return 0
}

// childMain runs the job in jobEnv and writes its report to stdout.
func childMain() int {
	var j job
	if err := json.Unmarshal([]byte(os.Getenv(jobEnv)), &j); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	var rep *report
	var err error
	switch j.Kind {
	case "sweep", "direct":
		rep, err = passChild(j)
	case "probe":
		rep, err = probeChild(j)
	case "serve":
		err = serveChild(j)
	default:
		err = fmt.Errorf("unknown job kind %q", j.Kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if rep != nil {
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			return 1
		}
	}
	return 0
}

// guardCacheDir is the isolation guard's check of the cache
// directory, made before anything opens it.
func guardCacheDir(j job) error {
	entries, err := os.ReadDir(j.Cache)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	owner, ownerErr := os.ReadFile(j.Owner)
	switch j.Expect {
	case "empty":
		if len(entries) != 0 || ownerErr == nil {
			return fmt.Errorf("isolation guard: cold pass found %d entries in %s", len(entries), j.Cache)
		}
	case "foreign":
		pid, err := strconv.Atoi(string(owner))
		if len(entries) == 0 || ownerErr != nil || err != nil {
			return fmt.Errorf("isolation guard: warm pass found no filled cache in %s", j.Cache)
		}
		if pid == os.Getpid() || pid == os.Getppid() {
			return fmt.Errorf("isolation guard: cache %s was filled by this process or its parent", j.Cache)
		}
	default:
		return fmt.Errorf("isolation guard: unknown expectation %q", j.Expect)
	}
	return nil
}

// guardProcess checks that the process-wide function memo and memory
// tier start empty: a pass measures a fresh process or nothing.
func guardProcess(cs bside.CacheStats) error {
	if cs.FuncMemoEntries != 0 || cs.MemoryEntries != 0 {
		return fmt.Errorf("isolation guard: process starts with %d memo entries and %d memory-tier entries",
			cs.FuncMemoEntries, cs.MemoryEntries)
	}
	return nil
}

// openAnalyzer is the guarded analyzer construction every child uses.
func openAnalyzer(j job) (*bside.Analyzer, error) {
	if err := guardCacheDir(j); err != nil {
		return nil, err
	}
	a, err := bside.NewAnalyzerErr(bside.Options{LibraryDir: j.Libs, CacheDir: j.Cache, IntraWorkers: j.Intra})
	if err != nil {
		return nil, err
	}
	return a, guardProcess(a.CacheStats())
}

func render(res *bside.Analysis) string { return string(serve.Render(res)) }

// passChild runs one timed pass over the tree: sweep.Run, or for
// "direct" the benchmark's own pool of AnalyzeFileContext calls over
// the same files (the walk happens before the clock starts).
func passChild(j job) (*report, error) {
	a, err := openAnalyzer(j)
	if err != nil {
		return nil, err
	}
	hashes, err := readManifest(j.Manifest)
	if err != nil {
		return nil, err
	}
	tr := newTracer(j.Trace)
	rep := &report{}
	var mu sync.Mutex
	// record keeps one binary's answer and looks it up by hash right
	// away, the way a consumer of the result stream would, so lookups
	// are spread over the whole pass: the first lookup loads the answer
	// into the memory tier and checks it, the second is timed.
	record := func(path string, res *bside.Analysis, ms float64, errText string, parent int) {
		end := time.Now()
		mu.Lock()
		defer mu.Unlock()
		req := len(rep.Results)
		tr.add("bside.AnalyzeFileContext", end.Add(-time.Duration(ms*float64(time.Millisecond))), end, parent, req)
		br := binResult{Name: filepath.Base(path), Ms: ms, Err: errText}
		if res != nil {
			br.Body, br.Cached = render(res), res.Cached
			if got, ok := a.Lookup(hashes[br.Name]); !ok || render(got) != br.Body {
				rep.Mismatch = append(rep.Mismatch, br.Name)
			}
			t := time.Now()
			a.Lookup(hashes[br.Name])
			rep.LookupMs = append(rep.LookupMs, float64(time.Since(t).Nanoseconds())/1e6)
		}
		rep.Results = append(rep.Results, br)
	}

	ctx := context.Background()
	var paths []string
	if j.Kind == "direct" {
		entries, err := os.ReadDir(j.Tree)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			paths = append(paths, filepath.Join(j.Tree, e.Name()))
		}
	}
	p0 := readProc()
	start := time.Now()
	if j.Kind == "sweep" {
		root := tr.open("sweep.Run", -1, -1)
		_, err = sweep.Run(ctx, j.Tree, sweep.Options{Analyzer: a, Jobs: j.Jobs, OnResult: func(res *sweep.Result) {
			errText := ""
			if res.Error != "" {
				errText = res.Phase + ": " + res.Error
			}
			record(res.Path, res.Analysis, res.Ms, errText, root)
		}})
		tr.close(root)
	} else {
		root := tr.open("direct.pool", -1, -1)
		forEach(len(paths), j.Jobs, func(i int) {
			t := time.Now()
			res, aerr := a.AnalyzeFileContext(ctx, paths[i])
			ms := float64(time.Since(t).Microseconds()) / 1000
			errText := ""
			if aerr != nil {
				errText = "analyze: " + aerr.Error()
			}
			record(paths[i], res, ms, errText, root)
		})
		tr.close(root)
	}
	rep.WallS = time.Since(start).Seconds()
	rep.Proc = readProc().sub(p0)
	if err != nil {
		return nil, err
	}
	rep.Stats = a.CacheStats()

	rep.Spans = tr.all()
	if j.Expect == "empty" && j.Owner != "" {
		if err := os.WriteFile(j.Owner, []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// forEach runs fn(0..n-1) over workers goroutines.
func forEach(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// probeChild calls each layer itself, one binary at a time, in the
// order bside's file frontend does: identity, cache probe, and on a
// miss the parse, the whole-program summary (interfaces, pipeline,
// stitch, store), then CFG recovery and the two identification stages
// again on their own so each layer gets its own span.
func probeChild(j job) (*report, error) {
	if err := guardCacheDir(j); err != nil {
		return nil, err
	}
	store, err := cache.Open(j.Cache)
	if err != nil {
		return nil, err
	}
	load := func(name string) (*elff.Binary, error) {
		return elff.OpenBinary(filepath.Join(j.Libs, name), false)
	}
	an := shared.NewAnalyzer(load, ident.Config{})
	an.Workers, an.Cache = j.Intra, store
	workers := j.Intra
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A private memo makes the stand-alone identification see the
	// same memo state a fresh process would.
	memo := new(ident.Memo)
	tr := newTracer(true)
	pc := &probeCounts{}
	ctx := context.Background()
	p0 := readProc()
	start := time.Now()
	for i, path := range j.Probe {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		top := tr.open("probe.binary", -1, i)
		var id elff.Identity
		tr.timed("elff.ReadIdentity", top, i, func() { id, err = elff.ReadIdentity(data) })
		if err != nil {
			return nil, err
		}
		hit := false
		tr.timed("shared.CachedSummary", top, i, func() { _, hit = an.CachedSummary(id.Hash, id.Needed) })
		if !hit {
			if err := probeMiss(ctx, tr, top, i, path, an, memo, workers, pc); err != nil {
				return nil, err
			}
		}
		tr.close(top)
	}
	pc.Interfaces = len(an.Interfaces())
	return &report{WallS: time.Since(start).Seconds(), Proc: readProc().sub(p0), Spans: tr.all(), Probe: pc}, nil
}

func probeMiss(ctx context.Context, tr *tracer, top, req int, path string, an *shared.Analyzer, memo *ident.Memo, workers int, pc *probeCounts) error {
	var bin *elff.Binary
	var err error
	tr.timed("elff.OpenBinary", top, req, func() { bin, err = elff.OpenBinary(path, false) })
	if err != nil {
		return err
	}
	defer bin.ReleaseImage()
	// Budget failures are the designed outcome for some binaries; the
	// layer calls below count them.
	tr.timed("shared.ComputeSummaryCtx", top, req, func() { _, _, _ = an.ComputeSummaryCtx(ctx, bin) })

	var g *cfg.Graph
	tr.timed("cfg.Recover", top, req, func() { g, err = cfg.Recover(bin, cfg.Options{MaxInsns: an.MaxCFGInsns}) })
	if errors.Is(err, cfg.ErrBudget) {
		pc.CFGBudgetFail++
		return nil
	} else if err != nil {
		return err
	}
	pc.Recovered++
	pc.Insns += int64(g.Stats.DecodedInsns)
	pc.Blocks += int64(g.Stats.NumBlocks)

	conf := ident.Config{ImportWrappers: importWrappers(bin, an.Interfaces()), Memo: memo, Workers: workers}
	var pass *ident.Pass
	tr.timed("ident.Prepare", top, req, func() { pass = ident.Prepare(g, conf) })
	tr.timed("ident.DetectWrappers", top, req, func() { err = pass.DetectWrappers() })
	var rep *ident.Report
	if err == nil {
		tr.timed("ident.Identify", top, req, func() { rep, err = pass.Identify() })
	}
	if errors.Is(err, ident.ErrTimeout) {
		pc.IdentBudgetFail++
		return nil
	} else if err != nil {
		return err
	}
	pc.Identified++
	pc.BlocksExplored += int64(rep.Stats.BlocksExplored)
	pc.Sites += int64(rep.Stats.SyscallSites)
	return nil
}

// importWrappers finds the imported symbols of bin that its libraries
// export as syscall wrappers, searching the direct dependencies first
// and then the rest of the closure in name order, as the shared
// resolver does.
func importWrappers(bin *elff.Binary, ifcs map[string]*shared.Interface) map[string]symex.ParamRef {
	scope := map[string]bool{}
	var visit func(names []string)
	visit = func(names []string) {
		for _, n := range names {
			if ifc, ok := ifcs[n]; ok && !scope[n] {
				scope[n] = true
				visit(ifc.Needed)
			}
		}
	}
	visit(bin.Needed)
	order := append([]string(nil), bin.Needed...)
	var rest []string
	for n := range scope {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	order = append(order, rest...)

	out := map[string]symex.ParamRef{}
	for _, im := range bin.Imports {
		for _, lib := range order {
			ifc, ok := ifcs[lib]
			if !ok {
				continue
			}
			if exp, ok := ifc.ExportNamed(im.Name); ok {
				if exp.Wrapper != nil {
					if ref, err := exp.Wrapper.Ref(); err == nil {
						out[im.Name] = ref
					}
				}
				break
			}
		}
	}
	return out
}

// serveReport is the serve child's account of a measured window.
type serveReport struct {
	WallS  float64       `json:"wall_s"`
	Proc   procSample    `json:"proc"`
	Before serve.Metrics `json:"before"`
	After  serve.Metrics `json:"after"`
}

// serveChild runs the resident service with the CLI's serve defaults
// on loopback TCP, prints its address, and serves until stdin closes.
// Besides the service's own routes it answers the benchmark's control
// routes under /bench/: mark (start a measured window), report (end
// it) and lookup (time one direct Analyzer.Lookup in-process).
func serveChild(j job) error {
	a, err := openAnalyzer(j)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{Backend: a, MaxInFlight: serve.DefaultMaxInFlight, RequestTimeout: 2 * time.Minute})
	var mu sync.Mutex
	markAt, markProc, markMetrics := time.Now(), readProc(), srv.MetricsSnapshot()

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/bench/mark", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		markAt, markProc, markMetrics = time.Now(), readProc(), srv.MetricsSnapshot()
		mu.Unlock()
	})
	mux.HandleFunc("/bench/report", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		rep := serveReport{WallS: time.Since(markAt).Seconds(), Proc: readProc().sub(markProc),
			Before: markMetrics, After: srv.MetricsSnapshot()}
		mu.Unlock()
		_ = json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("/bench/lookup", func(w http.ResponseWriter, req *http.Request) {
		t := time.Now()
		_, ok := a.Lookup(req.URL.Query().Get("hash"))
		d := time.Since(t)
		if !ok {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, d.Nanoseconds())
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	fmt.Println(ln.Addr().String())

	_, _ = io.Copy(io.Discard, os.Stdin) // the parent closes stdin to stop
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-done; err != http.ErrServerClosed {
		return err
	}
	return nil
}

// serverProc is a running serve child.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

func (r *run) startServer(j job) (*serverProc, error) {
	cmd, err := childCmd(j)
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		stdin.Close()
		_ = cmd.Wait()
		return nil, fmt.Errorf("serve child did not start: %w", err)
	}
	return &serverProc{cmd: cmd, stdin: stdin, addr: string(bytes.TrimSpace([]byte(line)))}, nil
}

// stop ends the serve child, waits for it, and returns its peak RSS.
func (s *serverProc) stop() (float64, error) {
	s.stdin.Close()
	if err := s.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("serve child: %w", err)
	}
	return maxRSS(s.cmd.ProcessState), nil
}
