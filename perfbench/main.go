// Command perfbench is the end-to-end benchmark of the bside analyzer.
// It generates a seeded synthetic fleet, drives the analyzer through
// its fleet and service front doors, checks every answer against
// emulator truth, and prints one JSON result line as the last line of
// its standard output.
//
// Usage (from the root of a checkout, through the build wrapper):
//
//	bash perfbench/run.sh --workload fleet-cold|fleet-warm|serve-mix \
//		--seed n --seconds s --trace 0|1 [--smoke]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run (see
// README.md for both lists and what each metric should move). The
// exit status is non-zero on any wrong answer, isolation-guard failure
// or systemic error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the analyzer sees, reported by
// every workload with --trace 0. Their per-workload meaning is in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_bin_s", "1/s"},
	{"fail_share", "share"},
	{"peak_rss_mb", "MB"},
	{"f1_mean", "score"},
	{"lookup_p50_ms", "ms"},
	{"lookup_p99_ms", "ms"},
	{"upload_p50_ms", "ms"},
	{"upload_p95_ms", "ms"},
	{"sustained_rps", "1/s"},
}

// perLayer lists the traced run's per-layer metrics, reported by every
// workload with --trace 1 (zero where a workload bypasses the layer).
var perLayer = []metricDef{
	{"elff.identity_us", "us"},
	{"elff.parse_us", "us"},
	{"elff.image_mb", "MB"},
	{"elff.mapped_share", "share"},
	{"cfg.recover_ms", "ms"},
	{"cfg.insns", "count"},
	{"cfg.blocks", "count"},
	{"cfg.budget_fail", "count"},
	{"ident.wrappers_ms", "ms"},
	{"ident.identify_ms", "ms"},
	{"ident.blocks_explored", "count"},
	{"ident.sites", "count"},
	{"ident.budget_fail", "count"},
	{"ident.memo_hit_share", "share"},
	{"shared.compute_ms", "ms"},
	{"shared.lookup_us", "us"},
	{"shared.interfaces", "count"},
	{"cache.hit_share", "share"},
	{"cache.memory_hits", "count"},
	{"cache.pack_hits", "count"},
	{"cache.stores", "count"},
	{"cache.files", "count"},
	{"cache.dir_mb", "MB"},
	{"cache.io_errors", "count"},
	{"bside.analyze_p50_ms", "ms"},
	{"bside.analyze_p98_ms", "ms"},
	{"bside.hit_busy_share", "share"},
	{"bside.miss_busy_share", "share"},
	{"bside.failed_busy_share", "share"},
	{"bside.failopen_share", "share"},
	{"sweep.overhead_share", "share"},
	{"serve.http_overhead_us", "us"},
	{"serve.rejected", "count"},
	{"serve.deduped", "count"},
	{"serve.timeouts", "count"},
	{"serve.gen_late_ms", "ms"},
	{"proc.cpu_util", "share"},
	{"proc.alloc_mb", "MB"},
	{"proc.mallocs", "count"},
	{"proc.gc_cpu_share", "share"},
	{"trace.overhead_share", "share"},
	{"trace.spans", "count"},
}

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every input (a stratified 1-in-16 corpus sample,
	// short ladders, one set-up) so the whole path runs in seconds.
	smoke bool
	// root is where the run's scratch directory is made.
	root string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	config
	work string // scratch directory, removed at exit
	jobs int    // workers and connections: one per CPU
	res  result
	// violations collects wrong answers and guard failures; any one
	// fails the run.
	violations []string
	// spans gathers the traced run's spans from every process.
	spans []span
}

func main() {
	if os.Getenv(jobEnv) != "" {
		os.Exit(childMain())
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "fleet-cold, fleet-warm or serve-mix")
	fs.Int64Var(&cfg.seed, "seed", 42, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	fs.BoolVar(&cfg.smoke, "smoke", false, "smoke-sized inputs")
	fs.StringVar(&cfg.root, "workdir", ".bench_build", "parent of the run's scratch directory")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || *trace < 0 || *trace > 1 {
		return cfg, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg.trace = *trace == 1
	return cfg, nil
}

var workloads = map[string]func(*run) error{
	"fleet-cold": func(r *run) error { return r.fleet(false) },
	"fleet-warm": func(r *run) error { return r.fleet(true) },
	"serve-mix":  (*run).serveMix,
}

// execute runs one workload in a fresh scratch directory and returns
// its result; the error is reserved for systemic failures.
func execute(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.root, "work-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	work, err = filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	r := &run{config: cfg, work: work, jobs: runtime.NumCPU(), res: result{Metrics: map[string]metric{}}}
	if err := workloads[cfg.workload](r); err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return &r.res, nil
}

// set records one metric under the unit its table declares.
func (r *run) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.res.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// finish checks that the mode's metric list is complete, writes the
// traced run's spans out, and settles correctness.
func (r *run) finish() error {
	want := endToEnd
	if r.trace {
		want = perLayer
		r.set("trace.spans", float64(len(r.spans)))
		if err := r.writeSpans(); err != nil {
			return err
		}
	}
	var missing []string
	for _, d := range want {
		if _, ok := r.res.Metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 || len(r.res.Metrics) != len(want) {
		return fmt.Errorf("metric set incomplete (missing %v)", missing)
	}
	r.res.Correct = len(r.violations) == 0
	if !r.res.Correct {
		sort.Strings(r.violations)
		n := len(r.violations)
		if n > 20 {
			r.violations = append(r.violations[:20], fmt.Sprintf("... and %d more", n-20))
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d correctness violations:\n  %s\n", n, strings.Join(r.violations, "\n  "))
	}
	return nil
}

// writeSpans stores the traced run's spans next to the scratch
// directory, one JSON document per run.
func (r *run) writeSpans() error {
	dir := filepath.Join(r.root, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%d.json", r.workload, r.seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
