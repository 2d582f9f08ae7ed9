package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"bside/internal/corpus"
	"bside/internal/elff"
)

// TestMain lets the test binary serve as the benchmark's child
// process, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(jobEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload smoke-sized, untraced and traced, and
// checks that each run passes every correctness check and prints
// exactly the metrics BENCHMARK.json names, with their units. The
// untraced runs repeat on a second seed, so correctness does not rest
// on the default inputs.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, tc := range []struct {
			seed  int64
			trace bool
		}{{42, false}, {42, true}, {7, false}} {
			want := s.EndToEnd
			if tc.trace {
				want = s.PerLayer
			}
			res, err := execute(config{workload: w.Name, seed: tc.seed, seconds: 1, trace: tc.trace, smoke: true, root: t.TempDir()})
			if err != nil {
				t.Fatalf("%s seed %d trace %v: %v", w.Name, tc.seed, tc.trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s seed %d trace %v: correct=%v attempted=%d", w.Name, tc.seed, tc.trace, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics printed, BENCHMARK.json names %d", w.Name, tc.trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %v: metric %s printed as %+v, want unit %s", w.Name, tc.trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestFleetMatchesGenerateDebian pins the parallel corpus build to
// corpus.GenerateDebian: same images, same emulator truth.
func TestFleetMatchesGenerateDebian(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full corpus twice")
	}
	const seed = 3
	set, err := corpus.GenerateDebian(seed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := generateFleet(t.TempDir(), seed, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.bins) != len(set.Debian) {
		t.Fatalf("%d binaries, GenerateDebian made %d", len(f.bins), len(set.Debian))
	}
	for i, b := range set.Debian {
		data, err := elff.Write(b.Bin.Spec())
		if err != nil {
			t.Fatal(err)
		}
		got := f.bins[i]
		if got.Name != b.Profile.Name || got.Hash != imageHash(data) || !slices.Equal(got.Truth, b.Truth) {
			t.Fatalf("%s differs from GenerateDebian's %s", got.Name, b.Profile.Name)
		}
	}
}
