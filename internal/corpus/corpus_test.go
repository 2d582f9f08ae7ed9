package corpus

import (
	"fmt"
	"testing"

	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/ident"
	"bside/internal/shared"
)

func TestBuildLibc(t *testing.T) {
	libc, err := BuildLibc()
	if err != nil {
		t.Fatal(err)
	}
	if libc.Kind != elff.KindShared {
		t.Fatalf("kind %v", libc.Kind)
	}
	if _, ok := libc.ExportAddr("write"); !ok {
		t.Fatal("missing write export")
	}
	if _, ok := libc.ExportAddr("syscall"); !ok {
		t.Fatal("missing syscall wrapper export")
	}
	// The interface analysis must classify syscall() as a wrapper and
	// write() as a direct site.
	ifc, err := shared.AnalyzeLibrary(libc, "libc.so.6", ident.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := ifc.ExportNamed("syscall")
	if !ok || w.Wrapper == nil || w.Wrapper.Reg != "rdi" {
		t.Fatalf("syscall export: %+v", w)
	}
	wr, ok := ifc.ExportNamed("write")
	if !ok || len(wr.Syscalls) != 1 || wr.Syscalls[0] != 1 {
		t.Fatalf("write export: %+v", wr)
	}
	sy, ok := ifc.ExportNamed("sched_yield")
	if !ok || len(sy.Syscalls) != 1 || sy.Syscalls[0] != 24 {
		t.Fatalf("sched_yield export (wrapper call site in lib): %+v", sy)
	}
}

func TestBuildExtLibsDeterministic(t *testing.T) {
	a, err := BuildExtLib(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildExtLib(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Exports) != len(b.Exports) || len(a.Blob) != len(b.Blob) {
		t.Fatal("ext lib generation must be deterministic")
	}
	names := ExtLibExports(3)
	if len(names) != len(a.Exports) {
		t.Fatalf("ExtLibExports mismatch: %v vs %d exports", names, len(a.Exports))
	}
}

func TestAppGeneration(t *testing.T) {
	set, err := GenerateApps()
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Apps) != 6 {
		t.Fatalf("apps: %d", len(set.Apps))
	}
	for _, app := range set.Apps {
		if len(app.Truth) < 30 {
			t.Errorf("%s: ground truth too small: %d", app.Profile.Name, len(app.Truth))
		}
		if len(app.Truth) > 110 {
			t.Errorf("%s: ground truth too large: %d", app.Profile.Name, len(app.Truth))
		}
		// exit must always be in the truth.
		found := false
		for _, n := range app.Truth {
			if n == 60 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: missing exit in truth", app.Profile.Name)
		}
	}
}

func TestAppNoFalseNegatives(t *testing.T) {
	// The core validity claim (§5.1): B-Side's identified set is a
	// superset of the emulator ground truth for every app.
	set, err := GenerateApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range set.Apps {
		an := shared.NewAnalyzer(set.LoadLib, ident.Config{})
		rep, err := an.Program(app.Bin)
		if err != nil {
			t.Fatalf("%s: %v", app.Profile.Name, err)
		}
		if rep.FailOpen {
			t.Fatalf("%s: fail-open", app.Profile.Name)
		}
		have := make(map[uint64]bool, len(rep.Syscalls))
		for _, n := range rep.Syscalls {
			have[n] = true
		}
		for _, n := range app.Truth {
			if !have[n] {
				t.Errorf("%s: FALSE NEGATIVE: %d in truth but not identified", app.Profile.Name, n)
			}
		}
		// Precision sanity: the identified set must not explode.
		if len(rep.Syscalls) > 3*len(app.Truth) {
			t.Errorf("%s: identified %d vs truth %d (too imprecise)",
				app.Profile.Name, len(rep.Syscalls), len(app.Truth))
		}
	}
}

func TestFailureClassesTrip(t *testing.T) {
	// A FailCFG profile must exhaust a 40k-instruction CFG budget.
	p := Profile{
		Name: "giant", Kind: elff.KindStatic, HotDirect: 5,
		Class: FailCFG, Filler: 10, Seed: 99,
	}
	bin, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cfg.Recover(bin, cfg.Options{MaxInsns: 40_000})
	if err != cfg.ErrBudget {
		t.Fatalf("want CFG budget error, got %v", err)
	}
	// The same binary still runs fine under the emulator (decoys are
	// never executed).
	set := &Set{Libs: map[string]*elff.Binary{}}
	if _, err := set.groundTruth(bin, p); err != nil {
		t.Fatalf("emulation: %v", err)
	}
	// And a generous budget analyzes it fully.
	if _, err := cfg.Recover(bin, cfg.Options{MaxInsns: 4_000_000}); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
}

func TestStaticProfileSelfContained(t *testing.T) {
	profiles := DebianProfiles(42)
	var static *Profile
	for i := range profiles {
		if profiles[i].Kind == elff.KindStatic && profiles[i].Class == FailNone {
			static = &profiles[i]
			break
		}
	}
	if static == nil {
		t.Fatal("no static profile found")
	}
	bin, err := BuildProgram(*static)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Kind != elff.KindStatic || len(bin.Needed) != 0 || len(bin.Imports) != 0 {
		t.Fatalf("static binary shape: kind=%v needed=%v imports=%v",
			bin.Kind, bin.Needed, bin.Imports)
	}
	set := &Set{Libs: map[string]*elff.Binary{}}
	truth, err := set.groundTruth(bin, *static)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) < 5 {
		t.Fatalf("truth too small: %v", truth)
	}
}

func TestDebianProfileCounts(t *testing.T) {
	profiles := DebianProfiles(42)
	if len(profiles) != 557 {
		t.Fatalf("profiles: %d, want 557", len(profiles))
	}
	var static, dynamic, pie, unwind int
	classes := map[FailureClass]int{}
	for _, p := range profiles {
		if p.Kind == elff.KindStatic || p.StaticPIE {
			static++
		} else {
			dynamic++
			if p.HasUnwind {
				unwind++
			}
		}
		if p.StaticPIE {
			pie++
		}
		classes[p.Class]++
	}
	if static != 231 || dynamic != 326 {
		t.Fatalf("static=%d dynamic=%d", static, dynamic)
	}
	if pie != 4 {
		t.Fatalf("static-PIE: %d", pie)
	}
	if unwind != 108 {
		t.Fatalf("dynamic with unwind: %d, want 108", unwind)
	}
	want := map[FailureClass]int{
		FailNone: 223 + 4 + 214, FailCFG: 62 + 4, FailCFGHuge: 20,
		FailIdent: 17, FailWrapper: 13,
	}
	for k, v := range want {
		if classes[k] != v {
			t.Errorf("class %d: %d want %d", k, classes[k], v)
		}
	}
}

func TestStaticPIEIsSimple(t *testing.T) {
	profiles := DebianProfiles(42)
	for _, p := range profiles {
		if !p.StaticPIE {
			continue
		}
		bin, err := BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if bin.Kind != elff.KindDynamic {
			t.Fatalf("static-PIE must read back as dynamic (ET_DYN+entry), got %v", bin.Kind)
		}
		if len(bin.Needed) != 0 {
			t.Fatalf("static-PIE must have no dependencies: %v", bin.Needed)
		}
	}
}

// analyzeSupersetOf runs B-Side over bin and asserts truth is a subset
// of the identified set (no false negatives), returning the report.
func analyzeSupersetOf(t *testing.T, set *Set, bin *elff.Binary, p Profile) *shared.ProgramReport {
	t.Helper()
	truth, err := set.groundTruth(bin, p)
	if err != nil {
		t.Fatalf("%s: ground truth: %v", p.Name, err)
	}
	an := shared.NewAnalyzer(set.LoadLib, ident.Config{})
	rep, err := an.Program(bin)
	if err != nil {
		t.Fatalf("%s: analyze: %v", p.Name, err)
	}
	if rep.FailOpen {
		t.Fatalf("%s: fail-open", p.Name)
	}
	have := make(map[uint64]bool, len(rep.Syscalls))
	for _, n := range rep.Syscalls {
		have[n] = true
	}
	for _, n := range truth {
		if !have[n] {
			t.Errorf("%s: FALSE NEGATIVE: %d in truth but not identified", p.Name, n)
		}
	}
	return rep
}

func TestWrapperChainNoFalseNegatives(t *testing.T) {
	// The defining immediate sits WrapperDepth call frames above the
	// innermost wrapper's syscall; the backward search must cross every
	// forwarding frame to bound it.
	for _, depth := range []int{1, 2, 4} {
		p := Profile{
			Name: "chain", Kind: elff.KindStatic,
			HotDirect: 2, HotWrapper: 4, WrapperDepth: depth,
			ColdWrapper: 2, Filler: 10, Seed: int64(400 + depth),
		}
		bin, err := BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		set := &Set{Libs: map[string]*elff.Binary{}}
		rep := analyzeSupersetOf(t, set, bin, p)
		if len(rep.Main.Wrappers) == 0 {
			t.Errorf("depth %d: no wrapper detected", depth)
		}
	}
}

func TestTableHandlersNoFalseNegatives(t *testing.T) {
	// Table-invoked handlers: the target address only exists in a data
	// slot, so the data-pointer scan must pull the handler into the
	// precise CFG for its syscall to be identified.
	p := Profile{
		Name: "tables", Kind: elff.KindStatic,
		HotDirect: 2, Handlers: 1, TableHandlers: 3,
		Filler: 10, Seed: 77,
	}
	bin, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	set := &Set{Libs: map[string]*elff.Binary{}}
	analyzeSupersetOf(t, set, bin, p)
}

func TestOverlapSitesSound(t *testing.T) {
	// Each site's syscall is where two overlapping instruction streams
	// join, and the emulator executes it. The hidden stream's entry has
	// no predecessors, so the backward search cannot bound the value
	// along it and the analysis may honestly fail open; what it must
	// never do is lose the site.
	p := Profile{Name: "overlap", Kind: elff.KindStatic, OverlapSites: 2, Seed: 91}
	bin, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	set := &Set{Libs: map[string]*elff.Binary{}}
	truth, err := set.groundTruth(bin, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != 3 {
		t.Fatalf("truth %v: want both overlap sites plus exit", truth)
	}
	rep, err := shared.NewAnalyzer(set.LoadLib, ident.Config{}).Program(bin)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailOpen {
		return
	}
	have := make(map[uint64]bool, len(rep.Syscalls))
	for _, n := range rep.Syscalls {
		have[n] = true
	}
	for _, n := range truth {
		if !have[n] {
			t.Errorf("FALSE NEGATIVE: %d in truth but not identified", n)
		}
	}
}

func TestGraphLibDAG(t *testing.T) {
	for i := 0; i < NumGraphLibs; i++ {
		needs := GraphLibNeeds(i)
		if i == 0 && len(needs) != 0 {
			t.Fatalf("libg00 must be a leaf: %v", needs)
		}
		seen := map[string]bool{}
		for _, n := range needs {
			if seen[n] {
				t.Fatalf("libg%02d: duplicate need %s", i, n)
			}
			seen[n] = true
			var j int
			if _, err := fmt.Sscanf(n, "libg%02d.so", &j); err != nil || j >= i {
				t.Fatalf("libg%02d: edge must point at a lower index: %s", i, n)
			}
		}
	}
	// Deterministic bytes.
	a, err := BuildGraphLib(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildGraphLib(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatal("graph lib generation must be deterministic")
	}
}

func TestGraphLibClosureNoFalseNegatives(t *testing.T) {
	// Linking the deepest graph lib pulls its whole DT_NEEDED DAG into
	// the load closure; both the emulator walk and the analyzer's
	// dependency closure must traverse it.
	set, err := NewLibrarySet()
	if err != nil {
		t.Fatal(err)
	}
	p := Profile{
		Name: "graphy", Kind: elff.KindDynamic,
		HotDirect: 3, HotWrapper: 2, HotLibc: 3,
		UseLibcWrapper: true, GraphLibs: []int{NumGraphLibs - 1, 2},
		Filler: 10, Seed: 88,
	}
	bin, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range bin.Needed {
		if n == GraphLibName(NumGraphLibs-1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("graph lib not linked: %v", bin.Needed)
	}
	analyzeSupersetOf(t, set, bin, p)
}
