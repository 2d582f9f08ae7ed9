// Package corpus synthesizes the evaluation workloads: six
// application-shaped binaries standing in for the paper's Redis, Nginx,
// HAProxy, Memcached, Lighttpd and SQLite (§5.1), and a 557-binary
// Debian-shaped set (231 static + 326 dynamic executables + shared
// libraries, §5.2). Every binary is real x86-64 machine code in a real
// ELF container, deterministic from a seed, executable under the
// emulator (which provides the strace-equivalent dynamic ground truth)
// and analyzable by B-Side and both baselines.
//
// The corpus encodes the phenomena the paper evaluates:
//
//   - hot paths (executed by the emulator) vs cold paths (statically
//     reachable, dynamically dormant — the honest source of static
//     false positives);
//   - syscall numbers materialized in the same block, across blocks
//     beyond Chestnut's 30-instruction window, and through stack
//     memory (Figure 1 A/B/C);
//   - register- and stack-parameter syscall wrappers (Figure 2 B),
//     including the wrapper exported by the synthetic libc;
//   - function-pointer handlers feeding the active-address-taken
//     machinery;
//   - failure classes that organically exhaust each analysis phase's
//     budget (giant code for CFG recovery, fork bombs for
//     identification, opaque mega-wrappers for wrapper detection),
//     reproducing Table 2's success/failure split.
package corpus

import (
	"math/rand"

	"bside/internal/elff"
)

// hotPool holds plausible "commonly used" syscall numbers hot paths
// draw from.
var hotPool = []uint64{
	0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20,
	21, 22, 23, 28, 32, 33, 35, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48,
	49, 50, 51, 52, 53, 54, 55, 56, 57, 61, 63, 72, 73, 74, 78, 79,
	80, 82, 83, 87, 89, 96, 97, 98, 99, 102, 104, 107, 108, 110, 112,
	157, 158, 186, 201, 202, 218, 228, 232, 233, 234, 257, 262,
	270, 271, 273, 281, 283, 288, 290, 291, 292, 293, 302, 318,
}

// Note: exit (60) and exit_group (231) are deliberately absent from the
// pools — the emulator stops at the first one, which would truncate the
// ground truth. Every program emits its exit site explicitly at the
// end.

// coldPool holds rarer numbers that typically sit on error/maintenance
// paths.
var coldPool = []uint64{
	6, 24, 25, 26, 27, 29, 30, 31, 34, 36, 37, 38, 59, 62, 64, 65, 66,
	67, 68, 69, 70, 71, 75, 76, 77, 81, 84, 85, 86, 88, 90, 91, 92, 93,
	94, 95, 100, 101, 103, 105, 106, 109, 111, 113, 114, 115, 116, 117,
	118, 119, 120, 121, 122, 123, 124, 125, 126, 130, 131, 132, 133,
	136, 137, 138, 140, 141, 149, 150, 151, 152, 160, 161, 165, 217,
	219, 221, 222, 223, 226, 227, 229, 230, 247, 248, 249, 250, 251,
	252, 253, 254, 255, 258, 259, 260, 263, 264, 265, 266, 267, 268,
	269, 275, 276, 277, 278, 282, 284, 285, 286, 287, 289, 294, 295,
	296, 299, 306, 307, 309, 316, 317, 319, 322, 332,
}

// deniedPool draws from Chestnut's fallback denylist (see
// baseline.ChestnutFallback): values here push Chestnut's count above
// its 270-entry fallback set, reproducing the ">268" behaviour.
var deniedPool = []uint64{154, 155, 175, 205, 206, 209, 240, 244, 246, 250, 254}

// FailureClass tags binaries engineered to exhaust a specific analysis
// phase (Table 2 failure modelling; percentages follow §5.2).
type FailureClass uint8

// Failure classes.
const (
	// FailNone is a well-behaved binary.
	FailNone FailureClass = iota
	// FailCFG carries enough decoy code to exhaust the disassembly
	// budget (73% of the paper's timeouts).
	FailCFG
	// FailCFGHuge is FailCFG at a size that also exhausts the more
	// generous baseline budgets (Chestnut's 20 dynamic failures).
	FailCFGHuge
	// FailIdent embeds fork ladders ahead of wrapper call sites so the
	// identification search explodes (15%).
	FailIdent
	// FailWrapper embeds an opaque mega-wrapper that exhausts the
	// wrapper-detection phase (12%).
	FailWrapper
)

// Profile parameterizes one synthesized binary.
type Profile struct {
	Name string
	Kind elff.Kind
	// StaticPIE marks the static-PIE oddballs: ET_DYN without imports,
	// counted as "static" in Table 2 but loadable by the baselines.
	StaticPIE bool
	// HasUnwind controls the .bside.unwind marker (SysFilter's gate).
	HasUnwind bool

	// Hot-path composition (executed by the emulator).
	HotDirect  int // plain sites, patterns A/B/C
	HotWrapper int // calls to the local or libc register wrapper
	HotStack   int // calls to the local Go-style stack wrapper
	Handlers   int // function-pointer handlers with one site each
	// TableHandlers adds function-pointer handlers invoked through
	// their global data slot (mov reg, [rip+slot]; call reg) instead of
	// a materialized address — the indirect-call shape whose targets
	// only the data-pointer scan can surface.
	TableHandlers int
	// TableSection places the handler slot table in a named data
	// section: "" (legacy — anonymous data, no section metadata),
	// "rodata" (.rodata, read-only), "relro" (.data.rel.ro, read-only
	// after relocation, every slot covered by a RELATIVE reloc), or
	// "data" (writable .data — provenance must NOT trust it).
	TableSection string
	// TablePacked prefixes the slot table with a 4-byte field so the
	// 8-byte slots land on 4-mod-8 addresses — the packed-table layout
	// that exposed the stride-8 data-scan blindness.
	TablePacked bool
	// ColdHandlers adds syscall-bearing handlers whose pointers sit in
	// table slots no call site ever loads: address-taken decoys that
	// only data provenance can rule out. Their values come from the
	// cold pool and never reach the dynamic ground truth, so excluding
	// them is pure precision.
	ColdHandlers int
	// SigDecoys adds lea-address-taken decoy handlers that read an
	// argument register before writing it. They are only prunable at
	// the argument-less entry-top dispatch site this knob also emits
	// (sig_slot is writable, so provenance alone cannot narrow that
	// site) — the call-signature layer's workload. Cold values, never
	// executed.
	SigDecoys int
	// WrapperDepth routes HotWrapper/ColdWrapper calls through a chain
	// of that many argument-forwarding intermediate wrappers before the
	// local register wrapper's syscall: the backward search must walk
	// the whole chain, one caller layer at a time, to bound the value.
	// 0 keeps the direct local/libc wrapper call.
	WrapperDepth int
	// HotDeep adds sites whose defining immediate sits DeepBlocks basic
	// blocks above the syscall: the backward search must walk that many
	// predecessor layers, re-seeding directed symbolic execution each
	// layer, so identification cost grows quadratically with the
	// distance while decode cost grows linearly. This is the workload
	// shape — large straight-line functions, unrolled interpreters —
	// where the identification phase dwarfs CFG recovery and
	// intra-binary parallelism pays.
	HotDeep int
	// DeepBlocks is the block distance of HotDeep sites (0 = 24).
	DeepBlocks int
	// OverlapSites adds hot sites whose syscall follows an instruction
	// that hides another in its immediate bytes. A function symbol
	// marks the hidden instruction, so recovery decodes both
	// overlapping streams, and both fall through into the syscall:
	// the join is a block boundary that address order alone does not
	// reveal. No standard profile sets it.
	OverlapSites int

	// Cold-path composition (statically reachable only).
	ColdDirect  int
	ColdWrapper int

	// DeniedVals is how many hot values are drawn from Chestnut's
	// denylist (pushes its result above the fallback set).
	DeniedVals int
	// StackedTruth is how many hot direct sites use the
	// through-the-stack pattern (Figure 1 C — Chestnut/SysFilter lose
	// these).
	StackedTruth int

	// Libc usage (dynamic binaries only).
	HotLibc  int // imported libc functions called on the hot path
	ColdLibc int
	// ExtraLibs is how many additional shared libraries are linked.
	ExtraLibs int
	// GraphLibs lists graph-library indices (0..NumGraphLibs-1) to link
	// as DT_NEEDED dependencies. Graph libraries depend on each other
	// (GraphLibNeeds), so linking one pulls a transitive dependency DAG
	// into the load closure — the random library-graph workload.
	GraphLibs []int
	// UseLibcWrapper routes wrapper calls through the imported libc
	// syscall() instead of a local wrapper.
	UseLibcWrapper bool

	// Failure engineering.
	Class FailureClass

	// Filler scales padding instructions between definition and use.
	Filler int

	// Seed for this binary's private RNG stream.
	Seed int64
}

// AppProfiles returns the six application stand-ins used for Figure 7,
// Table 1, Table 3 and Table 4. The knobs were chosen so the measured
// tool relationships land where the paper's do: ground truth in the
// 45-85 range, B-Side overestimating by roughly half of the truth (F1
// around 0.8), SysFilter dominated by whole-libc false positives plus
// wrapper false negatives (F1 near 0.5), and Chestnut falling back to
// its permissive set (F1 near 0.3).
func AppProfiles() []Profile {
	apps := []struct {
		name                  string
		direct, wrap, stack   int
		handlers, cold, coldW int
		hotLibc, coldLibc     int
	}{
		{"redis", 16, 8, 4, 4, 16, 4, 24, 8},
		{"nginx", 14, 7, 3, 4, 14, 4, 22, 7},
		{"haproxy", 13, 6, 3, 3, 13, 3, 20, 7},
		{"memcached", 12, 5, 3, 3, 11, 3, 18, 6},
		{"lighttpd", 11, 5, 2, 2, 10, 3, 17, 5},
		{"sqlite", 9, 4, 2, 2, 8, 2, 13, 4},
	}
	out := make([]Profile, 0, len(apps))
	for i, a := range apps {
		out = append(out, Profile{
			Name:           a.name,
			Kind:           elff.KindDynamic,
			HasUnwind:      true,
			HotDirect:      a.direct,
			HotWrapper:     a.wrap,
			HotStack:       a.stack,
			Handlers:       a.handlers,
			ColdDirect:     a.cold,
			ColdWrapper:    a.coldW,
			DeniedVals:     3,
			StackedTruth:   2,
			HotLibc:        a.hotLibc,
			ColdLibc:       a.coldLibc,
			UseLibcWrapper: true,
			Filler:         40,
			Seed:           int64(1000 + i),
		})
	}
	return out
}

// DebianProfiles returns the 557 profiles of the Debian-shaped corpus:
// 231 static (223 plain + 4 CFG-failure giants + 4 static-PIE) and 326
// dynamic (214 well-behaved + 62 FailCFG + 20 FailCFGHuge + 17
// FailIdent + 13 FailWrapper), with unwind info on exactly 108 dynamic
// binaries (none of them failure-engineered), reproducing Table 2's
// marginals.
func DebianProfiles(seed int64) []Profile {
	rng := rand.New(rand.NewSource(seed))
	var out []Profile

	// --- static executables (231) ---
	for i := 0; i < 223; i++ {
		scale := 0.4 + rng.Float64()*1.4
		out = append(out, Profile{
			Name:         nameFor("static", i),
			Kind:         elff.KindStatic,
			HotDirect:    scaled(12, scale),
			HotWrapper:   scaled(4, scale),
			HotStack:     scaled(2, scale),
			Handlers:     1 + rng.Intn(2),
			ColdDirect:   scaled(8, scale),
			ColdWrapper:  scaled(3, scale),
			StackedTruth: 1,
			Filler:       30,
			Seed:         rng.Int63(),
		})
	}
	for i := 0; i < 4; i++ { // B-Side's 4 static failures
		out = append(out, Profile{
			Name:       nameFor("static-giant", i),
			Kind:       elff.KindStatic,
			HotDirect:  10,
			HotWrapper: 3,
			ColdDirect: 5,
			Class:      FailCFG,
			Filler:     30,
			Seed:       rng.Int63(),
		})
	}
	for i := 0; i < 4; i++ { // static-PIE: loadable by the baselines
		out = append(out, Profile{
			Name:      nameFor("static-pie", i),
			Kind:      elff.KindShared, // ET_DYN; entry set at build time
			StaticPIE: true,
			HasUnwind: i == 0, // exactly one passes SysFilter's gate
			HotDirect: 24 + rng.Intn(6),
			Filler:    8,
			Seed:      rng.Int63(),
		})
	}

	// --- dynamic executables (326) ---
	mkDyn := func(name string, class FailureClass, unwind bool, scale float64, rng *rand.Rand) Profile {
		p := Profile{
			Name:           name,
			Kind:           elff.KindDynamic,
			HasUnwind:      unwind,
			HotDirect:      scaled(9, scale),
			HotWrapper:     scaled(4, scale),
			HotStack:       scaled(2, scale),
			Handlers:       1 + rng.Intn(3),
			ColdDirect:     scaled(7, scale),
			ColdWrapper:    scaled(2, scale),
			DeniedVals:     2,
			StackedTruth:   1,
			HotLibc:        scaled(14, scale),
			ColdLibc:       scaled(4, scale),
			ExtraLibs:      rng.Intn(3),
			UseLibcWrapper: true,
			Class:          class,
			Filler:         35,
			Seed:           rng.Int63(),
		}
		if class == FailIdent {
			// Keep every plain site phase-1 resolvable so the binary
			// survives wrapper detection and dies precisely in the
			// identification search (the paper's 15% class).
			p.StackedTruth = 0
			p.HotStack = 0
		}
		return p
	}
	n := 0
	add := func(count int, class FailureClass, unwind bool) {
		for i := 0; i < count; i++ {
			scale := 0.15 + rng.Float64()*1.9
			out = append(out, mkDyn(nameFor("dyn", n), class, unwind, scale, rng))
			n++
		}
	}
	add(108, FailNone, true)  // SysFilter's dynamic successes
	add(106, FailNone, false) // well-behaved, no unwind
	add(62, FailCFG, false)
	add(20, FailCFGHuge, false)
	add(17, FailIdent, false)
	add(13, FailWrapper, false)

	return out
}

func scaled(base int, f float64) int {
	v := int(float64(base)*f + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

func nameFor(prefix string, i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return prefix + "-" + string(letters[i%26]) + string(letters[(i/26)%26]) + string('0'+rune(i%10))
}

// LargeBinaryProfile is the shared large-binary workload shape: one
// static binary dominated by deep backward-search sites. The
// whole-analysis benchmark (BenchmarkAnalyzeLargeBinary), the
// frontend-only benchmark (BenchmarkRecoverLargeBinary) and the CFG
// recovery allocation-ceiling test all build exactly this profile, so
// their numbers describe the same binary — tune it here, not in the
// call sites.
func LargeBinaryProfile() Profile {
	return Profile{
		Name: "large", Kind: elff.KindStatic,
		HotDirect: 16, HotWrapper: 6, HotStack: 3, Handlers: 4,
		HotDeep: 40, DeepBlocks: 48,
		ColdDirect: 12, ColdWrapper: 4, StackedTruth: 2,
		Filler: 40, Seed: 77,
	}
}
