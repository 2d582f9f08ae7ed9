package corpus

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"bside/internal/asm"
	"bside/internal/elff"
	"bside/internal/x86"
)

// emission is one syscall-producing site to synthesize.
type emission struct {
	value   uint64
	pattern pattern
	hot     bool
}

type pattern uint8

const (
	patSameBlock    pattern = iota + 1 // Figure 1 A
	patCrossBlock                      // Figure 1 B (beyond Chestnut's window when filler > 30)
	patStack                           // Figure 1 C
	patWrapper                         // register wrapper call
	patStackWrapper                    // stack-parameter wrapper call
	patHandler                         // via function pointer
	patDeep                            // Figure 1 B at DeepBlocks block distance
	patOverlap                         // syscall joined by overlapping instruction streams
)

// builder synthesizes one program.
type builder struct {
	p          Profile
	rng        *rand.Rand
	b          *asm.Builder
	dynamic    bool // imports libc
	imports    []string
	neededLibs []string
	wrappers   struct {
		localReg   bool
		localStack bool
		// chainDepth is the deepest wrapper chain referenced by a call
		// site; emitHelpers materializes wrap_chain_1..chainDepth.
		chainDepth int
	}
	fillN int

	// Decoy-handler value plans (see Profile.ColdHandlers / SigDecoys).
	sigVal          uint64
	coldHandlerVals []uint64
	sigDecoyVals    []uint64

	// overlapVals holds the value of each OverlapSites helper, in call
	// order.
	overlapVals []uint64
}

// BuildProgram synthesizes the binary for a profile. extLibIdx selects
// the extra libraries (empty for none). The libc import list is derived
// from the profile's HotLibc/ColdLibc counts.
func BuildProgram(p Profile) (*elff.Binary, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	sb := &builder{
		p:       p,
		rng:     rng,
		b:       asm.New(),
		dynamic: p.Kind == elff.KindDynamic && !p.StaticPIE,
	}
	return sb.build()
}

func (s *builder) build() (*elff.Binary, error) {
	// Cold decoy handlers are "address-taken through data, never
	// invoked": without a single indirect site nothing wires them into
	// the CFG, which would leave dead syscall-bearing code that even the
	// resolver-off over-approximation cannot see (and the differential
	// scanner would flag). Such profiles normalize to none.
	if s.p.Handlers+s.p.TableHandlers+s.p.SigDecoys == 0 {
		s.p.ColdHandlers = 0
	}
	p := s.p
	b := s.b

	sigSite := 0
	if p.SigDecoys > 0 {
		sigSite = 1 // the entry-top dispatch through sig_slot
	}
	hotVals := s.pick(hotPool, p.HotDirect+p.HotWrapper+p.HotStack+p.Handlers+p.TableHandlers+p.HotDeep+sigSite+p.OverlapSites)
	coldVals := s.pick(coldPool, p.ColdDirect+p.ColdWrapper+p.ColdHandlers+p.SigDecoys)
	denied := s.pick(deniedPool, p.DeniedVals)
	// Decoy handlers draw from the tail of the cold plan; like the hot
	// plan, oversized requests recycle values, which only weakens the
	// measured shrink, never soundness.
	coldAt := func(i int) uint64 {
		if len(coldVals) == 0 {
			return coldPool[i%len(coldPool)]
		}
		return coldVals[i%len(coldVals)]
	}

	// Compose the emission plan. The value pool is finite; plans larger
	// than it (deep-search stress profiles) recycle values, which only
	// narrows the ground-truth set, never breaks it.
	var hotDirect, hotWrap, hotStackW, handlers, hotDeep, hotOverlap []emission
	idx := 0
	take := func(n int, pat pattern, hot bool) []emission {
		out := make([]emission, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, emission{value: hotVals[idx%len(hotVals)], pattern: pat, hot: hot})
			idx++
		}
		return out
	}
	hotDirect = take(p.HotDirect, patSameBlock, true)
	hotWrap = take(p.HotWrapper, patWrapper, true)
	hotStackW = take(p.HotStack, patStackWrapper, true)
	handlers = take(p.Handlers+p.TableHandlers, patHandler, true)
	hotDeep = take(p.HotDeep, patDeep, true)
	hotOverlap = take(p.OverlapSites, patOverlap, true)
	if sigSite > 0 {
		s.sigVal = hotVals[idx%len(hotVals)]
		idx++
	}
	decoyBase := p.ColdDirect + p.ColdWrapper
	for i := 0; i < p.ColdHandlers; i++ {
		s.coldHandlerVals = append(s.coldHandlerVals, coldAt(decoyBase+i))
	}
	for i := 0; i < p.SigDecoys; i++ {
		s.sigDecoyVals = append(s.sigDecoyVals, coldAt(decoyBase+p.ColdHandlers+i))
	}

	// Pattern mix inside the direct sites: some cross-block beyond the
	// Chestnut window, some through the stack.
	for i := range hotDirect {
		switch {
		case i < p.StackedTruth:
			hotDirect[i].pattern = patStack
		case i%3 == 1 && !p.StaticPIE:
			hotDirect[i].pattern = patCrossBlock
		}
	}
	// Denied-range values: most direct (Chestnut resolves them on top
	// of its fallback), one through the wrapper when possible (a
	// Chestnut false negative).
	for i, v := range denied {
		if i == 0 && len(hotWrap) > 0 {
			hotWrap[0].value = v
			continue
		}
		hotDirect = append(hotDirect, emission{value: v, pattern: patSameBlock, hot: true})
	}

	var cold []emission
	coldSites := coldVals
	if n := p.ColdDirect + p.ColdWrapper; n < len(coldSites) {
		coldSites = coldSites[:n] // the tail belongs to the decoy handlers
	}
	for i, v := range coldSites {
		pat := patSameBlock
		if i >= p.ColdDirect {
			pat = patWrapper
		}
		cold = append(cold, emission{value: v, pattern: pat, hot: false})
	}

	// Libc usage plan.
	var hotLibc, coldLibc []string
	if s.dynamic {
		names := append([]string(nil), libcExportNames...)
		s.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		n := p.HotLibc
		if n > len(names) {
			n = len(names)
		}
		hotLibc = names[:n]
		m := p.ColdLibc
		if n+m > len(names) {
			m = len(names) - n
		}
		coldLibc = names[n : n+m]
		for i := 0; i < p.ExtraLibs; i++ {
			lib := s.rng.Intn(numExtLibs)
			exps := ExtLibExports(lib)
			hotLibc = append(hotLibc, exps[s.rng.Intn(len(exps))])
			s.importLib(extLibName(lib))
		}
		for _, g := range p.GraphLibs {
			g = ((g % NumGraphLibs) + NumGraphLibs) % NumGraphLibs
			exps := GraphLibExports(g)
			hotLibc = append(hotLibc, exps[s.rng.Intn(len(exps))])
			s.importLib(GraphLibName(g))
		}
	}

	// ---- code ----
	b.Func("_start")
	b.Endbr64()
	b.SubRegImm(x86.RSP, 64)

	// Entry-top dispatch: before any call instruction, no argument
	// register carries a deliberate value (System V leaves them
	// undefined at process entry), so a candidate that reads one cannot
	// be the intended target — the call-signature layer's one provably
	// safe pruning spot. The slot is writable on purpose: provenance
	// must fall back here, leaving the site to the signature layer.
	if p.SigDecoys > 0 {
		b.MovRegMemRIP(x86.R13, "sig_slot")
		b.CallReg(x86.R13)
	}

	// Split hot work into init / loop / shutdown segments so phase
	// detection has temporal structure (§5.4).
	all := make([]emission, 0, len(hotDirect)+len(hotWrap)+len(hotStackW)+len(hotDeep)+len(hotOverlap))
	all = append(all, hotDirect...)
	all = append(all, hotWrap...)
	all = append(all, hotStackW...)
	all = append(all, hotDeep...)
	all = append(all, hotOverlap...)
	s.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	third := len(all) / 3
	initSeg, loopSeg, downSeg := all[:third], all[third:2*third], all[2*third:]

	libcThird := len(hotLibc) / 3
	initLibc, loopLibc, downLibc := hotLibc[:libcThird], hotLibc[libcThird:2*libcThird], hotLibc[2*libcThird:]

	for _, e := range initSeg {
		s.emit(e)
	}
	for _, name := range initLibc {
		s.callImport(name)
	}

	// Serving loop: two concrete iterations.
	b.MovRegImm32(x86.R14, 2)
	b.Label("serve_loop")
	for _, e := range loopSeg {
		s.emit(e)
	}
	for _, name := range loopLibc {
		s.callImport(name)
	}
	for i := range handlers {
		if i < s.p.Handlers {
			b.Lea(x86.R13, fmt.Sprintf("handler_%d", i))
		} else {
			// Table-invoked: the pointer travels through its global
			// slot, so only the data-pointer scan ties the call site to
			// its target.
			b.MovRegMemRIP(x86.R13, fmt.Sprintf("handler_slot_%d", i))
		}
		b.CallReg(x86.R13)
	}
	b.DecReg(x86.R14)
	b.CmpRegImm(x86.R14, 0)
	b.Jcc(x86.CondNE, "serve_loop")

	for _, e := range downSeg {
		s.emit(e)
	}
	for _, name := range downLibc {
		s.callImport(name)
	}

	// CFG failure classes: address-take every decoy from the hot path
	// so the active-address-taken refinement pulls all of them into the
	// precise CFG in one round — where the disassembly budget dies.
	for d := 0; d < s.decoyCount(); d++ {
		b.Lea(x86.R13, fmt.Sprintf("decoy_%d", d))
	}
	// Signature decoys are lea-address-taken like any handler; only the
	// argument-signature check can keep them out of the entry-top site.
	for i := 0; i < p.SigDecoys; i++ {
		b.Lea(x86.R13, fmt.Sprintf("sig_decoy_%d", i))
	}

	// Cold section: statically reachable, dynamically skipped (the
	// config flag in the data section is fixed to 1).
	b.MovRegMemRIP(x86.RBX, "cold_flag")
	b.CmpRegImm(x86.RBX, 0)
	b.Jcc(x86.CondNE, "cold_skip")
	for _, e := range cold {
		s.emit(e)
	}
	for _, name := range coldLibc {
		s.callImport(name)
	}
	b.Label("cold_skip")

	// Exit.
	b.MovRegImm32(x86.RAX, 60)
	b.Syscall()
	b.Ret()

	s.emitHelpers(handlers)
	s.emitFailureClass()
	s.emitStubs()

	b.Label("__code_end")
	s.emitData(handlers)

	return s.finalize()
}

// pick samples n distinct values from pool.
func (s *builder) pick(pool []uint64, n int) []uint64 {
	if n > len(pool) {
		n = len(pool)
	}
	perm := s.rng.Perm(len(pool))
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = pool[perm[i]]
	}
	return out
}

// emit produces the code for one emission on the current path.
func (s *builder) emit(e emission) {
	b := s.b
	switch e.pattern {
	case patSameBlock:
		b.MovRegImm32(x86.RAX, uint32(e.value))
		b.Syscall()

	case patCrossBlock:
		b.MovRegImm32(x86.RAX, uint32(e.value))
		s.filler(s.p.Filler)
		b.Syscall()

	case patStack:
		b.MovMemImm32(x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 24}, int32(e.value))
		s.filler(6)
		b.MovRegMem(x86.RAX, x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 24})
		b.Syscall()

	case patDeep:
		// The defining immediate sits DeepBlocks basic blocks above the
		// syscall: jmp-next boundaries split the filler into a block
		// chain (no forks — the jumps are unconditional), so the
		// backward search pays one predecessor layer per block.
		b.MovRegImm32(x86.RAX, uint32(e.value))
		blocks := s.p.DeepBlocks
		if blocks <= 0 {
			blocks = 24
		}
		for i := 0; i < blocks; i++ {
			s.fillN++
			lbl := fmt.Sprintf("deep_%d", s.fillN)
			b.JmpLabel(lbl)
			b.Label(lbl)
			s.filler(4)
		}
		b.Syscall()

	case patWrapper:
		b.MovRegImm32(x86.RDI, uint32(e.value))
		if s.p.Class == FailIdent {
			// The ladder sits BETWEEN the number's definition and the
			// wrapper call: the backward search must cross it with
			// forward symbolic execution, which forks exponentially.
			s.forkLadder(18)
		}
		switch {
		case s.p.WrapperDepth > 0:
			// The number crosses WrapperDepth argument-forwarding
			// frames before the innermost wrapper's syscall.
			s.wrappers.localReg = true
			if s.p.WrapperDepth > s.wrappers.chainDepth {
				s.wrappers.chainDepth = s.p.WrapperDepth
			}
			b.CallLabel(fmt.Sprintf("wrap_chain_%d", s.p.WrapperDepth))
		case s.dynamic && s.p.UseLibcWrapper && s.p.Class != FailWrapper:
			s.callImport("syscall")
		default:
			s.wrappers.localReg = true
			b.CallLabel("local_syscall")
		}

	case patStackWrapper:
		s.wrappers.localStack = true
		b.SubRegImm(x86.RSP, 16)
		b.MovMemImm32(x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1}, int32(e.value))
		b.CallLabel("local_stack_syscall")
		b.AddRegImm(x86.RSP, 16)

	case patHandler:
		// Emitted separately as a function; nothing inline.

	case patOverlap:
		// The site lives in its own helper (see emitHelpers): its
		// hidden-instruction symbol would otherwise split _start.
		b.CallLabel(fmt.Sprintf("overlap_%d", len(s.overlapVals)))
		s.overlapVals = append(s.overlapVals, e.value)
	}
}

// filler emits k straight-line instructions that leave rax/rdi/rsp
// untouched. Straight-line on purpose: Chestnut's 30-instruction window
// is measured in instructions, not blocks, and branch-free padding
// keeps the symbolic searches from forking on data-independent jumps.
func (s *builder) filler(k int) {
	b := s.b
	for i := 0; i < k; i++ {
		switch s.rng.Intn(4) {
		case 0:
			b.Nop()
		case 1:
			b.IncReg(x86.R12)
		case 2:
			b.MovRegReg(x86.R13, x86.R12)
		case 3:
			b.AddRegImm(x86.R13, int32(s.rng.Intn(64)))
		}
	}
}

// forkLadder emits n sequential data-independent branches; directed
// symbolic execution crossing the ladder forks 2^n paths, which is the
// identification-phase failure class.
func (s *builder) forkLadder(n int) {
	b := s.b
	for i := 0; i < n; i++ {
		s.fillN++
		lbl := fmt.Sprintf("ladder_%d", s.fillN)
		b.CmpRegImm(x86.R12, int32(i))
		b.Jcc(x86.CondE, lbl)
		b.IncReg(x86.R13)
		b.Label(lbl)
	}
}

// emitHelpers writes the local wrappers and the handler functions.
func (s *builder) emitHelpers(handlers []emission) {
	b := s.b
	if s.wrappers.localReg || s.p.Class == FailWrapper {
		b.Func("local_syscall")
		b.Endbr64()
		if s.p.Class == FailWrapper {
			// Opaque mega-wrapper: a long branch ladder between entry
			// and site blows up wrapper detection's phase 2.
			s.forkLadder(22)
		}
		b.MovRegReg(x86.RAX, x86.RDI)
		b.Syscall()
		b.Ret()
	}
	// Wrapper chains: wrap_chain_d forwards its untouched %rdi one
	// frame down; only the innermost local_syscall holds the syscall
	// instruction, so the backward search crosses every frame to find
	// the defining immediate in the original caller.
	for d := 1; d <= s.wrappers.chainDepth; d++ {
		b.Func(fmt.Sprintf("wrap_chain_%d", d))
		b.Endbr64()
		if d == 1 {
			b.CallLabel("local_syscall")
		} else {
			b.CallLabel(fmt.Sprintf("wrap_chain_%d", d-1))
		}
		b.Ret()
	}
	if s.wrappers.localStack {
		b.Func("local_stack_syscall")
		b.Endbr64()
		b.MovRegMem(x86.RAX, x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1, Disp: 8})
		b.Syscall()
		b.Ret()
	}
	for i, h := range handlers {
		b.Func(fmt.Sprintf("handler_%d", i))
		b.Endbr64()
		b.MovRegImm32(x86.RAX, uint32(h.value))
		b.Syscall()
		b.XorRegReg32(x86.RAX, x86.RAX)
		b.Ret()
	}
	if s.p.SigDecoys > 0 {
		// The one target the entry-top site really calls: reads no
		// argument registers, so the signature layer keeps it.
		b.Func("sig_handler")
		b.Endbr64()
		b.MovRegImm32(x86.RAX, uint32(s.sigVal))
		b.Syscall()
		b.XorRegReg32(x86.RAX, x86.RAX)
		b.Ret()
	}
	for i, v := range s.sigDecoyVals {
		// Reads arg register 6 before any write: incompatible with a
		// call site that provides no arguments.
		b.Func(fmt.Sprintf("sig_decoy_%d", i))
		b.Endbr64()
		b.MovRegReg(x86.RBX, x86.R9)
		b.MovRegImm32(x86.RAX, uint32(v))
		b.Syscall()
		b.Ret()
	}
	for i, v := range s.coldHandlerVals {
		b.Func(fmt.Sprintf("cold_handler_%d", i))
		b.Endbr64()
		b.MovRegImm32(x86.RAX, uint32(v))
		b.Syscall()
		b.Ret()
	}
	for i, v := range s.overlapVals {
		// mov ecx, imm32 whose last three immediate bytes encode
		// mov rbx, rax: executed, the helper runs mov eax; mov ecx;
		// syscall. The overlap_hidden symbol makes a disassembler
		// decode the hidden stream too, and both streams fall into
		// the syscall.
		b.Func(fmt.Sprintf("overlap_%d", i))
		b.Endbr64()
		b.MovRegImm32(x86.RAX, uint32(v))
		b.Raw(0xB9, 0x90)
		b.Func(fmt.Sprintf("overlap_hidden_%d", i))
		b.Raw(0x48, 0x89, 0xC3)
		b.Syscall()
		b.Ret()
	}
}

// decoyInsns is the exact instruction count of one decoy body: 144
// pattern slots where every fourth emits a three-instruction branch
// (36*6 = 216) plus the final ret.
const decoyInsns = 217

// decoyCount sizes the CFG-failure decoy code: the well-behaved corpus
// decodes a few thousand instructions, the evaluation's disassembly
// budget sits at 40k, Chestnut's at 60k — so ~45k-instruction decoys
// fail only B-Side's budget and ~90k fail Chestnut's too.
func (s *builder) decoyCount() int {
	switch s.p.Class {
	case FailCFG:
		return 45_000 / decoyInsns
	case FailCFGHuge:
		return 90_000 / decoyInsns
	default:
		return 0
	}
}

// emitFailureClass appends the decoy function bodies of the CFG failure
// classes; each body is ~150 instructions of branchy filler. Their
// addresses are taken on the hot path (see build), which is what drags
// them into the precise CFG — 73% of the paper's timeouts happen during
// CFG construction, and this reproduces that failure mode organically.
func (s *builder) emitFailureClass() {
	n := s.decoyCount()
	b := s.b
	for d := 0; d < n; d++ {
		b.Func(fmt.Sprintf("decoy_%d", d))
		for i := 0; i < 144; i++ {
			switch i % 4 {
			case 0:
				b.IncReg(x86.R12)
			case 1:
				b.Nop()
			case 2:
				s.fillN++
				lbl := fmt.Sprintf("dc_%d", s.fillN)
				b.CmpRegImm(x86.R12, 1)
				b.Jcc(x86.CondNE, lbl)
				b.DecReg(x86.R12)
				b.Label(lbl)
			case 3:
				b.MovRegReg(x86.R13, x86.R12)
			}
		}
		b.Ret()
	}
}

// emitStubs writes PLT-style stubs and GOT slots for every import.
func (s *builder) emitStubs() {
	b := s.b
	for _, name := range s.imports {
		b.Func("stub_" + name)
		b.JmpMemRIP("got_" + name)
	}
}

// emitData writes the data region: cold flag, handler table, GOT slots.
func (s *builder) emitData(handlers []emission) {
	b := s.b
	b.Align(8)
	b.Label("cold_flag")
	b.Quad(1)
	if s.p.TablePacked {
		// A 4-byte field ahead of the table packs the 8-byte slots to
		// 4-mod-8 addresses — the layout the stride-8 scan missed.
		b.Raw(0xEE, 0xEE, 0xEE, 0xEE)
	}
	b.Label("table_start")
	for i := range handlers {
		b.Label(fmt.Sprintf("handler_slot_%d", i))
		b.QuadLabel(fmt.Sprintf("handler_%d", i))
	}
	for i := range s.coldHandlerVals {
		// Slots no site ever loads: address-taken evidence without a
		// caller.
		b.Label(fmt.Sprintf("cold_slot_%d", i))
		b.QuadLabel(fmt.Sprintf("cold_handler_%d", i))
	}
	b.Label("table_end")
	b.Align(8)
	if s.p.SigDecoys > 0 {
		b.Label("sig_slot")
		b.QuadLabel("sig_handler")
	}
	for _, name := range s.imports {
		b.Label("got_" + name)
		b.Quad(0)
	}
}

// callImport emits a call to an imported function's stub, registering
// the import on first use.
func (s *builder) callImport(name string) {
	s.registerImport(name)
	s.b.CallLabel("stub_" + name)
}

func (s *builder) registerImport(name string) {
	for _, im := range s.imports {
		if im == name {
			return
		}
	}
	s.imports = append(s.imports, name)
}

func (s *builder) importLib(lib string) {
	for _, l := range s.neededLibs {
		if l == lib {
			return
		}
	}
	s.neededLibs = append(s.neededLibs, lib)
}

func (s *builder) finalize() (*elff.Binary, error) {
	p := s.p
	img, syms, err := s.b.Finalize(mainBase)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", p.Name, err)
	}
	kind := elff.KindStatic
	if p.Kind == elff.KindDynamic || p.StaticPIE {
		kind = elff.KindDynamic
	}
	spec := elff.Spec{
		Kind:      kind,
		Base:      mainBase,
		Entry:     syms["_start"],
		Blob:      img,
		CodeSize:  syms["__code_end"] - mainBase,
		HasUnwind: p.HasUnwind,
		Symbols:   funcSyms(s.b, syms),
	}
	if p.TableSection != "" {
		if start, end := syms["table_start"], syms["table_end"]; end > start {
			name, writable := ".rodata", false
			switch p.TableSection {
			case "relro":
				name = ".data.rel.ro"
			case "data":
				name, writable = ".data", true
			}
			spec.DataSections = append(spec.DataSections, elff.DataSection{
				Name: name, Addr: start, Size: end - start, Writable: writable,
			})
			if p.TableSection == "relro" {
				// RELRO tables are populated by the dynamic linker; each
				// slot gets the RELATIVE reloc a real linker would emit.
				for slot := start; slot+8 <= end; slot += 8 {
					t := binary.LittleEndian.Uint64(img[slot-mainBase:])
					spec.Relocs = append(spec.Relocs, elff.Reloc{Slot: slot, Target: t})
				}
			}
		}
	}
	if s.dynamic {
		spec.Needed = append([]string{"libc.so.6"}, s.neededLibs...)
	}
	for _, name := range s.imports {
		spec.Imports = append(spec.Imports, elff.Import{
			Name:     name,
			SlotAddr: syms["got_"+name],
		})
	}
	return writeRead(spec)
}
