// Per-function summary memoization: the content-addressed fast path of
// the identification pass. Two analyses of byte-identical functions do
// byte-identical work, so the work is done once per process — and, when
// a persistent store is attached, once per machine — with the results
// keyed by a fingerprint of everything the analysis can observe.
//
// Soundness model. A memo entry may be reused only when the recorded
// computation was a pure function of the fingerprinted content:
//
//   - Wrapper detection is confined to the containing function by
//     construction (the use-define scan filters to in-function
//     predecessors; the symbolic confirmation restricts execution to the
//     function's own blocks, with out-of-set calls havocked identically
//     whatever they target), so every verdict is memoizable.
//   - The per-site backward search crosses function boundaries through
//     caller edges, so a site result is memoized only when the whole
//     search — every visited frontier block and every predecessor it
//     enumerated — stayed inside the containing function (tracked by
//     the search itself; the common Figure 1-A case, a defining
//     immediate next to its syscall, always qualifies).
//   - Results whose shape was influenced by the shared symbolic budget
//     (a HitBudget fail-open) are never stored: budget state is global
//     mutable context, not function content.
//
// The fingerprint covers the function's block addresses, decoded
// instructions, import-call labels and intra-function edges, plus every
// Config knob that can alter a function-local result. Absolute
// addresses are part of the key: two functions hit the same entry only
// when they are byte-identical *and* identically placed — exactly the
// shape of shared stubs and duplicated bodies across a corpus family or
// a batch of binaries stamped from one layout.
package ident

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bside/internal/cache"
	"bside/internal/cfg"
	"bside/internal/symex"
	"bside/internal/x86"
)

// memoKind is the cache-store partition for persisted function
// summaries, living alongside the "interface" and "program" entries.
const memoKind = "funcsum"

// maxMemoEntries bounds the process-wide in-memory memo. The cap is a
// backstop against unbounded growth in fleet-sized runs; entries are
// content-addressed, so refusing to add one never changes results —
// only the speed of the next identical function.
const maxMemoEntries = 1 << 18

// persistMinBlocks gates which site records reach the on-disk store: a
// search that executed fewer blocks than this is cheaper to redo than
// storing and indexing its record, so only the expensive searches — deep
// backward walks, wide wrapper fan-outs — pay the I/O. The gate is a
// deterministic function of the (deterministic) block count, so the
// disk tier stays content-consistent. In-memory memoization is not
// gated; it is cheap at any size.
const persistMinBlocks = 16

// Memo is a concurrency-safe, content-addressed store of per-function
// analysis results. The zero value is ready to use. One process-wide
// instance (ProcessMemo) is shared by every analyzer so identical
// functions are analyzed once per process; a cache.Store passed per
// lookup (Config.MemoStore) additionally persists entries across
// processes, alongside the shared-interface entries.
type Memo struct {
	entries sync.Map // memo key -> wrapperRec | siteRec
	size    atomic.Int64
	hits    atomic.Uint64
	misses  atomic.Uint64
}

var processMemo Memo

// ProcessMemo returns the process-wide function-summary memo.
func ProcessMemo() *Memo { return &processMemo }

// MemoStats is a snapshot of memo traffic.
type MemoStats struct {
	// Hits counts lookups served from memory or the persistent store.
	Hits uint64
	// Misses counts lookups that had to run the real analysis.
	Misses uint64
	// Entries is the current in-memory entry count.
	Entries int64
}

// Stats returns the memo's counters.
func (m *Memo) Stats() MemoStats {
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: m.size.Load()}
}

// wrapperRec is the persisted form of one wrapper-detection verdict.
// Steps/Forks are the original computation's budget consumption,
// replayed into the shared budget on every hit so memoized and
// unmemoized analyses drain it identically (a tight budget must
// exhaust at the same point in both modes).
type wrapperRec struct {
	Wrapper bool           `json:"wrapper,omitempty"`
	Param   symex.ParamRef `json:"param,omitempty"`
	Steps   int            `json:"steps,omitempty"`
	Forks   int            `json:"forks,omitempty"`
}

// siteRec is the persisted form of one self-contained site
// identification. Steps/Forks replay like wrapperRec's.
type siteRec struct {
	Syscalls []uint64 `json:"syscalls,omitempty"`
	FailOpen bool     `json:"fail_open,omitempty"`
	Blocks   int      `json:"blocks,omitempty"` // symbolically executed blocks
	Steps    int      `json:"steps,omitempty"`
	Forks    int      `json:"forks,omitempty"`
}

// storeKey renders a memo key as a cache-store key: the store wants a
// path-safe content hash, and the memo key already is content — so its
// digest is the address.
func storeKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// load fetches the entry for key into out (a *wrapperRec or *siteRec),
// first from memory, then from st when one is configured.
func (m *Memo) load(key string, st *cache.Store, out any) bool {
	if m == nil {
		return false
	}
	if v, ok := m.entries.Load(key); ok {
		m.hits.Add(1)
		switch rec := v.(type) {
		case wrapperRec:
			*out.(*wrapperRec) = rec
		case siteRec:
			*out.(*siteRec) = rec
		}
		return true
	}
	if st != nil {
		if st.Load(memoKind, storeKey(key), "", out) {
			m.hits.Add(1)
			// Promote to memory so the disk round trip is paid once.
			m.remember(key, recValue(out))
			return true
		}
	}
	m.misses.Add(1)
	return false
}

func recValue(out any) any {
	switch rec := out.(type) {
	case *wrapperRec:
		return *rec
	case *siteRec:
		return *rec
	}
	return nil
}

// save records a freshly computed entry in memory and, when a store is
// configured, on disk.
func (m *Memo) save(key string, st *cache.Store, rec any) {
	if m == nil {
		return
	}
	m.remember(key, rec)
	if st != nil {
		// Best-effort, like every other cache write.
		_ = st.Store(memoKind, storeKey(key), "", rec)
	}
}

func (m *Memo) remember(key string, rec any) {
	if rec == nil || m.size.Load() >= maxMemoEntries {
		return
	}
	if _, loaded := m.entries.LoadOrStore(key, rec); !loaded {
		m.size.Add(1)
	}
}

// memoConfKey canonically renders every Config field that can change a
// function-local result. Workers is excluded (it never changes
// results); the budget's deadline is excluded (wall-clock state, and
// budget-shaped results are never stored).
func memoConfKey(c Config) string {
	return fmt.Sprintf("bfs=%d,fr=%d,sp=%d,up=%d,rl=%d,bud=%d/%d/%d",
		c.MaxBFSDepth, c.MaxFrontier, c.StackParams, c.SyscallUpper,
		c.ResolverLayers,
		c.Budget.MaxSteps, c.Budget.MaxForks, c.Budget.MaxVisits)
}

// funcFingerprint hashes everything a function-confined analysis can
// observe: entry, per-block addresses, import-call labels, decoded
// instructions (all operand fields), and the intra-function successor
// edges in their original order (edge targets outside the function are
// omitted — a confined search treats "edge out of the set" and "no
// edge" identically). Preds within the function mirror the encoded
// succs; preds from outside the function disqualify a site from
// memoization before the hash matters.
func funcFingerprint(fn *cfg.Func) string {
	h := sha256.New()
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	inFn := func(b *cfg.Block) bool {
		return b.Addr >= fn.Entry && b.Addr < fn.End() && blockInFunc(fn, b)
	}
	putOp := func(op x86.Operand) {
		h.Write([]byte{byte(op.Kind), byte(op.Reg)})
		putU64(uint64(op.Imm))
		h.Write([]byte{byte(op.Mem.Base), byte(op.Mem.Index), op.Mem.Scale})
		putU64(uint64(int64(op.Mem.Disp)))
	}
	putU64(fn.Entry)
	putU64(uint64(len(fn.Blocks)))
	for _, b := range fn.Blocks {
		putU64(b.Addr)
		putU64(uint64(len(b.ImportCall)))
		h.Write([]byte(b.ImportCall))
		putU64(uint64(len(b.Insns)))
		for _, in := range b.Insns {
			putU64(in.Addr)
			h.Write([]byte{in.Len, byte(in.Op), byte(in.Cond), in.OpSize})
			putOp(in.Dst)
			putOp(in.Src)
		}
		for _, e := range b.Succs {
			if !inFn(e.To) {
				continue
			}
			h.Write([]byte{byte(e.Kind)})
			putU64(e.To.Addr)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// blockInFunc reports whether b is one of fn's member blocks (the
// nearest-preceding-entry rule can strand range-contained blocks in a
// neighbouring function, so the range check alone is not enough).
func blockInFunc(fn *cfg.Func, b *cfg.Block) bool {
	i := sort.Search(len(fn.Blocks), func(i int) bool { return fn.Blocks[i].Addr >= b.Addr })
	return i < len(fn.Blocks) && fn.Blocks[i] == b
}
