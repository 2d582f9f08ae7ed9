// Package cache implements the content-addressed store behind batch
// analysis: the once-per-library artifacts of the paper's §4.5
// (shared interfaces) and whole-program results persist across
// processes, so a fleet-wide run pays for each distinct binary once.
//
// An entry is addressed by (kind, key, conf): kind partitions entry
// types ("interface", "program", "funcsum"), key is the lowercase hex
// SHA-256 of the source image, and conf is the configuration
// fingerprint it was computed under — a mismatch (other settings, or a
// dependency whose image changed) is a miss and the entry is
// recomputed. A probe falls through three tiers:
//
//   - memory: a process-wide, size-bounded LRU of *decoded* values; a
//     hit is a pointer-copy assignment, not an Unmarshal.
//   - packs (pack.go): immutable, checksummed files under <dir>/packs/
//     that Compact builds and readers memory-map and binary-search.
//   - segments (segment.go): append-only, record-checksummed files
//     under <dir>/segments/ where every Store lands, one write per
//     entry.
//
// Corruption is never fatal: a damaged pack or segment record is a
// miss, and the caller recomputes. Every hit, memory tier included,
// stats the file backing it, so deleting a cache directory makes the
// process recompute rather than serve ghosts. The per-entry JSON files
// of earlier releases (<dir>/<kind>/) are ignored: upgrading costs one
// recompute.
//
// The memory tier only holds disk-validated, content-addressed values,
// and a Store through any handle drops the stale copy, so it never
// serves what the durable tiers would not. Hits hand every caller the
// same value, so loaded results are immutable by contract. Entry count
// and payload bytes are capped (SetMemoryTierLimits); eviction only
// costs the next identical load a disk read and is counted in
// Stats.MemoryEvictions. DisableMemoryTier opts a handle out — the
// fuzzer holds tier-on and tier-off analyses to identical results.
package cache

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"bside/internal/faults"
)

// Default memory-tier bounds.
const (
	defaultMemEntries = 1 << 16
	defaultMemBytes   = 256 << 20
)

// memTier is the process-wide memory tier over full entry keys
// (dir\x00kind\x00key), shared by every Store handle so an analyzer
// recreated over the same directory keeps its warm entries.
var memTier = newStripedTier(defaultMemEntries, defaultMemBytes)

// memEntry is one resident memory-tier entry: the decoded value
// (immutable by contract), its conf fingerprint, the durable file
// backing it (statted on every hit), and the payload size charged.
type memEntry struct {
	key  string
	conf string
	src  string
	size int
	val  any
}

// tierStripes is the memory tier's stripe count: enough that a sweep's
// workers rarely collide, few enough to keep byte-budget shares useful.
const tierStripes = 16

// stripedTier shards the memory tier across tierStripes LRUs, each
// with its own mutex and a proportional share (at least 1) of the
// entry and byte budgets. Recency and eviction are per stripe — a
// bounded departure from a global LRU, which the property test holds
// to a per-stripe tolerance, in exchange for uncontended access.
type stripedTier struct {
	limitMu    sync.Mutex // guards the configured totals, not the data path
	maxEntries int
	maxBytes   int64
	stripes    [tierStripes]*lruTier
}

func newStripedTier(maxEntries int, maxBytes int64) *stripedTier {
	t := &stripedTier{}
	for i := range t.stripes {
		t.stripes[i] = newLRUTier(1, 1)
	}
	t.setLimits(maxEntries, maxBytes)
	return t
}

// stripeOf routes a key to its stripe by FNV-1a hash.
func stripeOf(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h % tierStripes
}

func (t *stripedTier) get(key string) (memEntry, bool) { return t.stripes[stripeOf(key)].get(key) }
func (t *stripedTier) put(ent memEntry)                { t.stripes[stripeOf(ent.key)].put(ent) }
func (t *stripedTier) del(key string)                  { t.stripes[stripeOf(key)].del(key) }

func (t *stripedTier) snapshot() (entries int, bytes int64) {
	for _, s := range t.stripes {
		e, b := s.snapshot()
		entries += e
		bytes += b
	}
	return entries, bytes
}

func (t *stripedTier) evictions() uint64 {
	var n uint64
	for _, s := range t.stripes {
		n += s.evictions.Load()
	}
	return n
}

// setLimits installs new totals (non-positive values keep the current
// ones), divides them across the stripes, and returns the previous
// totals.
func (t *stripedTier) setLimits(maxEntries int, maxBytes int64) (prevEntries int, prevBytes int64) {
	t.limitMu.Lock()
	defer t.limitMu.Unlock()
	prevEntries, prevBytes = t.maxEntries, t.maxBytes
	if maxEntries > 0 {
		t.maxEntries = maxEntries
	}
	if maxBytes > 0 {
		t.maxBytes = maxBytes
	}
	share := func(total int64, i int) int64 {
		n := total / tierStripes
		if int64(i) < total%tierStripes {
			n++
		}
		return max(n, 1)
	}
	for i, st := range t.stripes {
		st.setLimits(int(share(int64(t.maxEntries), i)), share(t.maxBytes, i))
	}
	return prevEntries, prevBytes
}

// lruTier is the size-bounded LRU behind one stripe: a map for lookup,
// a recency list for eviction order, and payload byte accounting.
type lruTier struct {
	mu         sync.Mutex
	entries    map[string]*list.Element // -> *memEntry elements of order
	order      *list.List               // front = most recently used
	bytes      int64
	maxEntries int
	maxBytes   int64
	evictions  atomic.Uint64
}

func newLRUTier(maxEntries int, maxBytes int64) *lruTier {
	return &lruTier{
		entries:    make(map[string]*list.Element),
		order:      list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// get returns the entry for key, marking it most recently used.
func (t *lruTier) get(key string) (memEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.entries[key]
	if !ok {
		return memEntry{}, false
	}
	t.order.MoveToFront(el)
	return *el.Value.(*memEntry), true
}

// put inserts or replaces the entry for ent.key and evicts from the
// cold end until both bounds hold again.
func (t *lruTier) put(ent memEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[ent.key]; ok {
		old := el.Value.(*memEntry)
		t.bytes += int64(ent.size) - int64(old.size)
		*old = ent
		t.order.MoveToFront(el)
	} else {
		t.entries[ent.key] = t.order.PushFront(&ent)
		t.bytes += int64(ent.size)
	}
	t.evictLocked()
}

// del drops the entry for key if present.
func (t *lruTier) del(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[key]; ok {
		t.removeLocked(el)
	}
}

func (t *lruTier) removeLocked(el *list.Element) {
	ent := el.Value.(*memEntry)
	t.order.Remove(el)
	delete(t.entries, ent.key)
	t.bytes -= int64(ent.size)
}

// evictLocked drops entries from the cold end until both bounds hold.
func (t *lruTier) evictLocked() {
	for t.order.Len() > 0 && (t.order.Len() > t.maxEntries || t.bytes > t.maxBytes) {
		t.removeLocked(t.order.Back())
		t.evictions.Add(1)
	}
}

// snapshot returns the tier's gauges: entry count and payload bytes.
func (t *lruTier) snapshot() (entries int, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len(), t.bytes
}

// setLimits installs new bounds, evicting immediately if the tier is
// now over.
func (t *lruTier) setLimits(maxEntries int, maxBytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.maxEntries, t.maxBytes = maxEntries, maxBytes
	t.evictLocked()
}

// SetMemoryTierLimits bounds the process-wide memory tier by entry
// count and total payload bytes (non-positive values keep the current
// bound) and returns the previous bounds.
func SetMemoryTierLimits(maxEntries int, maxBytes int64) (prevEntries int, prevBytes int64) {
	return memTier.setLimits(maxEntries, maxBytes)
}

// Store is a content-addressed cache directory plus its slice of the
// process-wide memory tier. All methods are safe for concurrent use.
type Store struct {
	dir       string
	memPrefix string
	noMem     atomic.Bool

	// packs is the current immutable set of open pack files. Readers
	// load a snapshot and never lock; writers swap in a new slice.
	// Superseded mappings are deliberately not unmapped — a concurrent
	// probe may still hold the old snapshot, and a few leaked mappings
	// per compaction are far cheaper than reference-counting probes.
	packs atomic.Pointer[[]*pack]

	// compactMu serializes Compact runs; probes and stores never take it.
	compactMu sync.Mutex

	// segMu guards the segment index and the segment set below. Loads
	// hold it only for the map probe; the pread runs outside it.
	segMu      sync.RWMutex
	index      map[segKey]segRef   // (kind, key) -> latest record
	segs       map[string]*segment // every indexed segment, by path
	own        *segment            // this handle's segment; nil until the first Store
	dirMod     time.Time           // segments dir mtime at the last scan
	dirSettled bool                // the last scan began clear of dirMod's racy window
	indexed    uint64              // records indexed so far

	hits        atomic.Uint64
	memoryHits  atomic.Uint64
	packHits    atomic.Uint64
	misses      atomic.Uint64
	stores      atomic.Uint64
	storedBytes atomic.Uint64
	ioErrors    atomic.Uint64
}

// Stats is a point-in-time snapshot of cache traffic.
type Stats struct {
	// Hits counts Load calls satisfied by any tier.
	Hits uint64
	// MemoryHits counts the subset of Hits served from the in-process
	// memory tier without reading the disk.
	MemoryHits uint64
	// PackHits counts the subset of Hits served from a memory-mapped
	// pack file.
	PackHits uint64
	// Packs, PackEntries and PackBytesMapped gauge the open pack set:
	// files, index entries, and bytes memory-mapped (zero where the
	// platform fell back to heap reads).
	Packs           int
	PackEntries     int
	PackBytesMapped int64
	// Misses counts Load calls that found no usable entry.
	Misses uint64
	// Stores counts entries written.
	Stores uint64
	// StoredBytes counts the segment record bytes written to disk
	// (framing, key, conf and JSON payload).
	StoredBytes uint64
	// MemoryEvictions counts entries pushed out of the process-wide
	// memory tier by its bounds; an eviction rate tracking the hit rate
	// means the tier is sized below the working set.
	MemoryEvictions uint64
	// MemoryEntries and MemoryBytes are point-in-time gauges of the
	// process-wide memory tier's population and payload footprint. The
	// segment index (offsets, not values) is not counted.
	MemoryEntries int
	MemoryBytes   int64
	// IOErrors counts durable-tier operations that failed for reasons
	// other than "entry absent": an unreadable record, a failed Store.
	// A climbing count is the serve tier's degraded-health signal.
	IOErrors uint64
}

// Open returns a store rooted at dir, creating it if needed, with the
// packs under <dir>/packs/ mapped and the segments under
// <dir>/segments/ indexed; damaged ones are skipped. It writes
// nothing else: a handle creates its segment on its first Store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	s := &Store{
		dir:       dir,
		memPrefix: filepath.Clean(dir) + "\x00",
		index:     make(map[segKey]segRef),
		segs:      make(map[string]*segment),
	}
	s.discoverPacks()
	s.refresh()
	return s, nil
}

// DisableMemoryTier makes this handle bypass the process-wide memory
// tier: every Load goes to disk and nothing is promoted. Results are
// byte-identical either way. Returns the store for chaining.
func (s *Store) DisableMemoryTier() *Store {
	s.noMem.Store(true)
	return s
}

// Stats returns a snapshot of the traffic counters; the memory-tier
// fields describe the process-wide tier, not this store's slice of it.
func (s *Store) Stats() Stats {
	entries, bytes := memTier.snapshot()
	st := Stats{
		Hits:            s.hits.Load(),
		MemoryHits:      s.memoryHits.Load(),
		PackHits:        s.packHits.Load(),
		Misses:          s.misses.Load(),
		Stores:          s.stores.Load(),
		StoredBytes:     s.storedBytes.Load(),
		IOErrors:        s.ioErrors.Load(),
		MemoryEvictions: memTier.evictions(),
		MemoryEntries:   entries,
		MemoryBytes:     bytes,
	}
	ps := *s.packs.Load()
	st.Packs = len(ps)
	for _, p := range ps {
		st.PackEntries += p.count
		if p.mapped {
			st.PackBytesMapped += int64(len(p.data))
		}
	}
	return st
}

func (s *Store) memKey(kind, key string) string {
	return s.memPrefix + kind + "\x00" + key
}

// Load decodes the entry for (kind, key) into out and reports whether a
// usable entry existed. conf must match the fingerprint the entry was
// stored under; any mismatch or decode failure is a miss. The caller
// must treat the result (and any slices it holds) as immutable.
func (s *Store) Load(kind, key, conf string, out any) bool {
	_, ok := s.load(kind, key, conf, false, out)
	return ok
}

// LoadAny decodes the entry for (kind, key) whatever fingerprint it was
// stored under and returns that fingerprint — the probe behind
// hash-only lookups. The caller owns validating the fingerprint;
// serving without checking it would cross analyzer configurations.
func (s *Store) LoadAny(kind, key string, out any) (string, bool) {
	return s.load(kind, key, "", true, out)
}

// load probes the tiers in order — memory, packs, segments — and
// promotes any durable hit into the memory tier. anyConf accepts
// whatever fingerprint is stored (LoadAny); otherwise conf must match.
func (s *Store) load(kind, key, conf string, anyConf bool, out any) (string, bool) {
	var kb [32]byte
	if !decodeHexKey(key, &kb) {
		s.misses.Add(1)
		return "", false
	}
	if err := faults.Fire(faults.CacheRead, kind+"/"+key); err != nil {
		// Injected disk failure: counted and served as a miss.
		s.ioErrors.Add(1)
		s.misses.Add(1)
		return "", false
	}
	useMem := !s.noMem.Load()
	mk := ""
	if useMem {
		mk = s.memKey(kind, key)
		if ent, ok := memTier.get(mk); ok {
			if anyConf || ent.conf == conf {
				// One stat confirms the segment or pack this value came
				// from still backs it: a deleted cache directory must make
				// the process recompute, not serve ghosts.
				if _, err := os.Stat(ent.src); err == nil {
					if assignDecoded(out, ent.val) {
						s.memoryHits.Add(1)
						s.hits.Add(1)
						return ent.conf, true
					}
				} else {
					memTier.del(mk)
				}
			}
			// A fingerprint mismatch falls through to disk: a segment may
			// hold a fresher entry stored under the new conf.
		}
	}
	for _, p := range *s.packs.Load() {
		gotConf, codec, payload, ok := p.probe(kind, key, conf, anyConf)
		if !ok {
			continue
		}
		// The same ghost rule: a pack deleted under a live mapping stops
		// serving and leaves the set.
		if _, err := os.Stat(p.path); err != nil {
			s.dropPack(p)
			continue
		}
		if !decodePackPayload(kind, codec, payload, out) {
			// Codec/type mismatch or malformed payload: let the
			// segments answer.
			continue
		}
		s.packHits.Add(1)
		s.hits.Add(1)
		if useMem {
			s.promote(mk, gotConf, p.path, len(payload), out)
		}
		return gotConf, true
	}
	gotConf, src, size, ok := s.probeSegment(kind, &kb, conf, anyConf, out)
	if !ok && s.refresh() {
		gotConf, src, size, ok = s.probeSegment(kind, &kb, conf, anyConf, out)
	}
	if !ok {
		s.misses.Add(1)
		return "", false
	}
	if useMem {
		s.promote(mk, gotConf, src, size, out)
	}
	s.hits.Add(1)
	return gotConf, true
}

// decodePackPayload decodes one pack or segment payload into out: raw
// JSON (codec 0) or the kind's PackCodec (codec 1); false is a miss.
func decodePackPayload(kind string, codec byte, payload []byte, out any) bool {
	switch codec {
	case packCodecJSON:
		return json.Unmarshal(payload, out) == nil
	case packCodecBinary:
		c := packCodecFor(kind)
		return c != nil && c.Decode(payload, out)
	}
	return false
}

// assignDecoded copies a resident decoded value into the caller's out
// pointer; a type mismatch returns false and falls through to disk.
func assignDecoded(out, val any) bool {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return false
	}
	ev := rv.Elem()
	vv := reflect.ValueOf(val)
	if !vv.IsValid() || vv.Type() != ev.Type() {
		return false
	}
	ev.Set(vv)
	return true
}

// promote installs a durable-tier-validated decoded value (a boxed
// copy of *out) into the memory tier, backed by the file at src.
func (s *Store) promote(mk, conf, src string, size int, out any) {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return
	}
	memTier.put(memEntry{key: mk, conf: conf, src: src, size: size, val: rv.Elem().Interface()})
}

// Store appends the entry for (kind, key) to this handle's segment as
// one record, superseding any earlier entry for the same (kind, key).
// Disk failures are also counted in Stats.IOErrors: most callers drop
// store errors (the cache is best-effort).
func (s *Store) Store(kind, key, conf string, payload any) error {
	var kb [32]byte
	if !decodeHexKey(key, &kb) {
		return fmt.Errorf("cache: invalid key %q", key)
	}
	if err := faults.Fire(faults.CacheWrite, kind+"/"+key); err != nil {
		s.ioErrors.Add(1)
		return fmt.Errorf("cache: write %s/%s: %w", kind, key, err)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("cache: marshal %s/%s: %w", kind, key, err)
	}
	rec, err := appendRecord(nil, kind, &kb, conf, packCodecJSON, raw)
	if err != nil {
		return err
	}
	if err := s.append(segKey{kind, kb}, rec); err != nil {
		s.ioErrors.Add(1)
		return fmt.Errorf("cache: write %s/%s: %w", kind, key, err)
	}
	// Drop any memory copy: the tier is read-through, so the next Load
	// re-validates from disk and promotes the fresh payload.
	memTier.del(s.memKey(kind, key))
	s.stores.Add(1)
	s.storedBytes.Add(uint64(len(rec)))
	return nil
}
