package cache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// CompactStats describes one Compact run.
type CompactStats struct {
	Packed int `json:"packed"` // entries in the new pack
	// FromSegments and FromPacks split Packed by origin.
	FromSegments int `json:"from_segments"`
	FromPacks    int `json:"from_packs"`
	// BinaryEncoded counts entries a registered PackCodec re-encoded;
	// the rest stay raw JSON.
	BinaryEncoded int `json:"binary_encoded"`
	// SkippedSegments counts segments left in place: held by a live
	// writer, or unreadable.
	SkippedSegments int `json:"skipped_segments"`
	// PrunedSegments and PrunedPacks count files deleted once the new
	// pack was installed.
	PrunedSegments int    `json:"pruned_segments"`
	PrunedPacks    int    `json:"pruned_packs"`
	PackPath       string `json:"pack_path,omitempty"` // "" when nothing was packed
	PackBytes      int64  `json:"pack_bytes"`
}

// packsDir is where a store's pack files live.
func (s *Store) packsDir() string { return filepath.Join(s.dir, packDirName) }

// Packs returns the paths of the currently open pack files.
func (s *Store) Packs() []string {
	var out []string
	for _, p := range *s.packs.Load() {
		out = append(out, p.path)
	}
	return out
}

// filesWithExt lists dir's entries ending in ext, as sorted paths.
func filesWithExt(dir, ext string) []string {
	ents, _ := os.ReadDir(dir)
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ext) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// discoverPacks opens every valid pack under <dir>/packs/, in name
// order for determinism.
func (s *Store) discoverPacks() {
	packs := []*pack{}
	for _, path := range filesWithExt(s.packsDir(), packExt) {
		if p, err := openPack(path); err == nil {
			packs = append(packs, p)
		}
	}
	s.packs.Store(&packs)
}

// updatePacks atomically replaces the pack set with edit(current).
// Superseded mappings are not unmapped — see the packs field doc.
func (s *Store) updatePacks(edit func([]*pack) []*pack) {
	for {
		old := s.packs.Load()
		if next := edit(*old); s.packs.CompareAndSwap(old, &next) {
			return
		}
	}
}

// AttachPack opens one pack file, anywhere on disk, and adds it to the
// probe set: a fleet can build one pack centrally and point every
// node's analyzer at it read-only (Options.PackPath).
func (s *Store) AttachPack(path string) error {
	p, err := openPack(path)
	if err != nil {
		return err
	}
	s.updatePacks(func(cur []*pack) []*pack { return append(cur[:len(cur):len(cur)], p) })
	return nil
}

// dropPack removes one pack, whose backing file vanished, from the
// probe set.
func (s *Store) dropPack(victim *pack) {
	s.updatePacks(func(cur []*pack) []*pack {
		return slices.DeleteFunc(slices.Clone(cur), func(p *pack) bool { return p == victim })
	})
}

// Compact folds every sealed segment and the open packs into one new
// pack, installs it atomically, and then deletes what it absorbed. It
// first closes this handle's segments, sealing its own; a segment
// another writer still holds is left for a later run.
// Readers are never caught between tiers: until the swap the old
// tiers answer, after it the new pack does.
func (s *Store) Compact() (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	_ = s.Close() // read-only descriptors and the sealed own segment
	var st CompactStats

	// Entries are re-encoded with the kind's binary codec where it
	// proves itself; exact (kind, key, conf) repeats are content-
	// identical and enter once.
	var entries []packEntry
	seen := make(map[string]bool)
	add := func(e packEntry) bool {
		id := e.kind + "\x00" + string(e.key[:]) + "\x00" + e.conf
		if seen[id] {
			return false
		}
		seen[id] = true
		if e.codec == packCodecJSON {
			if c := packCodecFor(e.kind); c != nil {
				if bin, ok := c.EncodeJSON(e.payload); ok {
					e.codec, e.payload = packCodecBinary, bin
				}
			}
		}
		if e.codec == packCodecBinary {
			st.BinaryEncoded++
		}
		entries = append(entries, e)
		return true
	}

	// A segment is absorbed only under its exclusive lock, taken before
	// reading and held until the file is deleted: a live writer's
	// segment is skipped, and a sealed one cannot grow behind the read.
	absorbed := make(map[string]*os.File)
	defer func() {
		for _, f := range absorbed {
			f.Close()
		}
	}()
	for _, path := range filesWithExt(s.segDir(), segExt) {
		f, err := os.Open(path)
		if err != nil {
			st.SkippedSegments++
			continue
		}
		if !lockFile(f, true) {
			f.Close()
			st.SkippedSegments++
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Close()
			st.SkippedSegments++
			continue
		}
		absorbed[path] = f
		scanRecords(data, true, func(_, _ int, r record) {
			e := packEntry{kind: string(r.kind), conf: string(r.conf), codec: r.codec, payload: r.payload}
			copy(e.key[:], r.key)
			if add(e) {
				st.FromSegments++
			}
		})
	}
	oldPacks := *s.packs.Load()
	for _, p := range oldPacks {
		p.entries(func(e packEntry) {
			if add(e) {
				st.FromPacks++
			}
		})
	}
	if len(entries) > 0 {
		if err := s.writePack(entries, &st); err != nil {
			return st, err
		}
	}

	// A file surviving its deletion only duplicates what the pack serves.
	s.segMu.Lock()
	for path := range absorbed {
		if seg := s.segs[path]; seg != nil {
			s.dropSegment(seg)
		}
		if os.Remove(path) == nil {
			st.PrunedSegments++
		}
	}
	s.segMu.Unlock()
	for _, p := range oldPacks {
		if p.path != st.PackPath && os.Remove(p.path) == nil {
			st.PrunedPacks++
		}
	}
	return st, nil
}

// writePack builds the pack from entries, writes it under its
// content-addressed name, and installs it as the store's only pack.
func (s *Store) writePack(entries []packEntry, st *CompactStats) error {
	buf, err := buildPack(entries)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.packsDir(), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(s.packsDir(), ".pack.tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, err = tmp.Write(buf)
	if err = errors.Join(err, tmp.Close()); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("cache: write pack: %w", err)
	}
	// Named by the body checksum: identical content, identical file.
	path := filepath.Join(s.packsDir(), fmt.Sprintf("pack-%x%s", buf[48:60], packExt))
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	np, err := openPack(path)
	if err != nil {
		// The pack just written does not validate: leave the segments.
		_ = os.Remove(path)
		return err
	}
	next := []*pack{np}
	s.packs.Store(&next)
	st.Packed, st.PackPath, st.PackBytes = np.count, path, int64(len(buf))
	return nil
}
