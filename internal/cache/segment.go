package cache

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"
)

// The segment tier: where every Store lands. Each writing handle owns
// one append-only file under <dir>/segments/, created on its first
// Store, and appends each entry as one record with one write. A record
// carries a pack record's fields inline (integers little-endian):
//
//	[0:4]   magic "BSR1"
//	[4:8]   u32 body length
//	[8:12]  u32 CRC-32C of the body
//	body:   [0:32] key (raw SHA-256), [32] codec, [33] kind length k,
//	        kind, u16 conf length c, conf, payload (the rest)
//
// The index maps (kind, key) to the latest record's offset; a hit
// reads the record back and checks its CRC again. A damaged record is
// skipped on its own: the scan resynchronizes on the next magic. A
// writer holds an exclusive flock on its segment while it may append;
// a segment nobody holds is sealed — it never grows again.
const (
	segDirName = "segments"
	segExt     = ".seg"
	recMagic   = "BSR1"
	recHeader  = 12
	recFixed   = 32 + 1 + 1 + 2 // key, codec, kind length, conf length
	maxRecord  = 1 << 30        // a longer length field is damage, not a torn write

	// racyWindow is how long the segments directory's mtime stays
	// untrusted after a change: a segment created within the same
	// timestamp tick as a scan leaves it unchanged, so the first miss
	// after the window rescans once more.
	racyWindow = time.Second
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segment is one indexed segment file; size is how far it is indexed
// (for the own segment, written).
type segment struct {
	path   string
	f      *os.File
	size   int64
	sealed bool
}

// segKey -> segRef is one index entry.
type segKey struct {
	kind string
	key  [32]byte
}

type segRef struct {
	seg *segment
	off int64
	n   int
}

// record is a parsed view into one record's bytes.
type record struct {
	key, kind, conf, payload []byte
	codec                    byte
}

func (s *Store) segDir() string { return filepath.Join(s.dir, segDirName) }

// appendRecord frames one record onto buf.
func appendRecord(buf []byte, kind string, key *[32]byte, conf string, codec byte, payload []byte) ([]byte, error) {
	n := recFixed + len(kind) + len(conf) + len(payload)
	if len(kind) > math.MaxUint8 || len(conf) > math.MaxUint16 || n > maxRecord {
		return nil, fmt.Errorf("cache: %s record too large", kind)
	}
	buf = append(buf, recMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, 0, 0, 0, 0) // CRC, filled in below
	body := len(buf)
	buf = append(append(buf, key[:]...), codec, byte(len(kind)))
	buf = append(buf, kind...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(conf)))
	buf = append(append(buf, conf...), payload...)
	binary.LittleEndian.PutUint32(buf[body-4:], crc32.Checksum(buf[body:], castagnoli))
	return buf, nil
}

// parseRecord checks one whole record — magic, length, CRC, body
// framing — and splits it into views.
func parseRecord(rec []byte) (r record, ok bool) {
	if len(rec) < recHeader+recFixed || string(rec[:4]) != recMagic ||
		int(le32(rec[4:8])) != len(rec)-recHeader {
		return r, false
	}
	body := rec[recHeader:]
	if crc32.Checksum(body, castagnoli) != le32(rec[8:12]) {
		return r, false
	}
	r.key, r.codec = body[:32], body[32]
	p := 34 + int(body[33])
	if p+2 > len(body) {
		return r, false
	}
	c := p + 2 + int(binary.LittleEndian.Uint16(body[p:]))
	if c > len(body) {
		return r, false
	}
	r.kind, r.conf, r.payload = body[34:p], body[p+2:c], body[c:]
	return r, true
}

// scanRecords walks buf, segment bytes from a record boundary on, and
// calls fn with the offset and length of every intact record, skipping
// damage by resynchronizing on the next magic. A record running past
// the end of buf is damage in a sealed segment (final); in a live one
// it may still be being written, so the walk stops in front of it. It
// returns how much of buf it consumed.
func scanRecords(buf []byte, final bool, fn func(off, n int, r record)) int {
	pos := 0
	for {
		i := bytes.Index(buf[pos:], []byte(recMagic))
		if i < 0 {
			if final {
				return len(buf)
			}
			return max(pos, len(buf)-len(recMagic)+1)
		}
		pos += i
		end, torn := len(buf)+1, true
		if len(buf)-pos >= recHeader {
			n := le32(buf[pos+4:])
			end, torn = pos+recHeader+int(n), n <= maxRecord
		}
		if end <= len(buf) {
			if r, ok := parseRecord(buf[pos:end]); ok {
				fn(pos, end-pos, r)
				pos = end
				continue
			}
		} else if torn && !final {
			return pos
		}
		pos++
	}
}

// append writes one framed record to the handle's segment with a
// single write and indexes it. The segment is created on first use:
// under a temp name, locked, and only then renamed into place, so no
// reader or compactor ever finds it unlocked while its writer lives.
func (s *Store) append(k segKey, rec []byte) error {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.own == nil {
		if err := os.MkdirAll(s.segDir(), 0o755); err != nil {
			return err
		}
		f, err := os.CreateTemp(s.segDir(), ".new-*")
		if err != nil {
			return err
		}
		var id [16]byte
		_, _ = rand.Read(id[:])
		path := filepath.Join(s.segDir(), hex.EncodeToString(id[:])+segExt)
		if !lockFile(f, true) {
			err = fmt.Errorf("cache: cannot lock segment %s", f.Name())
		} else {
			err = os.Rename(f.Name(), path)
		}
		if err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
		s.own = &segment{path: path, f: f}
		s.segs[path] = s.own
	}
	seg := s.own
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		return err
	}
	s.index[k] = segRef{seg: seg, off: seg.size, n: len(rec)}
	seg.size += int64(len(rec))
	return nil
}

// Close seals the handle's segment, so Compact may absorb it, and
// closes every segment file the handle holds; a later load re-indexes
// what is on disk, and a later Store starts a new segment. A process
// that exits seals its segments anyway.
func (s *Store) Close() error {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	var err error
	for _, seg := range s.segs {
		err = errors.Join(err, seg.f.Close())
	}
	s.index, s.segs, s.own, s.dirMod = make(map[segKey]segRef), make(map[string]*segment), nil, time.Time{}
	return err
}

// probeSegment serves (kind, key) from the segment index with one
// stat (the ghost rule) and one record read, returning the stored
// fingerprint, the segment path and the payload size.
func (s *Store) probeSegment(kind string, key *[32]byte, conf string, anyConf bool, out any) (string, string, int, bool) {
	s.segMu.RLock()
	ref, ok := s.index[segKey{kind, *key}]
	s.segMu.RUnlock()
	if !ok {
		return "", "", 0, false
	}
	if _, err := os.Stat(ref.seg.path); err != nil {
		s.segMu.Lock()
		s.dropSegment(ref.seg)
		s.segMu.Unlock()
		return "", "", 0, false
	}
	buf := make([]byte, ref.n)
	if _, err := ref.seg.f.ReadAt(buf, ref.off); err != nil {
		s.ioErrors.Add(1)
		return "", "", 0, false
	}
	r, ok := parseRecord(buf)
	if !ok || string(r.kind) != kind || !bytes.Equal(r.key, key[:]) ||
		!(anyConf || string(r.conf) == conf) ||
		!decodePackPayload(kind, r.codec, r.payload, out) {
		return "", "", 0, false
	}
	return string(r.conf), ref.seg.path, len(r.payload), true
}

// refresh indexes what other writers added since the last look — new
// segment files (one directory stat, plus a rescan when it changed)
// and growth of segments whose writer is live (one stat each) — and
// reports whether the index gained records.
func (s *Store) refresh() bool {
	fi, err := os.Stat(s.segDir())
	if err != nil {
		return false
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	before := s.indexed
	if mod, now := fi.ModTime(), time.Now(); !mod.Equal(s.dirMod) || (!s.dirSettled && now.Sub(mod) > racyWindow) {
		s.dirMod, s.dirSettled = mod, now.Sub(mod) > racyWindow
		for _, path := range filesWithExt(s.segDir(), segExt) {
			if s.segs[path] != nil {
				continue
			}
			f, err := os.Open(path)
			if err != nil {
				continue
			}
			// Checked before reading: a segment found unlocked has no
			// writer, so what is read now is all it will ever hold.
			seg := &segment{path: path, f: f}
			if lockFile(f, false) {
				unlockFile(f)
				seg.sealed = true
			}
			s.segs[path] = seg
			s.grow(seg)
		}
	}
	for _, seg := range s.segs {
		if seg != s.own && !seg.sealed {
			s.grow(seg)
		}
	}
	return s.indexed != before
}

// grow indexes the records appended to seg since it was last read.
// Callers hold segMu.
func (s *Store) grow(seg *segment) {
	fi, err := os.Stat(seg.path)
	if err != nil {
		s.dropSegment(seg)
		return
	}
	if fi.Size() <= seg.size {
		return
	}
	buf := make([]byte, fi.Size()-seg.size)
	base := seg.size
	n, _ := seg.f.ReadAt(buf, base)
	seg.size += int64(scanRecords(buf[:n], seg.sealed, func(off, n int, r record) {
		k := segKey{kind: string(r.kind)}
		copy(k.key[:], r.key)
		s.index[k] = segRef{seg: seg, off: base + int64(off), n: n}
		s.indexed++
	}))
}

// dropSegment forgets a segment whose file is gone — compacted, or
// wiped with the cache directory — with its index entries; if it was
// the handle's own, the next Store starts a new one. Its descriptor is
// left to the finalizer: a concurrent probe may still be reading it.
// Callers hold segMu.
func (s *Store) dropSegment(seg *segment) {
	delete(s.segs, seg.path)
	if s.own == seg {
		s.own = nil
	}
	for k, ref := range s.index {
		if ref.seg == seg {
			delete(s.index, k)
		}
	}
}
