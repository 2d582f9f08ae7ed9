package shared

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"sort"

	"bside/internal/cache"
)

// The pack-tier binary codec for "program" entries: a warm hash
// lookup out of a memory-mapped pack decodes a Summary with a handful
// of varint reads instead of a JSON Unmarshal. The format is versioned
// (byte 0) and conservative by construction — EncodeJSON re-decodes
// its own output and bails to raw JSON on any divergence from what
// encoding/json would have produced, so a pack entry can never answer
// differently than the segment record it replaced.
//
//	[0]  codec version (1)
//	[1]  flags: bit0 FailOpen
//	uvarint Wrappers
//	uvarint len(Syscalls), then ascending deltas (first value absolute)
//	uvarint len(Imports), then per import uvarint len + bytes
//	uvarint len(PerImport), then per entry (sorted by name):
//	  uvarint len + name, uvarint len(values)+1 (0 encodes a nil
//	  slice), then ascending deltas
const summaryCodecVersion = 1

type summaryCodec struct{}

func init() {
	cache.RegisterPackCodec(kindProgram, summaryCodec{})
}

func (summaryCodec) EncodeJSON(payload []byte) ([]byte, bool) {
	// DisallowUnknownFields: a payload written by a newer Summary shape
	// must stay JSON rather than silently lose fields in the pack.
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var sum Summary
	if err := dec.Decode(&sum); err != nil {
		return nil, false
	}
	buf, ok := appendSummary(make([]byte, 0, 64), &sum)
	if !ok {
		return nil, false
	}
	// Round-trip guard: decoding our own bytes must reproduce exactly
	// what a JSON load of the original payload produces.
	var back Summary
	if !decodeSummary(buf, &back) {
		return nil, false
	}
	var viaJSON Summary
	if json.Unmarshal(payload, &viaJSON) != nil || !reflect.DeepEqual(back, viaJSON) {
		return nil, false
	}
	return buf, true
}

func (summaryCodec) Decode(data []byte, out any) bool {
	sum, ok := out.(*Summary)
	if !ok {
		return false
	}
	return decodeSummary(data, sum)
}

// appendSummary serializes sum, refusing shapes the decoder cannot
// reproduce exactly (unsorted syscall sets — Load-visible summaries are
// sorted ascending; anything else keeps the JSON payload).
func appendSummary(buf []byte, sum *Summary) ([]byte, bool) {
	buf = append(buf, summaryCodecVersion)
	var flags byte
	if sum.FailOpen {
		flags |= 1
	}
	buf = append(buf, flags)
	if sum.Wrappers < 0 {
		return nil, false
	}
	buf = binary.AppendUvarint(buf, uint64(sum.Wrappers))
	var ok bool
	if buf, ok = cache.AppendDeltas(buf, sum.Syscalls); !ok {
		return nil, false
	}
	buf = binary.AppendUvarint(buf, uint64(len(sum.Imports)))
	for _, im := range sum.Imports {
		buf = binary.AppendUvarint(buf, uint64(len(im)))
		buf = append(buf, im...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(sum.PerImport)))
	names := make([]string, 0, len(sum.PerImport))
	for name := range sum.PerImport {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		vals := sum.PerImport[name]
		if vals == nil {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(vals))+1)
		if buf, ok = cache.AppendDeltaValues(buf, vals); !ok {
			return nil, false
		}
	}
	return buf, true
}

func decodeSummary(data []byte, sum *Summary) bool {
	r := cache.NewPayloadReader(data)
	if r.Byte() != summaryCodecVersion {
		return false
	}
	flags := r.Byte()
	if flags&^byte(1) != 0 {
		return false
	}
	*sum = Summary{FailOpen: flags&1 != 0}
	sum.Wrappers = int(r.Uvarint())
	sum.Syscalls = r.Deltas()
	if n := r.Uvarint(); n > 0 && !r.Bad() {
		if n > uint64(len(data)) {
			return false
		}
		sum.Imports = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			sum.Imports = append(sum.Imports, r.Str())
		}
	}
	if n := r.Uvarint(); n > 0 && !r.Bad() {
		if n > uint64(len(data)) {
			return false
		}
		sum.PerImport = make(map[string][]uint64, n)
		for i := uint64(0); i < n; i++ {
			name := r.Str()
			h := r.Uvarint()
			if h == 0 {
				sum.PerImport[name] = nil
				continue
			}
			sum.PerImport[name] = r.DeltaValues(h - 1)
		}
	}
	return r.Done()
}
