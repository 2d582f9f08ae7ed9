package cache

import "encoding/binary"

// PayloadReader is a bounds-checked cursor over one pack codec
// payload, shared by the PackCodec implementations. Any out-of-bounds
// or malformed read poisons the reader; codecs check Done at the end
// and fail the decode as a whole, which the probe treats as a miss.
type PayloadReader struct {
	data []byte
	pos  int
	bad  bool
}

func NewPayloadReader(data []byte) *PayloadReader {
	return &PayloadReader{data: data}
}

// Done reports a clean, fully-consumed decode: no poisoned read and no
// trailing bytes (trailing garbage means the payload is not what the
// codec thinks it is).
func (r *PayloadReader) Done() bool { return !r.bad && r.pos == len(r.data) }

// Bad reports whether any read has gone out of bounds.
func (r *PayloadReader) Bad() bool { return r.bad }

func (r *PayloadReader) Byte() byte {
	if r.pos >= len(r.data) {
		r.bad = true
		return 0xff
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *PayloadReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

func (r *PayloadReader) Varint() int64 {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

// Str reads a uvarint length-prefixed string. The returned string is a
// copy — pack payloads alias a read-only mapping that must not leak
// into long-lived decoded values by reference.
func (r *PayloadReader) Str() string {
	n := r.Uvarint()
	if r.bad || n > uint64(len(r.data)-r.pos) {
		r.bad = true
		return ""
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// Deltas reads a uvarint count followed by that many ascending-delta
// encoded values (first absolute). Zero count decodes as nil, matching
// how an omitempty JSON round trip restores an absent slice.
func (r *PayloadReader) Deltas() []uint64 {
	n := r.Uvarint()
	if r.bad || n == 0 {
		return nil
	}
	return r.DeltaValues(n)
}

// DeltaValues reads exactly n ascending-delta encoded values.
func (r *PayloadReader) DeltaValues(n uint64) []uint64 {
	if n > uint64(len(r.data)) { // each value is ≥ 1 byte
		r.bad = true
		return nil
	}
	vals := make([]uint64, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d := r.Uvarint()
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		vals = append(vals, prev)
	}
	if r.bad {
		return nil
	}
	return vals
}

// AppendDeltas appends a uvarint count plus ascending-delta encoded
// values — the inverse of Deltas. False when vals is not sorted
// ascending (the codec should keep the JSON payload instead).
func AppendDeltas(buf []byte, vals []uint64) ([]byte, bool) {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	return AppendDeltaValues(buf, vals)
}

// AppendDeltaValues appends the values without the count prefix.
func AppendDeltaValues(buf []byte, vals []uint64) ([]byte, bool) {
	prev := uint64(0)
	for i, v := range vals {
		if i > 0 && v < prev {
			return nil, false
		}
		d := v - prev
		if i == 0 {
			d = v
		}
		buf = binary.AppendUvarint(buf, d)
		prev = v
	}
	return buf, true
}
