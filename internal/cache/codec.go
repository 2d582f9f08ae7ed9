package cache

import "sync"

// PackCodec is the binary pack encoding of one entry kind, registered
// at init time by the package that owns the payload type (shared and
// ident import this package, not the other way around).
//
// EncodeJSON re-encodes one JSON payload into the codec's versioned
// binary form at compaction time. Any payload it does not fully
// understand — unknown fields, shapes that would not round-trip
// byte-identically — must return ok=false, and the entry is packed as
// raw JSON instead.
//
// Decode decodes a binary payload into out, the pointer a Load caller
// handed the store, without retaining or mutating data (it aliases a
// read-only mapping). A type mismatch or malformed input returns
// false, which the store treats as a miss — never a wrong answer.
type PackCodec interface {
	EncodeJSON(payload []byte) ([]byte, bool)
	Decode(data []byte, out any) bool
}

// packCodecs maps kind -> PackCodec. Registration happens in package
// init functions; lookups happen on probe and compaction paths.
var packCodecs sync.Map

// RegisterPackCodec installs the binary pack codec for one entry kind.
// Kinds without a codec are packed as raw JSON (codec 0) and decoded
// with encoding/json on pack hits — still one binary-search probe into
// the mapping, just not zero-deserialization. Last registration wins;
// in practice each owning package registers exactly once from init.
func RegisterPackCodec(kind string, c PackCodec) {
	packCodecs.Store(kind, c)
}

func packCodecFor(kind string) PackCodec {
	if v, ok := packCodecs.Load(kind); ok {
		return v.(PackCodec)
	}
	return nil
}
