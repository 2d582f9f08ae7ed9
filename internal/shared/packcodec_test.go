package shared

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"bside/internal/cache"
	"bside/internal/ident"
)

// TestSummaryCodecRoundTrip: every Summary shape the analyzer can
// store must either round-trip bit-exactly through the binary codec or
// be refused (stay JSON). Refusal is always sound; a lossy round trip
// never is.
func TestSummaryCodecRoundTrip(t *testing.T) {
	cases := []Summary{
		{},
		{Syscalls: []uint64{0}},
		{Syscalls: []uint64{1, 3, 60, 231}, Wrappers: 4},
		{FailOpen: true},
		{Syscalls: []uint64{2, 2, 9}}, // duplicates are still ascending
		{Imports: []string{"libc.so.6", "libpthread.so.0"}},
		{
			Syscalls: []uint64{0, 1, 60},
			Imports:  []string{"libc.so.6"},
			PerImport: map[string][]uint64{
				"libc.so.6":  {1, 60},
				"libnil.so":  nil,
				"libdl.so.2": {0},
			},
			Wrappers: 2,
			FailOpen: true,
		},
	}
	for i, in := range cases {
		payload, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		enc, ok := summaryCodec{}.EncodeJSON(payload)
		if !ok {
			t.Fatalf("case %d: codec refused %s", i, payload)
		}
		if len(enc) >= len(payload) && len(payload) > 8 {
			t.Logf("case %d: binary (%d bytes) not smaller than JSON (%d bytes)", i, len(enc), len(payload))
		}
		var got Summary
		if !(summaryCodec{}.Decode(enc, &got)) {
			t.Fatalf("case %d: decode failed", i)
		}
		// The oracle is what a segment-tier load would have produced.
		var want Summary
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip drifted:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestSummaryCodecRefusals: payloads the codec must leave as JSON —
// unknown fields (newer writer), unsorted syscalls (not a shape Load
// ever produces, but refusal beats corruption), malformed JSON.
func TestSummaryCodecRefusals(t *testing.T) {
	for _, tc := range []struct{ name, payload string }{
		{"unknown-field", `{"syscalls":[1],"future_field":true}`},
		{"unsorted", `{"syscalls":[60,1]}`},
		{"wrong-type", `{"syscalls":"nope"}`},
		{"not-json", `{"syscalls":[1]`},
	} {
		if _, ok := (summaryCodec{}).EncodeJSON([]byte(tc.payload)); ok {
			t.Errorf("%s: codec accepted %s", tc.name, tc.payload)
		}
	}
}

// TestSummaryCodecDecodeRejectsDamage: decode of truncated or
// version-skewed bytes fails cleanly (the probe falls through to the
// segments) instead of producing a partial Summary.
func TestSummaryCodecDecodeRejectsDamage(t *testing.T) {
	payload, _ := json.Marshal(Summary{Syscalls: []uint64{1, 60}, Imports: []string{"libc.so.6"}})
	enc, ok := summaryCodec{}.EncodeJSON(payload)
	if !ok {
		t.Fatal("codec refused a clean summary")
	}
	var out Summary
	if (summaryCodec{}).Decode(nil, &out) {
		t.Error("decoded empty data")
	}
	for cut := 1; cut < len(enc); cut++ {
		if (summaryCodec{}).Decode(enc[:cut], &out) {
			t.Errorf("decoded a %d/%d-byte truncation", cut, len(enc))
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = summaryCodecVersion + 1
	if (summaryCodec{}).Decode(bad, &out) {
		t.Error("decoded a future codec version")
	}
	if (summaryCodec{}).Decode(enc, &struct{}{}) {
		t.Error("decoded into a non-Summary target")
	}
	// Trailing garbage must also be refused: Done() demands full
	// consumption.
	if (summaryCodec{}).Decode(append(append([]byte(nil), enc...), 0xff), &out) {
		t.Error("decoded despite trailing bytes")
	}
}

// TestResolverConfigBustsPackTier extends the cross-config poisoning
// guarantee to the pack tier: a program summary compacted into a pack
// under one resolver configuration must never be served to an analyzer
// running another, while the same configuration keeps hitting the pack.
func TestResolverConfigBustsPackTier(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	main := writeImporter(t, 23)

	a1 := NewAnalyzer(loader(t), ident.Config{})
	a1.Cache = store
	sum1, _, err := a1.ProgramSummary(main)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Cached {
		t.Fatal("first run must compute")
	}
	cs, err := store.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Packed == 0 {
		t.Fatalf("nothing packed: %+v", cs)
	}
	if cs.BinaryEncoded == 0 {
		t.Fatalf("program summary not binary-encoded by the registered codec: %+v", cs)
	}

	// Fresh handle with the memory tier off: the pack is the only tier
	// that can answer (compaction deleted the segment).
	packed, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	packed.DisableMemoryTier()

	aSame := NewAnalyzer(loader(t), ident.Config{ResolverLayers: 2})
	aSame.Cache = packed
	sumSame, rep, err := aSame.ProgramSummary(main)
	if err != nil {
		t.Fatal(err)
	}
	if !sumSame.Cached || rep != nil {
		t.Fatal("same-config analyzer must be served from the pack")
	}
	if !reflect.DeepEqual(sumSame.Syscalls, sum1.Syscalls) {
		t.Fatalf("pack-served summary drifted: %v vs %v", sumSame.Syscalls, sum1.Syscalls)
	}
	if st := packed.Stats(); st.PackHits == 0 {
		t.Fatalf("hit did not come from the pack: %+v", st)
	}

	aOff := NewAnalyzer(loader(t), ident.Config{ResolverLayers: -1})
	aOff.Cache = packed
	sumOff, repOff, err := aOff.ProgramSummary(main)
	if err != nil {
		t.Fatal(err)
	}
	if sumOff.Cached || repOff == nil {
		t.Fatal("resolver-off analyzer was served a packed resolver-on entry")
	}
}
