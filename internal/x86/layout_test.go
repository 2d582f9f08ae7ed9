package x86

import (
	"testing"
	"unsafe"
)

// TestInstSize pins the packed layout: the CFG's decode arena and each
// graph's instruction slab are []Inst, so a field added or reordered
// into padding grows every recovered graph by the difference.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 64 {
		t.Fatalf("sizeof(Inst) = %d bytes, want 64", got)
	}
}
