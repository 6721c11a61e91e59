package snap

import (
	"bytes"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1 << 63)
	w.I64(-42)
	w.Int(-7)
	w.F64(math.Pi)
	w.Bytes32([]byte{1, 2, 3})
	w.String("snap")
	w.Len(5)
	for i := uint8(0); i < 5; i++ {
		w.U8(i)
	}

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<63 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bytes32(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes32 = %v", got)
	}
	if got := r.String(); got != "snap" {
		t.Errorf("String = %q", got)
	}
	if got := r.Len(); got != 5 {
		t.Errorf("Len = %d", got)
	}
	for i := uint8(0); i < 5; i++ {
		if got := r.U8(); got != i {
			t.Errorf("element %d = %d", i, got)
		}
	}
	if r.Err() != nil {
		t.Fatalf("Err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestDeterministicBytes(t *testing.T) {
	enc := func() []byte {
		var w Writer
		w.U64(123)
		w.String("abc")
		w.F64(1.5)
		return w.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("identical writes produced different bytes")
	}
}

func TestTruncationSticks(t *testing.T) {
	var w Writer
	w.U32(9)
	r := NewReader(w.Bytes())
	if got := r.Bytes32(); got != nil {
		t.Errorf("Bytes32 on truncated input = %v", got)
	}
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Sticky: further reads are safe and zero-valued.
	if got := r.U64(); got != 0 {
		t.Errorf("U64 after error = %d", got)
	}
	if r.Err() == nil {
		t.Fatal("error should persist")
	}
}

func TestNilAndEmptyBytes(t *testing.T) {
	var w Writer
	w.Bytes32(nil)
	w.Bytes32([]byte{})
	r := NewReader(w.Bytes())
	if got := r.Bytes32(); len(got) != 0 {
		t.Errorf("nil slice round-trip = %v", got)
	}
	if got := r.Bytes32(); len(got) != 0 {
		t.Errorf("empty slice round-trip = %v", got)
	}
	if r.Err() != nil {
		t.Fatalf("Err = %v", r.Err())
	}
}

// TestLenBoundedByRemaining pins the allocation guard: a collection
// length the remaining bytes cannot possibly hold fails the reader and
// reads as zero, so no caller sizes a make() by it.
func TestLenBoundedByRemaining(t *testing.T) {
	var w Writer
	w.Len(3)
	w.U8(1)
	w.U8(2)
	r := NewReader(w.Bytes())
	if got := r.Len(); got != 0 || r.Err() == nil {
		t.Fatalf("Len = %d, Err = %v; want 0 and an error for 3 elements in 2 bytes", got, r.Err())
	}
	huge := NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if got := huge.Len(); got != 0 || huge.Err() == nil {
		t.Fatalf("Len = %d, Err = %v; want 0 and an error for a 4 GiB length", got, huge.Err())
	}
}
