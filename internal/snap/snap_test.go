package snap

import (
	"bytes"
	"errors"
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

type codecSample struct {
	tags map[uint32]uint16
	u8   uint8
	b    bool
	u16  uint16
	u32  uint32
	i32  int32
	u64  uint64
	i64  int64
	n    int
	f    float64
	raw  []byte
	s    string
	list []uint16
	kind sampleKind
	grid [3]uint8
	span [4]byte
}

type sampleKind int

const sampleKinds sampleKind = 4

// code is the one description both directions share.
func (x *codecSample) code(c *Codec) {
	Map(c, &x.tags, func(v *uint16) { c.U16(v) })
	c.U8(&x.u8)
	c.Bool(&x.b)
	c.U16(&x.u16)
	c.U32(&x.u32)
	c.I32(&x.i32)
	c.U64(&x.u64)
	c.I64(&x.i64)
	c.Int(&x.n)
	c.F64(&x.f)
	c.Bytes32(&x.raw)
	c.String(&x.s)
	if b := c.Span(len(x.span)); c.Decoding() {
		copy(x.span[:], b)
	} else {
		copy(b, x.span[:])
	}
	Slice(c, &x.list)
	for i := range x.list {
		c.U16(&x.list[i])
	}
	Enum(c, &x.kind, sampleKinds)
	if !c.FixedLen(len(x.grid), "grid") {
		return
	}
	for i := range x.grid {
		c.U8(&x.grid[i])
	}
}

func sample() codecSample {
	return codecSample{
		tags: map[uint32]uint16{9: 1, 2: 7},
		u8:   7, b: true, u16: 0xbeef, u32: 0xdeadbeef, i32: -5, u64: 1 << 63, i64: -42, n: -7,
		f: math.Pi, raw: []byte{1, 2, 3}, s: "snap", list: []uint16{9, 8, 7}, kind: 3, grid: [3]uint8{4, 5, 6},
		span: [4]byte{0xa, 0xb, 0xc, 0xd},
	}
}

// TestCodecBothDirections: one field list encodes a value and decodes it
// back, byte-for-byte what the Writer would have produced, consuming the
// image exactly.
func TestCodecBothDirections(t *testing.T) {
	src := sample()
	enc := NewEncoder()
	src.code(enc)
	if enc.Decoding() || enc.Err() != nil {
		t.Fatalf("encoder: Decoding=%v Err=%v", enc.Decoding(), enc.Err())
	}

	var w Writer
	w.Len(2) // map entries in ascending key order
	w.U32(2)
	w.U16(7)
	w.U32(9)
	w.U16(1)
	w.U8(7)
	w.Bool(true)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U32(0xfffffffb) // int32(-5)
	w.U64(1 << 63)
	w.I64(-42)
	w.Int(-7)
	w.F64(math.Pi)
	w.Bytes32([]byte{1, 2, 3})
	w.String("snap")
	copy(w.Span(4), []byte{0xa, 0xb, 0xc, 0xd})
	w.Len(3)
	w.U16(9)
	w.U16(8)
	w.U16(7)
	w.U8(3)
	w.Len(3)
	w.U8(4)
	w.U8(5)
	w.U8(6)
	if !bytes.Equal(enc.Bytes(), w.Bytes()) {
		t.Fatalf("codec wrote % x\nwriter wrote % x", enc.Bytes(), w.Bytes())
	}

	var dst codecSample
	dec := NewDecoder(enc.Bytes())
	dst.code(dec)
	if !dec.Decoding() || dec.Err() != nil || dec.Remaining() != 0 {
		t.Fatalf("decoder: Decoding=%v Err=%v Remaining=%d", dec.Decoding(), dec.Err(), dec.Remaining())
	}
	re := NewEncoder()
	dst.code(re)
	if !bytes.Equal(re.Bytes(), enc.Bytes()) {
		t.Fatalf("decoded value re-encodes to % x, want % x", re.Bytes(), enc.Bytes())
	}
}

// TestCodecDecodeErrors: truncation anywhere, an enumeration value past
// its limit, a fixed-shape length that disagrees and an oversized slice
// length all fail the decode — stickily, with later fields read as zero.
func TestCodecDecodeErrors(t *testing.T) {
	src := sample()
	enc := NewEncoder()
	src.code(enc)
	image := enc.Bytes()
	for cut := 0; cut < len(image); cut++ {
		var dst codecSample
		dec := NewDecoder(image[:cut])
		dst.code(dec)
		if dec.Err() == nil {
			t.Fatalf("image cut at %d of %d decoded without error", cut, len(image))
		}
	}
	corrupt := func(off int, v byte) *Codec {
		bad := bytes.Clone(image)
		bad[off] = v
		var dst codecSample
		dec := NewDecoder(bad)
		dst.code(dec)
		return dec
	}
	enumOff := len(image) - 8 // the kind byte precedes the 4-byte grid length and 3 grid bytes
	if dec := corrupt(enumOff, uint8(sampleKinds)); dec.Err() == nil {
		t.Error("enumeration value at its limit decoded without error")
	}
	if dec := corrupt(enumOff+1, 2); dec.Err() == nil {
		t.Error("fixed-shape length 2 of 3 decoded without error")
	}
	listLen := enumOff - 3*2 - 4
	if dec := corrupt(listLen+3, 0x7F); dec.Err() == nil {
		t.Error("slice length beyond the image decoded without error")
	}

	dec := NewDecoder(image)
	first := errors.New("validation")
	dec.Fail(first)
	dec.Fail(errors.New("later"))
	var dst codecSample
	dst.code(dec)
	if dec.Err() != first {
		t.Errorf("Err = %v, want the first failure", dec.Err())
	}
	if dst.u64 != 0 || dst.s != "" || len(dst.list) != 0 || dst.span != [4]byte{} {
		t.Errorf("fields decoded after a failure: %+v", dst)
	}
}

// TestWriterGrowsByDoubling: each time the buffer grows its capacity at
// least doubles, whether a field or a span outgrows it, so the buffers
// an image is copied through and discards add up to less than the
// capacity it ends in.
func TestWriterGrowsByDoubling(t *testing.T) {
	var w Writer
	grown, last := 0, 0
	for i := 0; len(w.Bytes()) < 1<<20; i++ {
		if i%1000 == 999 {
			w.Span(5000)
		} else {
			w.U64(uint64(i))
		}
		if c := cap(w.Bytes()); c != last {
			if c < 2*last {
				t.Fatalf("at %d bytes the buffer grew from %d to %d", len(w.Bytes()), last, c)
			}
			grown += last
			last = c
		}
	}
	if grown >= last {
		t.Errorf("a %d-byte buffer grew through %d bytes of discarded ones", last, grown)
	}
}
