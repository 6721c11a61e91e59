// Package snap provides the deterministic binary encoding used by the
// versioned machine-snapshot format: little-endian, length-prefixed,
// with no map-order or padding nondeterminism — the same state always
// encodes to the same bytes, which is what lets CI pin the format with
// a golden hash.
package snap

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
)

// Writer accumulates a snapshot section. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// room makes space for n more bytes, at least doubling the capacity
// when it grows: append's own policy grows a large slice by about a
// quarter, which copied a 108 MB image through some 600 MB of discarded
// buffers.
func (w *Writer) room(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.buf = slices.Grow(w.buf, max(n, 2*cap(w.buf)-len(w.buf)))
	}
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) {
	w.room(1)
	w.buf = append(w.buf, v)
}

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) {
	w.room(2)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.room(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.room(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 by its exact IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes32 appends a uint32 length prefix followed by the raw bytes.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.room(len(b))
	w.buf = append(w.buf, b...)
}

// Span appends n zero bytes and returns them for the caller to fill.
func (w *Writer) Span(n int) []byte {
	w.room(n)
	at := len(w.buf)
	w.buf = append(w.buf, make([]byte, n)...)
	return w.buf[at:]
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes32([]byte(s)) }

// Len appends a collection length (uint32); the caller then appends the
// elements in a deterministic order.
func (w *Writer) Len(n int) { w.U32(uint32(n)) }

// Reader decodes a snapshot section. Decoding errors are sticky: after
// the first failure every further read returns zero values and Err
// reports the original cause, so decode loops need only one check.
type Reader struct {
	buf []byte
	off int
	err error
}

// Remaining reports how many bytes are left undecoded.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("snap: truncated input: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int encoded as int64.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes32 reads a uint32-length-prefixed byte slice (a copy).
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes32()) }

// Len reads a collection length. Every element of every collection in
// the format occupies at least one byte, so a length beyond the bytes
// remaining is corrupt: it fails the reader here, before any caller can
// size an allocation by it.
func (r *Reader) Len() int {
	n := int(r.U32())
	if r.err == nil && n > r.Remaining() {
		r.err = fmt.Errorf("snap: length %d at offset %d exceeds the %d bytes remaining", n, r.off-4, r.Remaining())
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Fail forces the reader into the sticky error state; decoders use it
// to report semantic validation failures through the same channel as
// framing errors.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Codec drives one description of a snapshot section in either
// direction: built by NewEncoder it appends every field it is shown to
// an image, built by NewDecoder it overwrites every field from one. A
// stateful type therefore spells its on-disk layout out once, in a
// single method both Snapshot and Restore call, and the two directions
// cannot drift. Validation that only makes sense against image bytes is
// guarded by Decoding and reported through Fail; like the Reader's, the
// error is sticky, so after the first failure every further field
// decodes as zero and straight-line field lists need no checks — only
// loops that allocate or act per element test Err.
type Codec struct {
	w   Writer
	r   Reader
	dec bool
}

// NewEncoder returns a codec that writes a fresh image.
func NewEncoder() *Codec { return &Codec{} }

// NewDecoder returns a codec that reads the image b.
func NewDecoder(b []byte) *Codec { return &Codec{r: Reader{buf: b}, dec: true} }

// Decoding reports the direction: true when fields are being
// overwritten from an image.
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the image an encoder has written so far.
func (c *Codec) Bytes() []byte { return c.w.buf }

// Remaining reports the bytes a decoder has yet to read.
func (c *Codec) Remaining() int { return c.r.Remaining() }

// Err reports the first decoding or validation error, if any.
func (c *Codec) Err() error { return c.r.err }

// Fail records a validation failure — in practice of decoded input: the
// state an encoder writes is the program's own.
func (c *Codec) Fail(err error) { c.r.Fail(err) }

// U8 codes one byte.
func (c *Codec) U8(p *uint8) {
	if c.dec {
		*p = c.r.U8()
	} else {
		c.w.U8(*p)
	}
}

// Bool codes a bool as one byte.
func (c *Codec) Bool(p *bool) {
	if c.dec {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

// U16 codes a little-endian uint16.
func (c *Codec) U16(p *uint16) {
	if c.dec {
		*p = c.r.U16()
	} else {
		c.w.U16(*p)
	}
}

// U32 codes a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if c.dec {
		*p = c.r.U32()
	} else {
		c.w.U32(*p)
	}
}

// I32 codes an int32 as its two's-complement uint32.
func (c *Codec) I32(p *int32) {
	if c.dec {
		*p = int32(c.r.U32())
	} else {
		c.w.U32(uint32(*p))
	}
}

// U64 codes a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if c.dec {
		*p = c.r.U64()
	} else {
		c.w.U64(*p)
	}
}

// I64 codes a little-endian int64.
func (c *Codec) I64(p *int64) {
	if c.dec {
		*p = c.r.I64()
	} else {
		c.w.I64(*p)
	}
}

// Int codes an int as int64.
func (c *Codec) Int(p *int) {
	if c.dec {
		*p = c.r.Int()
	} else {
		c.w.Int(*p)
	}
}

// F64 codes a float64 by its exact IEEE-754 bits.
func (c *Codec) F64(p *float64) {
	if c.dec {
		*p = c.r.F64()
	} else {
		c.w.F64(*p)
	}
}

// Bytes32 codes a uint32-length-prefixed byte slice; decoding stores a
// copy, never a view of the image.
func (c *Codec) Bytes32(p *[]byte) {
	if c.dec {
		*p = c.r.Bytes32()
	} else {
		c.w.Bytes32(*p)
	}
}

// Span codes n raw bytes in one call, for a section coded in bulk:
// encoding appends n zero bytes and returns them for the caller to fill,
// decoding returns the next n bytes of the image for the caller to read
// (a view, not a copy; nil once the codec has failed). Either way the
// bytes are the section's whole layout, so the caller lays the fields
// out itself, in the little-endian widths the field codecs use.
func (c *Codec) Span(n int) []byte {
	if c.dec {
		return c.r.take(n)
	}
	return c.w.Span(n)
}

// String codes a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.dec {
		*p = c.r.String()
	} else {
		c.w.String(*p)
	}
}

// Len codes a collection length: encoding writes n and returns it,
// decoding ignores n and returns the recorded length, which Reader.Len
// has bounded by the bytes remaining (0 once the codec has failed).
// Most callers want FixedLen (a shape the rebuild fixes) or Slice (a
// collection rebuilt from the image).
func (c *Codec) Len(n int) int {
	if c.dec {
		return c.r.Len()
	}
	c.w.Len(n)
	return n
}

// FixedLen codes the length prefix of a collection whose shape the
// rebuild fixes (n elements) and reports whether the image agrees;
// decoding a different length fails the codec, naming the collection.
func (c *Codec) FixedLen(n int, what string) bool {
	if got := c.Len(n); c.dec && got != n {
		c.Fail(fmt.Errorf("snap: %s: image holds %d, rebuilt state %d", what, got, n))
		return false
	}
	return true
}

// Slice codes the length prefix of *s and, decoding, replaces *s with a
// fresh zeroed slice of the recorded length — the one place an image
// sizes an allocation, bounded through Len. The caller then codes the
// elements in place with a plain loop over *s.
func Slice[S ~[]E, E any](c *Codec, s *S) {
	n := c.Len(len(*s))
	if c.dec {
		*s = make(S, n)
	}
}

// Map codes a map in ascending key order — the deterministic bytes the
// golden hash needs — with each coding one value. Decoding replaces *m
// with the recorded entries; a nil map with none recorded stays nil.
func Map[V any](c *Codec, m *map[uint32]V, each func(v *V)) {
	keys := slices.Sorted(maps.Keys(*m))
	Slice(c, &keys)
	if c.dec && (len(keys) > 0 || *m != nil) {
		*m = make(map[uint32]V, len(keys))
	}
	for i := 0; i < len(keys) && c.Err() == nil; i++ {
		c.U32(&keys[i])
		v := (*m)[keys[i]]
		each(&v)
		if c.dec {
			(*m)[keys[i]] = v
		}
	}
}

// Enum codes a small enumeration as one byte. Decoding, a value at or
// past limit — one that would index beyond the arrays the enumeration
// sizes — fails the codec and leaves *p alone.
func Enum[T ~int | ~uint8](c *Codec, p *T, limit T) {
	v := uint8(*p)
	c.U8(&v)
	if !c.dec {
		return
	}
	if T(v) >= limit {
		c.Fail(fmt.Errorf("snap: enumeration value %d, want below %d", v, limit))
		return
	}
	*p = T(v)
}
