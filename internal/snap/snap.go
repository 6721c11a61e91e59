// Package snap provides the deterministic binary encoding used by the
// versioned machine-snapshot format: little-endian, length-prefixed,
// with no map-order or padding nondeterminism — the same state always
// encodes to the same bytes, which is what lets CI pin the format with
// a golden hash.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer accumulates a snapshot section. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 by its exact IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes32 appends a uint32 length prefix followed by the raw bytes.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
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

// NewReader wraps an encoded buffer.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err reports the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

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
