package phy

// A symbol-level codec for both m-of-n codes: a codebook, a transmitter
// that counts the wire transitions it makes and a receiver that decodes
// them. It is the oracle of the per-symbol figures E1 reads
// (TransitionsPerSymbol, and FrameCost built on it): the codes_test.go
// tests encode real frames through it and require the counted data-wire
// transitions, plus the acknowledge, to be those figures.

import "fmt"

// Wires reports the number of data wires the code uses.
func (c Code) Wires() int {
	if c == RTZ3of6 {
		return 6
	}
	return 7
}

// Weight reports how many wires participate in each symbol.
func (c Code) Weight() int {
	if c == RTZ3of6 {
		return 3
	}
	return 2
}

// chooseMasks enumerates all n-bit masks with exactly k bits set, in
// ascending numeric order, giving a canonical codebook.
func chooseMasks(n, k int) []uint8 {
	var out []uint8
	for m := 0; m < 1<<n; m++ {
		if popcount8(uint8(m)) == k {
			out = append(out, uint8(m))
		}
	}
	return out
}

func popcount8(x uint8) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Codebook maps 4-bit data symbols (plus end-of-packet) to wire masks for
// one code. Both SpiNNaker codes have more codewords than the 17 needed
// (C(6,3)=20, C(7,2)=21); we take the numerically smallest masks, which is
// canonical and documented rather than the silicon's exact assignment —
// the transition counts, which carry the paper's claims, are identical
// for any assignment.
type Codebook struct {
	code     Code
	toMask   [17]uint8 // 16 data symbols + EOP
	fromMask map[uint8]int
}

// EOP is the symbol index used for end-of-packet.
const EOP = 16

// NewCodebook builds the canonical codebook for the given code.
func NewCodebook(code Code) *Codebook {
	masks := chooseMasks(code.Wires(), code.Weight())
	if len(masks) < 17 {
		panic("phy: code has too few codewords")
	}
	cb := &Codebook{code: code, fromMask: make(map[uint8]int, 17)}
	for i := 0; i < 17; i++ {
		cb.toMask[i] = masks[i]
		cb.fromMask[masks[i]] = i
	}
	return cb
}

// Code reports which code this book encodes.
func (cb *Codebook) Code() Code { return cb.code }

// Mask returns the wire mask for a data symbol 0..15 or EOP.
func (cb *Codebook) Mask(symbol int) uint8 {
	if symbol < 0 || symbol > EOP {
		panic(fmt.Sprintf("phy: symbol %d out of range", symbol))
	}
	return cb.toMask[symbol]
}

// Symbol decodes a wire mask back to its symbol, reporting ok=false for
// invalid (non-codeword) masks — e.g. ones corrupted by glitches.
func (cb *Codebook) Symbol(mask uint8) (symbol int, ok bool) {
	s, ok := cb.fromMask[mask]
	return s, ok
}

// Tx is a symbol-level transmitter feeding a wire bundle. It tracks the
// NRZ wire state (for RTZ the state always returns to zero) and counts
// transitions, so a byte stream can be replayed exactly.
type Tx struct {
	book        *Codebook
	state       uint8 // current wire levels (NRZ)
	Transitions int
	Symbols     int
}

// NewTx returns a transmitter for the given code.
func NewTx(code Code) *Tx { return &Tx{book: NewCodebook(code)} }

// SendSymbol emits one symbol and returns the resulting wire state delta
// (the mask of wires that changed).
func (t *Tx) SendSymbol(symbol int) uint8 {
	mask := t.book.Mask(symbol)
	t.Symbols++
	if t.book.code == RTZ3of6 {
		// Wires pulse up then back down: 2 transitions per set wire.
		t.Transitions += 2 * popcount8(mask)
		return mask
	}
	// NRZ: the wires in the mask toggle.
	t.state ^= mask
	t.Transitions += popcount8(mask)
	return mask
}

// SendByte emits the two nibbles of b, low nibble first (as on the wire).
func (t *Tx) SendByte(b byte) {
	t.SendSymbol(int(b & 0x0f))
	t.SendSymbol(int(b >> 4))
}

// SendFrame emits a whole frame followed by EOP.
func (t *Tx) SendFrame(frame []byte) {
	for _, b := range frame {
		t.SendByte(b)
	}
	t.SendSymbol(EOP)
}

// State reports the current NRZ wire levels.
func (t *Tx) State() uint8 { return t.state }

// Rx is the matching symbol-level receiver. Deliver wire-change masks to
// Receive in order; completed frames are returned as byte slices.
type Rx struct {
	book    *Codebook
	nibbles []byte
	frames  [][]byte
	Errors  int
}

// NewRx returns a receiver for the given code.
func NewRx(code Code) *Rx { return &Rx{book: NewCodebook(code)} }

// Receive consumes one wire-change mask. Invalid masks count as symbol
// errors and are discarded (the paper's links pass data "albeit with
// errors" under interference; upper layers use parity).
func (r *Rx) Receive(mask uint8) {
	sym, ok := r.book.Symbol(mask)
	if !ok {
		r.Errors++
		return
	}
	if sym == EOP {
		frame := make([]byte, 0, len(r.nibbles)/2)
		for i := 0; i+1 < len(r.nibbles); i += 2 {
			frame = append(frame, r.nibbles[i]|r.nibbles[i+1]<<4)
		}
		r.frames = append(r.frames, frame)
		r.nibbles = r.nibbles[:0]
		return
	}
	r.nibbles = append(r.nibbles, byte(sym))
}

// Frames returns and clears the completed frames.
func (r *Rx) Frames() [][]byte {
	f := r.frames
	r.frames = nil
	return f
}
