// Package phy models the self-timed physical interconnect of SpiNNaker
// (paper section 5.1): the 3-of-6 return-to-zero (RTZ) code used by the
// on-chip CHAIN fabric, the 2-of-7 non-return-to-zero (NRZ) code used by
// the inter-chip links, the glitch-tolerant phase converter of Fig 6, and
// the token-reset protocol that recovers links from deadlock.
//
// The models are symbol-level: they count wire transitions (the energy
// proxy the paper uses) and handshake round trips (the throughput proxy),
// and they reproduce the paper's claims that the 2-of-7 NRZ link delivers
// twice the throughput for less than half the energy per 4-bit symbol.
package phy

import "fmt"

// Code identifies one of the two m-of-n delay-insensitive codes.
type Code int

const (
	// RTZ3of6 is the on-chip 3-of-6 return-to-zero code: each symbol
	// raises exactly 3 of 6 wires, then all return to zero before the
	// next symbol.
	RTZ3of6 Code = iota
	// NRZ2of7 is the inter-chip 2-of-7 non-return-to-zero code: each
	// symbol toggles exactly 2 of 7 wires; levels persist between
	// symbols.
	NRZ2of7
)

// String names the code as in the paper.
func (c Code) String() string {
	if c == RTZ3of6 {
		return "3-of-6 RTZ"
	}
	return "2-of-7 NRZ"
}

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

// TransitionsPerSymbol reports the number of wire transitions (data plus
// acknowledge) needed to convey one 4-bit symbol. This is the energy
// figure of merit in section 5.1:
//
//	3-of-6 RTZ: 3 wires rise + 3 wires fall + ack rise + ack fall = 8
//	2-of-7 NRZ: 2 wires toggle + ack toggles once            = 3
func (c Code) TransitionsPerSymbol() int {
	if c == RTZ3of6 {
		return 2*3 + 2
	}
	return 2 + 1
}

// RoundTripsPerSymbol reports how many complete out-and-return signalling
// loops the handshake needs per symbol: the RTZ protocol completes one
// loop for the symbol and a second for the return-to-zero; NRZ completes
// one (section 5.1).
func (c Code) RoundTripsPerSymbol() int {
	if c == RTZ3of6 {
		return 2
	}
	return 1
}
