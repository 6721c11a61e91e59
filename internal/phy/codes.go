// Package phy models the self-timed physical interconnect of SpiNNaker
// (paper section 5.1): the 3-of-6 return-to-zero (RTZ) code used by the
// on-chip CHAIN fabric, the 2-of-7 non-return-to-zero (NRZ) code used by
// the inter-chip links, the glitch-tolerant phase converter of Fig 6, and
// the token-reset protocol that recovers links from deadlock.
//
// The models count wire transitions per 4-bit symbol (the energy proxy
// the paper uses) and handshake round trips (the throughput proxy), and
// they reproduce the paper's claims that the 2-of-7 NRZ link delivers
// twice the throughput for less than half the energy per 4-bit symbol.
package phy

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
