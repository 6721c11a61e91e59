package phy

import (
	"fmt"

	"spinngo/internal/sim"
)

// LinkParams characterise one self-timed link.
type LinkParams struct {
	// Level is the packaging level whose accounting bucket the link's
	// traversals and wire energy land in: the level the block is the
	// default of. A level that reuses the block of the level below (a
	// "uniform" preset) keeps that level's bucket.
	Level int
	Code  Code
	// WireDelay is the one-way propagation delay of the wires. Off-chip
	// this dominates (paper: "chip-to-chip delays dominate
	// performance"); on chip it is small.
	WireDelay sim.Time
	// LogicDelay is the fixed per-handshake logic overhead at each end.
	LogicDelay sim.Time
	// EnergyPerTransition is the energy (picojoules) of one wire
	// transition; off-chip transitions cost far more than on-chip ones.
	EnergyPerTransition float64
}

// levelDefaults is the machine's packaging hierarchy as the paper builds
// it, bottom-up: what one unit of each level is called, what the links
// whose highest crossing is that level are called, and their default
// link block. Every level signals 2-of-7 NRZ; what changes going up is
// the wire the handshake loop closes over. Chip-to-chip links on one
// board run over PCB traces. A link leaving its board crosses a
// connector and cable, so the wire flight triples and each transition
// drives far more capacitance. A link leaving its cabinet crosses metres
// of machine-room cabling, the slowest and costliest wire of all.
// Because the self-timed protocol simply runs at the speed the wires
// allow, the machine-wide consequence of each step up is a longer
// serialisation floor, which the sharded engine converts into a wider
// lookahead on cuts aligned to that level.
var levelDefaults = [...]struct {
	unit, links string
	link        LinkParams
}{
	{"chip", "on-board", LinkParams{
		Level: 0, Code: NRZ2of7,
		WireDelay:           4 * sim.Nanosecond,
		LogicDelay:          2 * sim.Nanosecond,
		EnergyPerTransition: 6.0, // pJ: off-chip trace + pad
	}},
	{"board", "board-to-board", LinkParams{
		Level: 1, Code: NRZ2of7,
		WireDelay:           12 * sim.Nanosecond, // connector + cable flight
		LogicDelay:          3 * sim.Nanosecond,  // pad + buffer at each end
		EnergyPerTransition: 20.0,                // pJ: cable drive
	}},
	{"cabinet", "cabinet-to-cabinet", LinkParams{
		Level: 2, Code: NRZ2of7,
		WireDelay:           40 * sim.Nanosecond, // metres of cabinet cable
		LogicDelay:          5 * sim.Nanosecond,  // repeater + pad at each end
		EnergyPerTransition: 60.0,                // pJ: long-cable drive
	}},
}

// DefaultLink returns the default link block of packaging level level:
// 0 for chip-to-chip links on one board, 1 for board-to-board links, 2
// for cabinet-to-cabinet links.
func DefaultLink(level int) LinkParams { return levelDefaults[level].link }

// LevelName reports what one unit of packaging level level is called
// ("chip", "board", "cabinet") and what the links whose highest
// crossing is that level are called ("on-board", "board-to-board",
// "cabinet-to-cabinet").
func LevelName(level int) (unit, links string) {
	return levelDefaults[level].unit, levelDefaults[level].links
}

// SymbolPeriod reports the time to transfer one 4-bit symbol: each
// handshake round trip costs an out-and-return wire flight plus logic
// overhead, and the code determines how many round trips a symbol needs.
func (p LinkParams) SymbolPeriod() sim.Time {
	perLoop := 2*p.WireDelay + p.LogicDelay
	return sim.Time(p.Code.RoundTripsPerSymbol()) * perLoop
}

// SymbolEnergy reports the energy of one 4-bit symbol in picojoules.
func (p LinkParams) SymbolEnergy() float64 {
	return float64(p.Code.TransitionsPerSymbol()) * p.EnergyPerTransition
}

// ThroughputMbps reports the payload throughput in megabits per second.
func (p LinkParams) ThroughputMbps() float64 {
	return 4.0 / p.SymbolPeriod().Seconds() / 1e6
}

// TransferCost reports the time and energy to move n bytes (2 symbols per
// byte, plus one EOP symbol per frame).
type TransferCost struct {
	Time        sim.Time
	Transitions int
	EnergyPJ    float64
	Symbols     int
}

// FrameCost computes the cost of transferring one n-byte frame followed
// by an end-of-packet symbol.
func (p LinkParams) FrameCost(nBytes int) TransferCost {
	symbols := nBytes*2 + 1 // 2 nibbles per byte + EOP
	tr := symbols * p.Code.TransitionsPerSymbol()
	return TransferCost{
		Time:        sim.Time(symbols) * p.SymbolPeriod(),
		Transitions: tr,
		EnergyPJ:    float64(tr) * p.EnergyPerTransition,
		Symbols:     symbols,
	}
}

// SerialisationFloor reports the minimum time any frame of at least
// minBytes occupies this link — the frame cost of the smallest packet.
// The sharded simulation engine folds this into its cross-shard latency
// bound: an event cannot affect another chip sooner than one minimal
// frame plus the router pipeline, so lookahead windows may be that much
// wider than the router latency alone.
func (p LinkParams) SerialisationFloor(minBytes int) sim.Time {
	return p.FrameCost(minBytes).Time
}

// Validate sanity-checks link parameters.
func (p LinkParams) Validate() error {
	if p.WireDelay < 0 || p.LogicDelay < 0 {
		return fmt.Errorf("phy: negative delay in %+v", p)
	}
	if p.EnergyPerTransition < 0 {
		return fmt.Errorf("phy: negative energy in %+v", p)
	}
	return nil
}
