package phy

import (
	"testing"

	"spinngo/internal/sim"
)

// equalDelayParams returns inter-chip parameters for both codes with the
// same wire and logic delays, isolating the protocol difference — the
// comparison the paper makes in section 5.1.
func equalDelayParams(code Code) LinkParams {
	return LinkParams{
		Code:                code,
		WireDelay:           2 * sim.Nanosecond,
		LogicDelay:          1 * sim.Nanosecond,
		EnergyPerTransition: 6.0,
	}
}

func TestE1ThroughputDoubles(t *testing.T) {
	nrz := equalDelayParams(NRZ2of7)
	rtz := equalDelayParams(RTZ3of6)
	if got, want := rtz.SymbolPeriod(), 2*nrz.SymbolPeriod(); got != want {
		t.Errorf("RTZ symbol period %v, want exactly 2x NRZ (%v)", got, want)
	}
	ratio := nrz.ThroughputMbps() / rtz.ThroughputMbps()
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("NRZ/RTZ throughput ratio = %.3f, paper says 2x", ratio)
	}
}

func TestE1EnergyLessThanHalf(t *testing.T) {
	nrz := equalDelayParams(NRZ2of7)
	rtz := equalDelayParams(RTZ3of6)
	ratio := nrz.SymbolEnergy() / rtz.SymbolEnergy()
	// 3 vs 8 transitions: 0.375, "less than half the energy".
	if ratio >= 0.5 {
		t.Errorf("NRZ/RTZ energy ratio = %.3f, paper says < 0.5", ratio)
	}
	if ratio != 3.0/8.0 {
		t.Errorf("NRZ/RTZ energy ratio = %.3f, want exactly 3/8", ratio)
	}
}

func TestFrameCost(t *testing.T) {
	p := equalDelayParams(NRZ2of7)
	c := p.FrameCost(5) // a 40-bit mc packet
	if c.Symbols != 11 {
		t.Errorf("symbols = %d, want 11 (10 nibbles + EOP)", c.Symbols)
	}
	if c.Transitions != 33 {
		t.Errorf("transitions = %d, want 33", c.Transitions)
	}
	if c.Time != 11*p.SymbolPeriod() {
		t.Errorf("time = %v, want %v", c.Time, 11*p.SymbolPeriod())
	}
	if c.EnergyPJ != 33*6.0 {
		t.Errorf("energy = %g, want %g", c.EnergyPJ, 33*6.0)
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultLink(0).Validate(); err != nil {
		t.Error(err)
	}
	if err := DefaultOnChip().Validate(); err != nil {
		t.Error(err)
	}
	if DefaultLink(0).Code != NRZ2of7 {
		t.Error("inter-chip links use 2-of-7 NRZ in the paper")
	}
	if DefaultOnChip().Code != RTZ3of6 {
		t.Error("on-chip fabric uses 3-of-6 RTZ in the paper")
	}
}

// TestBoardToBoardDefaults walks the level defaults table: every level
// keeps the 2-of-7 NRZ code, each cabled level up is slower and costlier
// than the one below — the ordering that makes a level-aligned cut a
// wider-lookahead cut and splits the wire-energy accounting — and each
// block lands in its own level's bucket.
func TestBoardToBoardDefaults(t *testing.T) {
	if len(levelDefaults) != 3 {
		t.Fatalf("%d default levels, want chip, board and cabinet", len(levelDefaults))
	}
	for level := range levelDefaults {
		lp := DefaultLink(level)
		if err := lp.Validate(); err != nil {
			t.Error(err)
		}
		if lp.Level != level {
			t.Errorf("level %d default lands in bucket %d", level, lp.Level)
		}
		if lp.Code != NRZ2of7 {
			t.Errorf("level %d: cabled links keep the 2-of-7 NRZ code; only the wires change", level)
		}
		if level == 0 {
			continue
		}
		below := DefaultLink(level - 1)
		if lp.SerialisationFloor(5) <= below.SerialisationFloor(5) {
			t.Errorf("level %d serialisation floor should exceed level %d's", level, level-1)
		}
		if lp.EnergyPerTransition <= below.EnergyPerTransition {
			t.Errorf("level %d transition energy should exceed level %d's", level, level-1)
		}
	}
	for level, want := range [][2]string{{"chip", "on-board"}, {"board", "board-to-board"},
		{"cabinet", "cabinet-to-cabinet"}} {
		if unit, links := LevelName(level); unit != want[0] || links != want[1] {
			t.Errorf("LevelName(%d) = %q, %q; want %q, %q", level, unit, links, want[0], want[1])
		}
	}
}

func TestValidateRejectsNegatives(t *testing.T) {
	p := DefaultLink(0)
	p.WireDelay = -1
	if p.Validate() == nil {
		t.Error("negative wire delay accepted")
	}
	p = DefaultLink(0)
	p.EnergyPerTransition = -1
	if p.Validate() == nil {
		t.Error("negative energy accepted")
	}
}

func TestOffChipTradeoffReverses(t *testing.T) {
	// Off chip, wire delay dominates: NRZ wins on time and energy. The
	// decision reverses on chip because RTZ logic is simpler — model
	// that as lower logic delay for RTZ on-chip and check the crossover
	// logic is visible in the parameters.
	on := DefaultOnChip()
	off := DefaultLink(0)
	if off.WireDelay <= on.WireDelay {
		t.Error("off-chip wire delay should exceed on-chip")
	}
	if off.EnergyPerTransition <= on.EnergyPerTransition {
		t.Error("off-chip transition energy should exceed on-chip")
	}
}

func TestSerialisationFloor(t *testing.T) {
	p := DefaultLink(0)
	// The floor of an n-byte frame is exactly its frame cost, and it
	// grows monotonically with the frame size — a larger packet can
	// never undercut the bound computed from the smallest one.
	if got, want := p.SerialisationFloor(5), p.FrameCost(5).Time; got != want {
		t.Errorf("SerialisationFloor(5) = %v, want %v", got, want)
	}
	if p.SerialisationFloor(5) >= p.SerialisationFloor(9) {
		t.Error("floor not monotonic in frame size")
	}
	if p.SerialisationFloor(5) <= 0 {
		t.Error("floor must be positive: it widens the lookahead window")
	}
}
