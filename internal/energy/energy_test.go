package energy

import (
	"math"
	"testing"

	"spinngo/internal/sim"
)

func TestPaperEfficiencyClaims(t *testing.T) {
	node := SpiNNakerNode()
	pc := DesktopPC()
	// Section 2: "On the first of these measures [MIPS/mm2] embedded
	// and high-end processors are roughly equal" — within 3x.
	areaRatio := node.MIPSPerMM2() / pc.MIPSPerMM2()
	if areaRatio < 1.0/3 || areaRatio > 3 {
		t.Errorf("MIPS/mm2 ratio = %.2f, paper says roughly equal", areaRatio)
	}
	// "on energy-efficiency the embedded processors win by an order of
	// magnitude".
	powerRatio := node.MIPSPerWatt() / pc.MIPSPerWatt()
	if powerRatio < 10 {
		t.Errorf("MIPS/W ratio = %.1f, paper says an order of magnitude", powerRatio)
	}
	// "a similar performance to a PC from each 20-processor node".
	perfRatio := node.MIPS / pc.MIPS
	if perfRatio < 0.5 || perfRatio > 2 {
		t.Errorf("throughput ratio = %.2f, paper says similar", perfRatio)
	}
}

func TestPCCrossoverAboutThreeYears(t *testing.T) {
	// Section 3.3: "the energy cost of a PC equals the purchase cost
	// after a little more than three years".
	o := DefaultOwnership()
	y := o.CrossoverYears(DesktopPC())
	if y < 3 || y > 4 {
		t.Errorf("PC crossover = %.2f years, paper says a little more than three", y)
	}
}

func TestOwnershipTotals(t *testing.T) {
	o := DefaultOwnership()
	pc := DesktopPC()
	if got := o.TotalUSD(pc, 0); got != 1000 {
		t.Errorf("year-0 cost = %g", got)
	}
	if got := o.TotalUSD(pc, 10); got != 4000 {
		t.Errorf("10-year cost = %g, want 4000", got)
	}
}

func TestCostPerGIPSYearFavoursNode(t *testing.T) {
	// The machine's raison d'etre: an order of magnitude cheaper
	// compute (capital and energy), section 3.3.
	o := DefaultOwnership()
	node := o.USDPerGIPSYear(SpiNNakerNode(), 3)
	pc := o.USDPerGIPSYear(DesktopPC(), 3)
	if pc/node < 10 {
		t.Errorf("PC/node cost ratio = %.1f, want >= 10", pc/node)
	}
}

func TestJoulesComposition(t *testing.T) {
	a := DefaultAccounting()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	act := Activity{
		Instructions: 1e9,
		BusyTime:     sim.Second / 2,
		SleepTime:    sim.Second / 2,
		Chips:        1,
		Elapsed:      sim.Second,
	}
	j := a.Joules(act)
	// 1e9 instr * 200 pJ = 0.2 J, + 0.5s*0.015 + 0.5s*0.001 + 1s*0.05.
	want := 0.2 + 0.0075 + 0.0005 + 0.05
	if math.Abs(j-want) > 1e-9 {
		t.Errorf("Joules = %g, want %g", j, want)
	}
	if p := a.MeanPowerW(act); math.Abs(p-want) > 1e-9 {
		t.Errorf("power = %g, want %g (1s elapsed)", p, want)
	}
}

// TestWireEnergySplitByClass pins the per-level wire accounting: each
// level's share is its transitions at its own price, and the shares sum
// to the wire part of Joules.
func TestWireEnergySplitByClass(t *testing.T) {
	a := DefaultAccounting()
	act := Activity{
		Wire: []Wire{
			{Transitions: 1000, PJ: 6}, // on-board
			{Transitions: 100, PJ: 20}, // board-to-board
			{Transitions: 10, PJ: 60},  // cabinet-to-cabinet
		},
		Elapsed: sim.Second,
	}
	onJ, boardJ, cabJ := act.Wire[0].Joules(), act.Wire[1].Joules(), act.Wire[2].Joules()
	if math.Abs(onJ-6000e-12) > 1e-18 || math.Abs(boardJ-2000e-12) > 1e-18 ||
		math.Abs(cabJ-600e-12) > 1e-18 {
		t.Errorf("wire joules = %g, %g, %g; want 6e-9, 2e-9, 6e-10", onJ, boardJ, cabJ)
	}
	// The split is exhaustive: it sums to the wire share of Joules.
	wireOnly := act
	wireShare := a.Joules(wireOnly)
	if math.Abs(wireShare-(onJ+boardJ+cabJ)) > 1e-18 {
		t.Errorf("wire share %g != split sum %g", wireShare, onJ+boardJ+cabJ)
	}
	// A tenth of the traffic on cabled links costs a third of the wire
	// budget at default prices — the frugality argument for keeping
	// traffic on the board.
	if boardJ*3 < onJ/3 {
		t.Errorf("board share %g implausibly small next to %g", boardJ, onJ)
	}
}

func TestEffectiveMIPSPerWatt(t *testing.T) {
	a := DefaultAccounting()
	act := Activity{
		Instructions: 200e6, // 200 MIPS for 1 s
		BusyTime:     sim.Second,
		Chips:        1,
		Elapsed:      sim.Second,
	}
	got := a.EffectiveMIPSPerWatt(act)
	// Power: 0.04 J (instr) + 0.015 + 0.05 = 0.105 W -> ~1900 MIPS/W.
	if got < 1000 || got > 4000 {
		t.Errorf("MIPS/W = %.0f, want in the thousands (embedded-class)", got)
	}
}

func TestIdleMachineBurnsOnlyStatic(t *testing.T) {
	a := DefaultAccounting()
	act := Activity{SleepTime: sim.Second, Chips: 1, Elapsed: sim.Second}
	j := a.Joules(act)
	want := a.WFIPowerW + a.ChipStaticW
	if math.Abs(j-want) > 1e-12 {
		t.Errorf("idle joules = %g, want %g", j, want)
	}
}

func TestValidateCatchesNegatives(t *testing.T) {
	a := DefaultAccounting()
	a.SDRAMBytePJ = -1
	if a.Validate() == nil {
		t.Error("negative parameter accepted")
	}
}

func TestZeroElapsedSafe(t *testing.T) {
	a := DefaultAccounting()
	if a.MeanPowerW(Activity{}) != 0 || a.EffectiveMIPSPerWatt(Activity{}) != 0 {
		t.Error("zero-elapsed activity should report zero power")
	}
}
