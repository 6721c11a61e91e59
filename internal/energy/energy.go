// Package energy implements the cost models behind the paper's "energy
// frugality" principle (sections 2 and 3.3): MIPS/mm² and MIPS/W device
// comparisons, the purchase-versus-energy ownership model ("a Watt costs
// $1/year... the energy cost of a PC equals the purchase cost after a
// little more than three years"), and fine-grained activity-based energy
// accounting for simulated runs (instructions, WFI sleep, packet wire
// transitions, SDRAM traffic).
package energy

import "spinngo/internal/sim"

// DeviceModel characterises one compute device for the section-2/3.3
// comparisons.
type DeviceModel struct {
	Name string
	// MIPS is sustained instruction throughput.
	MIPS float64
	// ActiveW is power at full load, watts.
	ActiveW float64
	// AreaMM2 is processor silicon area.
	AreaMM2 float64
	// CapitalUSD is purchase cost.
	CapitalUSD float64
}

// SpiNNakerNode returns the paper's 20-core node: "a similar performance
// to a PC from each 20-processor node, for a component cost of around
// $20 and a power consumption under 1 Watt".
func SpiNNakerNode() DeviceModel {
	return DeviceModel{
		Name:       "spinnaker-node",
		MIPS:       20 * 200, // 20 ARM968 cores at ~200 MIPS
		ActiveW:    0.9,
		AreaMM2:    100, // one MPSoC
		CapitalUSD: 20,
	}
}

// DesktopPC returns the paper's reference PC: "$1,000 and consumes
// 300W", with throughput comparable to the 20-core node (section 2:
// "about the same throughput as a high-end desktop processor").
func DesktopPC() DeviceModel {
	return DeviceModel{
		Name:       "desktop-pc",
		MIPS:       4000,
		ActiveW:    300,
		AreaMM2:    250, // high-end desktop die
		CapitalUSD: 1000,
	}
}

// MIPSPerWatt is the paper's energy-efficiency figure of merit.
func (d DeviceModel) MIPSPerWatt() float64 { return d.MIPS / d.ActiveW }

// MIPSPerMM2 is the paper's silicon-efficiency figure of merit.
func (d DeviceModel) MIPSPerMM2() float64 { return d.MIPS / d.AreaMM2 }

// OwnershipModel prices a device over its life.
type OwnershipModel struct {
	// USDPerWattYear is the energy price ("a Watt costs $1/year").
	USDPerWattYear float64
}

// DefaultOwnership returns the paper's $1/W/year.
func DefaultOwnership() OwnershipModel { return OwnershipModel{USDPerWattYear: 1} }

// CrossoverYears reports when cumulative energy spend equals the
// purchase cost — the paper's "little more than three years" for a PC.
func (o OwnershipModel) CrossoverYears(d DeviceModel) float64 {
	if d.ActiveW <= 0 {
		return 0
	}
	return d.CapitalUSD / (d.ActiveW * o.USDPerWattYear)
}

// USDPerGIPSYear reports the cost of a sustained billion instructions
// per second for a year, amortising capital over the given lifetime —
// the cost-effectiveness number the machine is designed to minimise.
func (o OwnershipModel) USDPerGIPSYear(d DeviceModel, lifetimeYears float64) float64 {
	if lifetimeYears <= 0 || d.MIPS <= 0 {
		return 0
	}
	perYear := d.CapitalUSD/lifetimeYears + d.ActiveW*o.USDPerWattYear
	return perYear / (d.MIPS / 1000)
}

// Accounting converts simulation activity counters into energy. All
// energies in picojoules, powers in watts. Wire transitions carry their
// own price (Wire), set by the link block of the packaging level they
// were counted on.
type Accounting struct {
	// InstrPJ is energy per ARM instruction (~0.2 nJ at 130 nm).
	InstrPJ float64
	// WFIPowerW is a sleeping core's power.
	WFIPowerW float64
	// BusyOverheadW is clock-tree and local-memory power while active,
	// beyond the per-instruction charge.
	BusyOverheadW float64
	// SDRAMBytePJ prices one byte moved to/from SDRAM.
	SDRAMBytePJ float64
	// ChipStaticW is per-chip leakage and always-on logic.
	ChipStaticW float64
}

// DefaultAccounting returns a 130 nm-era SpiNNaker-like model.
func DefaultAccounting() Accounting {
	return Accounting{
		InstrPJ:       200,
		WFIPowerW:     0.001,
		BusyOverheadW: 0.015,
		SDRAMBytePJ:   100,
		ChipStaticW:   0.05,
	}
}

// Activity is the raw counter bundle for a run (one core, one chip, or
// a whole machine, as the caller aggregates).
type Activity struct {
	Instructions uint64
	BusyTime     sim.Time
	SleepTime    sim.Time
	// Wire holds the link activity of each packaging level, bottom-up.
	Wire       []Wire
	SDRAMBytes uint64
	Chips      int
	Elapsed    sim.Time
}

// Wire is one packaging level's link activity: its wire transitions and
// the energy of one (phy.LinkParams.EnergyPerTransition of the level's
// link block), in picojoules.
type Wire struct {
	Transitions uint64
	PJ          float64
}

// Joules reports the level's share of the energy.
func (w Wire) Joules() float64 { return float64(w.Transitions) * w.PJ * 1e-12 }

// Joules computes total energy for the activity.
func (a Accounting) Joules(act Activity) float64 {
	// Summed in the order instructions, levels bottom-up, SDRAM: the
	// order fixes the floating-point result.
	pj := float64(act.Instructions) * a.InstrPJ
	for _, w := range act.Wire {
		pj += float64(w.Transitions) * w.PJ
	}
	pj += float64(act.SDRAMBytes) * a.SDRAMBytePJ
	j := pj * 1e-12
	j += act.BusyTime.Seconds() * a.BusyOverheadW
	j += act.SleepTime.Seconds() * a.WFIPowerW
	j += act.Elapsed.Seconds() * a.ChipStaticW * float64(act.Chips)
	return j
}

// MeanPowerW reports average power over the activity's elapsed time.
func (a Accounting) MeanPowerW(act Activity) float64 {
	if act.Elapsed <= 0 {
		return 0
	}
	return a.Joules(act) / act.Elapsed.Seconds()
}

// EffectiveMIPSPerWatt reports delivered instructions per second per
// watt for the run.
func (a Accounting) EffectiveMIPSPerWatt(act Activity) float64 {
	p := a.MeanPowerW(act)
	if p <= 0 || act.Elapsed <= 0 {
		return 0
	}
	mips := float64(act.Instructions) / act.Elapsed.Seconds() / 1e6
	return mips / p
}
