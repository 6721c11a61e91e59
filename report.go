package spinngo

import (
	"fmt"
	"strings"

	"spinngo/internal/energy"
	"spinngo/internal/phy"
	"spinngo/internal/sim"
)

// RunReport is the cumulative health and performance summary of a run.
type RunReport struct {
	// BioTimeMS is total simulated biological time.
	BioTimeMS uint64
	// TotalSpikes counts all recorded firings.
	TotalSpikes int
	// PacketsDelivered counts multicast core deliveries.
	PacketsDelivered uint64
	// PacketsDropped counts router drops (should be 0 on a healthy,
	// lightly-loaded machine).
	PacketsDropped uint64
	// EmergencyInvocations counts Fig-8 detours.
	EmergencyInvocations uint64
	// MeanLatencyUS and MaxLatencyUS summarise injection-to-delivery
	// multicast latency in microseconds (paper: well under 1 ms).
	MeanLatencyUS float64
	MaxLatencyUS  float64
	// RealTime reports whether every core kept up with its 1 ms timer.
	RealTime bool
	// Overruns counts missed timer deadlines across all cores.
	Overruns uint64
	// MeanSleepFraction is the average core WFI share (energy
	// frugality: idle cores sleep).
	MeanSleepFraction float64
	// Instructions is the total executed across application cores.
	Instructions uint64
	// EnergyJ prices the run with the default accounting model.
	EnergyJ float64
	// WireTransitions counts link wire transitions per packaging level,
	// bottom-up (one entry per level: on-board, then board-to-board and
	// cabinet-to-cabinet when those levels are configured). A level whose
	// links reuse the block below counts into that level's entry.
	WireTransitions []uint64
	// WireEnergyJ splits the link share of EnergyJ the same way:
	// board-to-board transitions cost several times an on-board trace,
	// and cabinet cables several times again, so a few long hops can
	// dominate the wire budget.
	WireEnergyJ []float64
	// MeanPowerW is the average machine power over the run.
	MeanPowerW float64
	// MIPSPerWatt is delivered instruction throughput per watt.
	MIPSPerWatt float64
	// Migrations counts functional migrations completed (failed cores
	// whose fragments resumed on spare cores).
	Migrations uint64
	// MigrationFailures counts fragments that could not be migrated
	// (no spare core on their chip).
	MigrationFailures uint64
	// SynapseWriteBacks counts modified plastic rows written back to
	// SDRAM (Fig 7).
	SynapseWriteBacks uint64
	// Potentiations and Depressions count STDP weight updates.
	Potentiations uint64
	Depressions   uint64
}

// report assembles the cumulative RunReport. Chip tallies are merged
// in chip-index order with integer arithmetic, so the result is
// identical for every worker count and partition geometry.
func (m *Machine) report() *RunReport {
	var lat sim.TimeStats
	var writeBacks, migrations, migrationFailures uint64
	m.tallies.each(func(_ int, t *chipTallies) {
		lat.Merge(t.latencies)
		writeBacks += t.writeBacks
		migrations += t.migrations
		migrationFailures += t.migrationFailures
	})
	r := &RunReport{
		BioTimeMS:            m.bioMS,
		PacketsDelivered:     m.fab.DeliveredMC(),
		PacketsDropped:       m.fab.DroppedPackets(),
		EmergencyInvocations: m.fab.EmergencyInvocations(),
		RealTime:             true,
		Migrations:           migrations,
		MigrationFailures:    migrationFailures,
		SynapseWriteBacks:    writeBacks,
	}
	if lat.N > 0 {
		r.MeanLatencyUS = lat.MeanMicros()
		r.MaxLatencyUS = lat.MaxMicros()
	}
	act := energy.Activity{Chips: m.cfg.Width * m.cfg.Height, Elapsed: m.pe.Now()}
	var sleepSum float64
	units := 0
	m.eachUnit(func(u *unit) {
		units++
		r.TotalSpikes += u.pop.Rec.Total()
		r.Overruns += u.core.Overruns
		if !u.core.RealTime() {
			r.RealTime = false
		}
		r.Instructions += u.core.Instructions
		act.Instructions += u.core.Instructions
		act.BusyTime += u.core.BusyTime
		act.SleepTime += u.core.SleepTime
		sleepSum += u.core.SleepFraction()
		if u.stdp != nil {
			r.Potentiations += u.stdp.Potentiations
			r.Depressions += u.stdp.Depressions
		}
	})
	if units > 0 {
		r.MeanSleepFraction = sleepSum / float64(units)
	}
	act.Wire = m.fab.WireActivity()
	// SDRAM traffic from every chip.
	for _, n := range m.fab.Nodes() {
		if m.boot != nil && m.boot.Alive(n.Coord) {
			act.SDRAMBytes += m.boot.Chip(n.Coord).SDRAM.BytesMoved
		}
	}
	acc := energy.DefaultAccounting()
	r.EnergyJ = acc.Joules(act)
	r.MeanPowerW = acc.MeanPowerW(act)
	r.MIPSPerWatt = acc.EffectiveMIPSPerWatt(act)
	r.WireTransitions = make([]uint64, len(act.Wire))
	r.WireEnergyJ = make([]float64, len(act.Wire))
	for i, w := range act.Wire {
		r.WireTransitions[i] = w.Transitions
		r.WireEnergyJ[i] = w.Joules()
	}
	return r
}

// String renders a compact multi-line summary.
func (r *RunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bio time:        %d ms\n", r.BioTimeMS)
	fmt.Fprintf(&b, "spikes:          %d\n", r.TotalSpikes)
	fmt.Fprintf(&b, "mc deliveries:   %d (dropped %d, emergency %d)\n",
		r.PacketsDelivered, r.PacketsDropped, r.EmergencyInvocations)
	fmt.Fprintf(&b, "mc latency:      mean %.2f us, max %.2f us\n", r.MeanLatencyUS, r.MaxLatencyUS)
	fmt.Fprintf(&b, "real time:       %v (overruns %d)\n", r.RealTime, r.Overruns)
	fmt.Fprintf(&b, "sleep fraction:  %.3f\n", r.MeanSleepFraction)
	fmt.Fprintf(&b, "instructions:    %d\n", r.Instructions)
	fmt.Fprintf(&b, "energy:          %.4g J (%.4g W mean, %.0f MIPS/W)\n",
		r.EnergyJ, r.MeanPowerW, r.MIPSPerWatt)
	// One line per cabled level that carried traffic; the first also
	// shows the on-board share it is weighed against.
	for i := 1; i < len(r.WireTransitions); i++ {
		if r.WireTransitions[i] == 0 {
			continue
		}
		unit, links := phy.LevelName(i)
		if i == 1 {
			_, below := phy.LevelName(0)
			fmt.Fprintf(&b, "wire energy:     %.4g J %s + %.4g J %s\n",
				r.WireEnergyJ[0], below, r.WireEnergyJ[1], links)
			continue
		}
		fmt.Fprintf(&b, "%-17s%.4g J %s\n", unit+" energy:", r.WireEnergyJ[i], links)
	}
	return b.String()
}
