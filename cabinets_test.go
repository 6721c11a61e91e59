package spinngo

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"spinngo/internal/phy"
	"spinngo/internal/sim"
)

// The cabinet-hierarchy contract: configuring Cabinets adds a third,
// slower link class (machine-room cables between cabinets), and a
// cabinet-aligned partition converts exactly that slowness into a
// conservative lookahead a further notch beyond the board-aligned one —
// while the run report stays byte-identical across every worker count
// and partition geometry on the same configuration.

// Pinned lookahead notches of the default slow presets on the reference
// machine: 210 ns on-board (the uniform bound), 397 ns for a
// board-aligned cut, 1035 ns for a cabinet-aligned cut. These are
// priced from the PHY defaults (router latency + serialisation of a
// 40-bit mc frame over the class's wire/logic delays); moving them
// means the default link models changed.
const (
	boardLookaheadNS   = 397
	cabinetLookaheadNS = 1035
)

// cabinetConfig is the reference three-level machine: an 8x8 torus of
// four 4x4-chip boards, each board its own 1x1-board cabinet (the
// smallest torus where a cabinet-aligned cut exists), slow presets on
// both cabled levels, and a workload spread over the whole torus.
func cabinetConfig(partition string, workers int) MachineConfig {
	return MachineConfig{
		Width: 8, Height: 8, Seed: 1, Workers: workers, Partition: partition,
		Boards: "4x4", BoardLinkParams: BoardLinkSlow,
		Cabinets: "1x1", CabinetLinkParams: CabinetLinkSlow,
		MaxAppCoresPerChip: 2, MaxNeuronsPerCore: 8,
	}
}

// cabinetRun boots, loads and runs the reference workload on the
// three-level machine.
func cabinetRun(t *testing.T, partition string, workers int) (*Machine, *RunReport) {
	t.Helper()
	m, err := NewMachine(cabinetConfig(partition, workers))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	model := NewModel()
	stim := model.AddPoisson("stim", 200, 150)
	exc := model.AddLIF("exc", 800, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{
		Rule: RandomRule, P: 0.1, WeightNA: 1.2, DelayMS: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}

// TestCabinetLookaheadWidensWindows pins the acceptance criterion of
// the third hierarchy level: a cabinet-aligned cut of slow
// cabinet-to-cabinet cables runs at a conservative lookahead strictly
// beyond the board-aligned 397 ns notch, taking fewer window barriers
// than a mixed-cut partition of the same machine — while every cell
// produces the byte-identical run report.
func TestCabinetLookaheadWidensWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine cabinet sweep")
	}
	// Bands at this shard count slice board interiors, making the
	// mixed-cut baseline; blocks would coincide with the cabinet tile.
	cabs, cabsRep := cabinetRun(t, PartitionCabinets, 4)
	defer cabs.Close()
	bands, bandsRep := cabinetRun(t, PartitionBands, 4)
	defer bands.Close()

	cst, kst := cabs.SimStats(), bands.SimStats()
	if cst.Geometry != "cabinets" || cst.Shards != 4 {
		t.Fatalf("cabinets SimStats = %+v", cst)
	}
	if cst.Levels[2] != "4x4" { // 1x1-board cabinets of 4x4-chip boards
		t.Errorf("SimStats cabinet level = %q, want 4x4 chips", cst.Levels[2])
	}
	if cst.CutLinksByLevel[0] != 0 || cst.CutLinksByLevel[1] != 0 || cst.CutLinksByLevel[2] == 0 {
		t.Errorf("cabinets cut not cabinet-aligned: %d on-board + %d board + %d cabinet",
			cst.CutLinksByLevel[0], cst.CutLinksByLevel[1], cst.CutLinksByLevel[2])
	}
	// The pinned notches: a further widening beyond the board-aligned
	// bound, both strictly above the uniform single-params bound.
	if cst.Lookahead != cabinetLookaheadNS*sim.Nanosecond {
		t.Errorf("cabinet-aligned lookahead = %v, want %dns", cst.Lookahead, cabinetLookaheadNS)
	}
	if cst.Lookahead <= boardLookaheadNS*sim.Nanosecond {
		t.Errorf("cabinet-aligned lookahead %v not beyond the board notch %dns",
			cst.Lookahead, boardLookaheadNS)
	}
	if cst.Lookahead <= cst.UniformLookahead {
		t.Errorf("cabinet-aligned lookahead %v not above the uniform bound %v",
			cst.Lookahead, cst.UniformLookahead)
	}
	// The bands cut crosses fast on-board links, pinning it to the
	// uniform bound — and to more window barriers over the same 40 ms.
	if kst.CutLinksByLevel[0] == 0 {
		t.Fatalf("bands cut unexpectedly cable-aligned: %+v", kst)
	}
	if kst.Lookahead != kst.UniformLookahead {
		t.Errorf("mixed-cut lookahead %v, want the uniform bound %v",
			kst.Lookahead, kst.UniformLookahead)
	}
	if cst.Windows >= kst.Windows {
		t.Errorf("cabinets took %d windows, bands %d — wider lookahead should mean fewer barriers",
			cst.Windows, kst.Windows)
	}
	// Execution strategy must not leak into results.
	if !reflect.DeepEqual(cabsRep, bandsRep) {
		t.Errorf("cabinets/bands reports diverged:\ncabinets: %+v\nbands: %+v", *cabsRep, *bandsRep)
	}
	for _, workers := range []int{1, 2} {
		m, rep := cabinetRun(t, PartitionCabinets, workers)
		m.Close()
		if !reflect.DeepEqual(rep, cabsRep) {
			t.Errorf("cabinets/%d diverged from cabinets/4:\nref: %+v\ngot: %+v",
				workers, *cabsRep, *rep)
		}
	}
}

// TestCabinetBoardLookaheadOrder pins the hierarchy ordering on the
// two-level ablation: without Cabinets the same machine's board-aligned
// cut reaches exactly the 397 ns notch — the baseline the cabinet level
// must exceed.
func TestCabinetBoardLookaheadOrder(t *testing.T) {
	m, err := NewMachine(MachineConfig{
		Width: 8, Height: 8, Seed: 1, Workers: 4, Partition: PartitionBoards,
		Boards: "4x4", BoardLinkParams: BoardLinkSlow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if st := m.SimStats(); st.Lookahead != boardLookaheadNS*sim.Nanosecond {
		t.Errorf("board-aligned lookahead = %v, want %dns", st.Lookahead, boardLookaheadNS)
	}
}

// TestCabinetEnergySplit pins the third wire-energy bucket: cabinet
// transitions carry the cabinet price exactly, and the uniform ablation
// keeps the cabinet level timing-neutral.
func TestCabinetEnergySplit(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine cabinet sweep")
	}
	m, rep := cabinetRun(t, PartitionCabinets, 2)
	defer m.Close()
	if rep.WireTransitions[2] == 0 {
		t.Fatal("workload crossed no cabinet cables; widen it")
	}
	want := float64(rep.WireTransitions[2]) * phy.DefaultLink(2).EnergyPerTransition * 1e-12
	if math.Abs(rep.WireEnergyJ[2]-want) > 1e-18 {
		t.Errorf("cabinet wire energy %g J, want %g J", rep.WireEnergyJ[2], want)
	}

	// The uniform ablation prices cabinet cables as board-to-board
	// links: no widened third notch.
	uniform, err := NewMachine(MachineConfig{
		Width: 8, Height: 8, Seed: 1, Workers: 2, Partition: PartitionCabinets,
		Boards: "4x4", BoardLinkParams: BoardLinkSlow,
		Cabinets: "1x1", CabinetLinkParams: CabinetLinkUniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer uniform.Close()
	if st := uniform.SimStats(); st.Lookahead > boardLookaheadNS*sim.Nanosecond {
		t.Errorf("uniform cabinet ablation widened lookahead to %v", st.Lookahead)
	}
}

// TestCabinetConfigValidation rejects contradictory cabinet
// configurations.
func TestCabinetConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MachineConfig
	}{
		{"cabinets without boards", MachineConfig{Width: 8, Height: 8, Cabinets: "2x2"}},
		{"untileable cabinets", MachineConfig{Width: 8, Height: 8, Boards: "4x4", Cabinets: "3x3"}},
		{"malformed cabinets", MachineConfig{Width: 8, Height: 8, Boards: "4x4", Cabinets: "2by2"}},
		{"cabinets partition without cabinets", MachineConfig{Width: 8, Height: 8, Boards: "4x4", Partition: PartitionCabinets}},
		{"cabinet link params without cabinets", MachineConfig{Width: 8, Height: 8, Boards: "4x4", CabinetLinkParams: CabinetLinkSlow}},
		{"unknown cabinet link preset", MachineConfig{Width: 8, Height: 8, Boards: "4x4", Cabinets: "1x1", CabinetLinkParams: "warp"}},
	} {
		if _, err := NewMachine(tc.cfg); err == nil {
			t.Errorf("%s: NewMachine accepted %+v", tc.name, tc.cfg)
		}
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
	}
	good := MachineConfig{Width: 8, Height: 8, Boards: "4x4",
		Cabinets: "2x2", CabinetLinkParams: CabinetLinkSlow}
	if err := good.Validate(); err != nil {
		t.Errorf("valid cabinet config rejected: %v", err)
	}
	aligned := cabinetConfig(PartitionCabinets, 4)
	if err := aligned.Validate(); err != nil {
		t.Errorf("reference cabinet config rejected: %v", err)
	}
}

// cabinetFailRun is the determinism-matrix cell workload: the congested
// recurrent network on the three-level machine, chunked around a
// mid-run fault on a cabinet cable — (3,3)E crosses the x=3|4 cabinet
// edge of the 1x1-board cabinets.
func cabinetFailRun(t *testing.T, partition string, workers int) *RunReport {
	t.Helper()
	// The congested-matrix machine shape (default neurons-per-core so
	// the 1500-neuron workload fits 128 cores), plus the cabinet level.
	m, err := NewMachine(MachineConfig{
		Width: 8, Height: 8, Seed: 1, Workers: workers, Partition: partition,
		MaxAppCoresPerChip: 2, Boards: "4x4", BoardLinkParams: BoardLinkSlow,
		Cabinets: "1x1", CabinetLinkParams: CabinetLinkSlow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	model := NewModel()
	stim := model.AddPoisson("stim", 300, 300)
	exc := model.AddLIF("exc", 1200, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{
		Rule: RandomRule, P: 0.1, WeightNA: 1.2, DelayMS: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := model.Connect(exc, exc, Conn{
		Rule: RandomRule, P: 0.05, WeightNA: 0.5, DelayMS: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(30); err != nil {
		t.Fatal(err)
	}
	if err := m.FailLink(3, 3, "E"); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDeterminismCabinetFailLink extends the determinism matrix with
// the cabinets cell: on the three-level machine, a mid-run fault on a
// cabinet cable must leave every (geometry, worker count) trajectory
// byte-identical to the sequential bands reference — a dead machine-room
// cable re-shapes the live cut, and possibly the achieved lookahead,
// but never the simulation.
func TestDeterminismCabinetFailLink(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	ref := cabinetFailRun(t, PartitionBands, 1)
	if ref.WireTransitions[2] == 0 {
		t.Fatal("workload crossed no cabinet cables; the cabinet class is not being exercised")
	}
	for _, workers := range []int{1, 2, 4} {
		got := cabinetFailRun(t, PartitionCabinets, workers)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("cabinets/%d diverged from bands/1:\nref: %+v\ngot: %+v", workers, *ref, *got)
		}
	}
}

// TestAutoPartitionPrefersCableAlignedCut checks the automatic geometry
// ranking on a three-level machine: at equal shard counts the widest
// lookahead wins, so auto picks a cut made entirely of cabled links.
func TestAutoPartitionPrefersCableAlignedCut(t *testing.T) {
	m, err := NewMachine(cabinetConfig(PartitionAuto, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.SimStats()
	if st.Shards != 4 {
		t.Fatalf("auto reached %d shards, want 4", st.Shards)
	}
	if st.CutLinksByLevel[0] != 0 {
		t.Errorf("auto chose a cut with %d fast links (geometry %s); want cable-aligned",
			st.CutLinksByLevel[0], st.Geometry)
	}
	if st.Lookahead != cabinetLookaheadNS*sim.Nanosecond {
		t.Errorf("auto lookahead = %v, want the cabinet notch %dns", st.Lookahead, cabinetLookaheadNS)
	}
}

// sparseConfig is a large three-level machine for the sparse-state
// tests: 8x8-chip boards in 2x2-board (16x16-chip) cabinets.
func sparseConfig(side int) MachineConfig {
	return MachineConfig{
		Width: side, Height: side, Seed: 1, Workers: 4, Partition: PartitionCabinets,
		Boards: "8x8", BoardLinkParams: BoardLinkSlow,
		Cabinets: "2x2", CabinetLinkParams: CabinetLinkSlow,
	}
}

// liveHeap reports the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIdleTorusStaysSparse pins the sparse-state model at the paper's
// scale: constructing a 256x256-chip torus (a million cores) without
// booting it materialises no chip, and retains live heap proportional
// to the chip address table, not to per-chip state. Measured: 0 of
// 65536 chips instantiated, 1,132,920 B retained (17.3 B per torus
// chip; go1.24 linux/amd64). The 4 MiB bound is 64 B per torus chip —
// any dense per-chip structure on the construction path (a booted chip
// holds ~5 KiB) exceeds it dozens of times over.
func TestIdleTorusStaysSparse(t *testing.T) {
	const heapBound = 4 << 20
	before := liveHeap()
	m, err := NewMachine(sparseConfig(256))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	heap := liveHeap() - before
	if got, torus := m.InstantiatedChips(), m.TorusChips(); torus != 256*256 || got > torus/256 {
		t.Errorf("idle machine instantiated %d of %d chips, want at most one cabinet's worth (%d)",
			got, torus, torus/256)
	}
	if heap > heapBound {
		t.Errorf("idle 256x256 torus retains %d B of live heap (%.1f B/chip), bound %d B",
			heap, float64(heap)/float64(m.TorusChips()), heapBound)
	}
	t.Logf("idle 256x256: %d/%d chips instantiated, %d B live heap", m.InstantiatedChips(), m.TorusChips(), heap)
}

// TestBootedTorusAliasesSystemImage pins the other half: a boot touches
// every chip, so heap per chip is flat, and stays bounded because a
// booted chip holds only what it uses: the flood-filled 8 KiB system
// image is stored once per machine (each chip holds one bit per block in
// the machine's segment table), flood-fill state lives in dense
// per-command arrays, and DMA controllers are built on first use.
// Measured on a booted 32x32 torus (go1.24 linux/amd64): 5,096 B of live
// heap per chip; with a private image copy per chip (SDRAM.Store in
// place of StoreShared on the fill path) the same machine measures
// 15,672 B. The 7 KiB bound sits between the two, so losing the
// aliasing — or growing booted per-chip state by two fifths — fails
// here.
func TestBootedTorusAliasesSystemImage(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 1024 chips")
	}
	const perChipBound = 7 << 10
	before := liveHeap()
	m, err := NewMachine(sparseConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	heap := liveHeap() - before
	chips := m.TorusChips()
	if got := m.InstantiatedChips(); got != chips {
		t.Errorf("boot instantiated %d of %d chips, want all", got, chips)
	}
	if perChip := heap / int64(chips); perChip > perChipBound {
		t.Errorf("booted 32x32 torus retains %d B of live heap per chip, bound %d B (one private 8 KiB image copy per chip would read ~15 KiB)",
			perChip, perChipBound)
	}
	t.Logf("booted 32x32: %d B live heap, %d B/chip", heap, heap/int64(chips))
}
