package spinngo

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"spinngo/internal/topo"
)

// repartitionWorkload is a stimulus-driven network spread across the
// torus — enough traffic that the auto policy has signal to steer by.
func repartitionWorkload(t *testing.T, m *Machine) (stim, exc Pop) {
	t.Helper()
	model := NewModel()
	stim = model.AddPoisson("stim", 120, 200)
	exc = model.AddLIF("exc", 400, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{
		Rule: RandomRule, P: 0.1, WeightNA: 1.2, DelayMS: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	return stim, exc
}

// fingerprint renders the run's public observables into one string.
func fingerprint(rep *RunReport, m *Machine, pops ...Pop) string {
	var b strings.Builder
	b.WriteString(rep.String())
	for _, p := range pops {
		spikes := m.Spikes(p)
		sort.Slice(spikes, func(i, j int) bool {
			if spikes[i].TimeMS != spikes[j].TimeMS {
				return spikes[i].TimeMS < spikes[j].TimeMS
			}
			return spikes[i].Neuron < spikes[j].Neuron
		})
		fmt.Fprintf(&b, "%s:", p.Name())
		for _, s := range spikes {
			fmt.Fprintf(&b, " %d@%d", s.Neuron, s.TimeMS)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestRepartitionManualPreservesReport pins the tentpole contract: a
// machine dragged through explicit geometry and shard-count swaps —
// including a collapse to sequential and back out — produces the
// byte-identical report and raster of an untouched twin.
func TestRepartitionManualPreservesReport(t *testing.T) {
	cfg := MachineConfig{Width: 4, Height: 4, Seed: 21, Workers: 4,
		Partition: PartitionBands, MaxAppCoresPerChip: 2}

	ref := buildSmallMachine(t, cfg)
	defer ref.Close()
	stim, exc := repartitionWorkload(t, ref)
	var refRep *RunReport
	for i := 0; i < 4; i++ {
		var err error
		if refRep, err = ref.Run(20); err != nil {
			t.Fatal(err)
		}
	}
	want := fingerprint(refRep, ref, stim, exc)

	m := buildSmallMachine(t, cfg)
	defer m.Close()
	stim2, exc2 := repartitionWorkload(t, m)
	swaps := []struct {
		geometry string
		workers  int
	}{
		{PartitionBlocks, 4},
		{PartitionBands, 1},
		{PartitionBlocks, 8},
		{PartitionBands, 4},
	}
	var rep *RunReport
	for i, sw := range swaps {
		var err error
		if rep, err = m.Run(20); err != nil {
			t.Fatal(err)
		}
		_ = i
		if err := m.Repartition(sw.geometry, sw.workers); err != nil {
			t.Fatalf("repartition to %s/%d: %v", sw.geometry, sw.workers, err)
		}
	}
	// The last swap happened after the final Run; total bio time must
	// match the reference (4 x 20 ms each).
	got := fingerprint(rep, m, stim2, exc2)
	if got != want {
		t.Errorf("repartitioned run diverged:\n--- fixed ---\n%s--- repartitioned ---\n%s", want, got)
	}
	st := m.SimStats()
	if st.Repartitions == 0 {
		t.Error("SimStats.Repartitions = 0 after explicit swaps")
	}
	if st.Geometry != "bands" || st.Shards != 4 {
		t.Errorf("SimStats reports %s/%d, want the currently-active bands/4", st.Geometry, st.Shards)
	}
}

// TestRepartitionRepricesGuttedCut is the FailLink story end to end on
// a machine: a bands cut on a heterogeneous fabric mixes fast on-board
// and slow board-to-board links, so its lookahead is pinned to the fast
// floor — until every fast link in the cut dies, after which a
// same-geometry Repartition re-prices the bound to the surviving slow
// floor and the engine runs wider windows.
func TestRepartitionRepricesGuttedCut(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 8, Height: 8, Seed: 5, Workers: 4,
		Partition: PartitionBands, Boards: "4x4", BoardLinkParams: BoardLinkSlow,
		MaxAppCoresPerChip: 2})
	defer m.Close()
	st := m.SimStats()
	if st.CutLinksByLevel[0] == 0 || st.CutLinksByLevel[1] == 0 {
		t.Fatalf("bands/4 on 4x4 boards should mix cut levels, got %d+%d",
			st.CutLinksByLevel[0], st.CutLinksByLevel[1])
	}
	narrow := st.Lookahead

	// Kill every fast link in the cut (FailLink fails both directions,
	// which stays within the fast set: the reverse of an on-board cut
	// link is an on-board cut link).
	part := topo.NewBands(topo.MustTorus(8, 8), 4)
	boards, err := topo.ParseTile("4x4")
	if err != nil {
		t.Fatal(err)
	}
	for _, bl := range part.BoundaryLinks() {
		if !boards.Crosses(bl.From, bl.Dir) {
			if err := m.FailLink(bl.From.X, bl.From.Y, bl.Dir.String()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := m.SimStats().Lookahead; got != narrow {
		t.Fatalf("lookahead moved to %v without a repartition", got)
	}
	if err := m.Repartition(PartitionBands, 4); err != nil {
		t.Fatal(err)
	}
	st = m.SimStats()
	if st.Lookahead <= narrow {
		t.Errorf("gutted cut did not re-price: lookahead %v, was %v", st.Lookahead, narrow)
	}
	if st.Repartitions != 1 {
		t.Errorf("Repartitions = %d, want 1", st.Repartitions)
	}
}

// TestAutoRepartitionCollapsesHotspot drives the re-selection policy: a
// workload confined to one corner of an 8x8 torus leaves three of four
// bands idle, so the policy should collapse the machine to a single
// shard (no barriers at all) — while the report stays byte-identical to
// a policy-off twin.
func TestAutoRepartitionCollapsesHotspot(t *testing.T) {
	build := func(policy string) (*Machine, Pop, Pop) {
		m := buildSmallMachine(t, MachineConfig{Width: 8, Height: 8, Seed: 33, Workers: 4,
			Partition: PartitionBands, Repartition: policy, MaxAppCoresPerChip: 2})
		model := NewModel()
		// Serpentine placement packs both populations onto the first few
		// chips: one hot corner, 60+ idle chips.
		stim := model.AddPoisson("stim", 100, 300)
		exc := model.AddLIF("exc", 200, DefaultLIFConfig())
		if err := model.Connect(stim, exc, Conn{
			Rule: RandomRule, P: 0.2, WeightNA: 1.2, DelayMS: 1,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Load(model); err != nil {
			t.Fatal(err)
		}
		return m, stim, exc
	}

	auto, stim, exc := build(RepartitionAuto)
	defer auto.Close()
	off, stimOff, excOff := build(RepartitionOff)
	defer off.Close()
	var autoRep, offRep *RunReport
	for i := 0; i < 4; i++ {
		var err error
		if autoRep, err = auto.Run(50); err != nil {
			t.Fatal(err)
		}
		if offRep, err = off.Run(50); err != nil {
			t.Fatal(err)
		}
	}
	st := auto.SimStats()
	if st.Repartitions == 0 {
		t.Fatal("auto policy never repartitioned a one-corner hotspot")
	}
	if st.Shards != 1 {
		t.Errorf("auto policy settled on %d shards, want the sequential collapse", st.Shards)
	}
	if off.SimStats().Repartitions != 0 {
		t.Error("policy-off machine repartitioned")
	}
	got := fingerprint(autoRep, auto, stim, exc)
	want := fingerprint(offRep, off, stimOff, excOff)
	if got != want {
		t.Errorf("auto repartitioning changed the report:\n--- off ---\n%s--- auto ---\n%s", want, got)
	}
}

// Shifting-hotspot scenario shape: three 60 ms phases (hot A, hot B,
// both), run in 9 equal chunks so the policy sees a quiescence boundary
// every 20 ms.
const (
	hotspotBioMS   = 180
	hotspotChunks  = 9
	hotspotPhaseMS = 60
)

// runShiftingHotspot runs the workload a construction-time partition
// cannot fit: two recurrently-connected populations in different
// corners of a heterogeneous 8x8 torus, driven by scripted injection
// storms — first one region, then the other, then both — while most of
// the machine only ticks. Serpentine placement pins the pieces: hotA
// fills the first chip, a near-idle spacer occupies the next 30 chips,
// and hotB lands on chip 31 — a different band, block and board than
// hotA for every geometry. The whole injection script is scheduled up
// front, so the workload is identical for every partition and policy.
// It reports the windows the run took, the spikes it produced and how
// often the machine repartitioned.
func runShiftingHotspot(t *testing.T, partition, policy string) (windows uint64, spikes int, repartitions uint64) {
	t.Helper()
	m := buildSmallMachine(t, MachineConfig{Width: 8, Height: 8, Seed: 1, Workers: 4,
		Boards: "4x4", BoardLinkParams: BoardLinkSlow,
		Partition: partition, Repartition: policy, MaxAppCoresPerChip: 2})
	defer m.Close()
	model := NewModel()
	hotA := model.AddLIF("hotA", 400, DefaultLIFConfig())
	model.AddLIF("spacer", 30*2*256, DefaultLIFConfig()) // unconnected, unstimulated: timer load only
	hotB := model.AddLIF("hotB", 400, DefaultLIFConfig())
	for _, p := range []Pop{hotA, hotB} {
		if err := model.Connect(p, p, Conn{
			Rule: RandomRule, P: 0.05, WeightNA: 1.5, DelayMS: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	// Indices walk a fixed stride so a storm touches the whole population.
	inject := func(p Pop, ms, count int) {
		for k := 0; k < count; k++ {
			if err := m.InjectSpike(p, (ms*17+k*13)%400, ms); err != nil {
				t.Fatal(err)
			}
		}
	}
	for ms := 1; ms < hotspotBioMS; ms++ {
		switch {
		case ms < hotspotPhaseMS:
			inject(hotA, ms, 40)
		case ms < 2*hotspotPhaseMS:
			inject(hotB, ms, 40)
		default:
			inject(hotA, ms, 20)
			inject(hotB, ms, 20)
		}
	}
	before := m.SimStats().Windows
	var rep *RunReport
	for c := 0; c < hotspotChunks; c++ {
		var err error
		if rep, err = m.Run(hotspotBioMS / hotspotChunks); err != nil {
			t.Fatal(err)
		}
	}
	st := m.SimStats()
	return st.Windows - before, rep.TotalSpikes, st.Repartitions
}

// TestShiftingHotspotRepartitionWins pins the headline claim of the
// runtime re-partitioning policy: on the shifting-hotspot workload the
// auto machine must take fewer window barriers than every fixed
// geometry started from the same 4-shard decomposition, while producing
// the identical spike count (the determinism contract). Window counts
// derive from the deterministic trajectory, so this is not a timing
// assertion.
func TestShiftingHotspotRepartitionWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine scenario sweep")
	}
	autoWindows, autoSpikes, repartitions := runShiftingHotspot(t, PartitionBands, RepartitionAuto)
	if repartitions == 0 {
		t.Fatal("auto machine never repartitioned on a shifting hotspot")
	}
	for _, partition := range []string{PartitionBands, PartitionBlocks, PartitionBoards} {
		windows, spikes, _ := runShiftingHotspot(t, partition, RepartitionOff)
		if autoWindows >= windows {
			t.Errorf("auto repartitioning paid %d windows, fixed %s paid %d — the policy must win every fixed geometry",
				autoWindows, partition, windows)
		}
		if spikes != autoSpikes {
			t.Errorf("fixed %s produced %d spikes, auto %d — repartitioning leaked into the simulation",
				partition, spikes, autoSpikes)
		}
	}
}

func TestRepartitionValidation(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4})
	defer m.Close()
	if err := m.Repartition("spiral", 2); err == nil {
		t.Error("unknown geometry accepted")
	}
	if err := m.Repartition(PartitionBands, -1); err == nil {
		t.Error("negative workers accepted")
	}
	if err := m.Repartition(PartitionBands, 17); err == nil {
		t.Error("workers beyond the chip count accepted")
	}
	if err := m.Repartition(PartitionBoards, 2); err == nil {
		t.Error("boards geometry accepted on a uniform fabric")
	}
	if err := cfgErr(MachineConfig{Width: 4, Height: 4, Repartition: "sometimes"}); err == nil {
		t.Error("unknown Repartition policy accepted")
	}
}

func cfgErr(cfg MachineConfig) error { return cfg.Validate() }

// TestKillNeuronAfterMigration is the satellite regression for the
// migrate bookkeeping: post-migration reads and writes must resolve the
// fragment's live unit, not the dead core's old slot (which used to
// panic on a deleted map entry).
func TestKillNeuronAfterMigration(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 13})
	defer m.Close()
	model := NewModel()
	cfg := DefaultLIFConfig()
	cfg.BiasNA = 1.5
	p := model.AddLIF("p", 20, cfg)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	if err := m.FailCoreOf(p, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", rep.Migrations)
	}
	// Post-migration reads work against the migrated core.
	if m.MeanWeightNA(p) < 0 {
		t.Error("MeanWeightNA failed post-migration")
	}
	before := len(m.Spikes(p))
	if before == 0 {
		t.Fatal("no spikes recorded post-migration")
	}
	// KillNeuron must resolve the live (migrated) unit — this call
	// panicked before the fix.
	if err := m.KillNeuron(p, 3); err != nil {
		t.Fatalf("KillNeuron after migration: %v", err)
	}
	if _, err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Spikes(p) {
		if s.Neuron == 3 && s.TimeMS > 75 {
			t.Fatalf("killed neuron fired at %d ms on the migrated core", s.TimeMS)
		}
	}
	// And the rate observable keeps reading post-migration state.
	if m.MeanRateHz(p) == 0 {
		t.Error("MeanRateHz reads zero despite post-migration firing")
	}
}
