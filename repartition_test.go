package spinngo

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"spinngo/internal/topo"
)

// repartitionWorkload is a stimulus-driven network spread across the
// torus — enough traffic that every shard layout carries cross-shard
// events.
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
// floor — until every fast link in the cut dies. FailLink commits like
// every other fault, so the bound re-prices to the surviving slow floor
// at once, and a same-geometry Repartition afterwards has nothing left
// to do.
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
	wide := m.SimStats().Lookahead
	if wide <= narrow {
		t.Fatalf("gutted cut did not re-price at FailLink: lookahead %v, was %v", wide, narrow)
	}
	if err := m.Repartition(PartitionBands, 4); err != nil {
		t.Fatal(err)
	}
	st = m.SimStats()
	if st.Lookahead != wide {
		t.Errorf("same-geometry repartition moved the lookahead %v -> %v", wide, st.Lookahead)
	}
	if st.Repartitions != 0 {
		t.Errorf("Repartitions = %d, want 0: the swap was a no-op", st.Repartitions)
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
}

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
