package spinngo

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"spinngo/internal/workload"
)

// The campaign conformance suite: scripted fault campaigns ride the
// canonical event path, so the pinned storm-campaign registry workload
// — link-failure waves, a seeded chip-death storm, a chip kill, a
// deferred repair and a severed region — must replay byte-identically
// on every worker count and partition geometry, and through a
// mid-campaign snapshot restored onto a different execution strategy.

// campaignWorkload loads the pinned conformance document from the
// registry; the tests double as its regression pin.
func campaignWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	wl, err := workload.Get("storm-campaign")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Campaign == nil || wl.Machine.FillRedundancy < 2 {
		t.Fatal("storm-campaign must declare a campaign and flood-fill redundancy >= 2")
	}
	return wl
}

// workloadFingerprint renders a finished workload run's observables —
// report, dead chips, aliveness and the full sorted rasters — into one
// comparable string.
func workloadFingerprint(t *testing.T, m *Machine, rep *RunReport, wl *workload.Workload) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(rep.String())
	fmt.Fprintf(&b, "alive: %d dead:", m.AliveChips())
	for _, c := range m.DeadChips() {
		fmt.Fprintf(&b, " (%d,%d)", c.X, c.Y)
	}
	b.WriteString("\n")
	for i := range wl.Populations {
		p, ok := m.Pop(wl.Populations[i].Name)
		if !ok {
			t.Fatalf("population %q not loaded", wl.Populations[i].Name)
		}
		spikes := m.Spikes(p)
		sort.Slice(spikes, func(i, j int) bool {
			if spikes[i].TimeMS != spikes[j].TimeMS {
				return spikes[i].TimeMS < spikes[j].TimeMS
			}
			return spikes[i].Neuron < spikes[j].Neuron
		})
		fmt.Fprintf(&b, "%s raster:", p.Name())
		for _, s := range spikes {
			fmt.Fprintf(&b, " %d@%d", s.Neuron, s.TimeMS)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// campaignFingerprint runs the conformance workload on one execution
// strategy.
func campaignFingerprint(t *testing.T, workers int, partition string) string {
	t.Helper()
	wl := campaignWorkload(t)
	m, rep, err := RunWorkloadOn(wl, workers, partition)
	if err != nil {
		t.Fatalf("workers=%d partition=%s: %v", workers, partition, err)
	}
	defer m.Close()
	if len(m.DeadChips()) != 3 {
		t.Fatalf("workers=%d partition=%s: %d dead chips after the campaign, want 3 (storm 2 + fail_chip 1)",
			workers, partition, len(m.DeadChips()))
	}
	return workloadFingerprint(t, m, rep, wl)
}

// TestCampaignDeterminismMatrix pins the campaign conformance contract
// across the full {geometry} x {workers} matrix.
func TestCampaignDeterminismMatrix(t *testing.T) {
	ref := campaignFingerprint(t, 1, PartitionBands)
	partitions := []string{PartitionBands, PartitionBlocks, PartitionBoards, PartitionCabinets}
	counts := []int{2, 4}
	if testing.Short() {
		partitions = []string{PartitionBlocks, PartitionCabinets}
		counts = []int{4}
	}
	for _, partition := range partitions {
		for _, workers := range counts {
			got := campaignFingerprint(t, workers, partition)
			if got != ref {
				t.Errorf("campaign diverged on %s/%d:\n--- bands/1 ---\n%s--- %s/%d ---\n%s",
					partition, workers, ref, partition, workers, got)
			}
		}
	}
}

// TestCampaignSnapshotMidway pins the campaign through a save/load
// cycle: snapshot at the mid-campaign quiescence boundary (after the
// link wave and the chip storm, before the repair and the sever),
// restore onto a different worker count AND partition geometry, and the
// completed run must match the uninterrupted one byte for byte.
func TestCampaignSnapshotMidway(t *testing.T) {
	wl := campaignWorkload(t)
	chunks := WorkloadChunks(wl)
	if len(chunks) < 4 {
		t.Fatalf("conformance workload runs %d chunks, need >= 4 for a mid-campaign split", len(chunks))
	}

	mRef, repRef, err := RunWorkloadOn(wl, 2, PartitionBlocks)
	if err != nil {
		t.Fatal(err)
	}
	defer mRef.Close()
	ref := workloadFingerprint(t, mRef, repRef, wl)

	m1, err := PrepareWorkloadOn(wl, 2, PartitionBlocks)
	if err != nil {
		t.Fatal(err)
	}
	split := len(chunks) / 2
	for _, n := range chunks[:split] {
		if _, err := m1.Run(n); err != nil {
			m1.Close()
			t.Fatal(err)
		}
	}
	if len(m1.DeadChips()) == 0 {
		m1.Close()
		t.Fatal("snapshot point should already be mid-campaign (chips dead)")
	}
	image, err := m1.Snapshot()
	m1.Close()
	if err != nil {
		t.Fatal(err)
	}

	m2, err := RestoreOn(image, 4, PartitionCabinets)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var rep2 *RunReport
	for _, n := range chunks[split:] {
		if rep2, err = m2.Run(n); err != nil {
			t.Fatal(err)
		}
	}
	got := workloadFingerprint(t, m2, rep2, wl)
	if got != ref {
		t.Errorf("mid-campaign snapshot/restore diverged:\n--- uninterrupted ---\n%s--- restored ---\n%s", ref, got)
	}
}

// TestFailChipGatewayUnreachable pins the gateway-death contract: host
// commands through a dead gateway fail fast with ErrHostUnreachable —
// resolved synchronously, no timeout burned, no hang.
func TestFailChipGatewayUnreachable(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4, Seed: 5})
	defer m.Close()
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hl.Ping(2, 2); err != nil {
		t.Fatalf("pre-kill ping: %v", err)
	}
	if err := m.FailChip(0, 0); err != nil {
		t.Fatal(err)
	}
	before := m.pe.Now()
	if _, err := hl.Ping(2, 2); !errors.Is(err, ErrHostUnreachable) {
		t.Fatalf("ping through a dead gateway: got %v, want ErrHostUnreachable", err)
	}
	if got := m.pe.Now() - before; got != 0 {
		t.Errorf("dead-gateway command advanced the clock by %v, want synchronous failure", got)
	}
	// Batched commands fail the same way, each with its own error.
	p := hl.Batch(4)
	i1 := p.Ping(1, 1)
	i2 := p.Ping(3, 3)
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{i1, i2} {
		if !errors.Is(res[i].Err, ErrHostUnreachable) {
			t.Errorf("batched command %d through a dead gateway: got %v, want ErrHostUnreachable", i, res[i].Err)
		}
	}
}

// TestFailChipIdempotent pins re-kill semantics: killing a dead chip is
// a no-op, the dead set is stable, and the machine keeps running.
func TestFailChipIdempotent(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4, Seed: 6})
	defer m.Close()
	alive := m.AliveChips()
	for i := 0; i < 3; i++ {
		if err := m.FailChip(2, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.DeadChips(); len(got) != 1 || got[0].X != 2 || got[0].Y != 2 {
		t.Fatalf("dead set %v after triple kill, want exactly (2,2)", got)
	}
	if got := m.AliveChips(); got != alive-1 {
		t.Errorf("alive %d after one chip death, want %d", got, alive-1)
	}
	// Out-of-range coordinates are rejected, not silently wrapped.
	if err := m.FailChip(9, 0); err == nil {
		t.Error("FailChip outside the torus accepted")
	}
}

// TestFillRedundancySurvivesDeadChips pins the redundant flood fill: a
// storm of chip deaths re-routes the fill tree, and with redundancy 2
// a post-storm bulk load still reaches every surviving chip.
func TestFillRedundancySurvivesDeadChips(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 6, Height: 6, Seed: 8, FillRedundancy: 2})
	defer m.Close()
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{2, 2}, {3, 4}} {
		if err := m.FailChip(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i * 7)
	}
	p := hl.Batch(2)
	idx := p.FillMem(0x1000, data)
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[idx].Err != nil {
		t.Fatalf("post-storm flood fill failed: %v", res[idx].Err)
	}
	if want := m.AliveChips(); res[idx].Chips != want {
		t.Errorf("flood fill reached %d chips, want all %d alive", res[idx].Chips, want)
	}
	// The fill really landed: read it back from a far corner.
	back, err := hl.ReadMem(5, 5, 0x1000, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if back[i] != data[i] {
			t.Fatalf("readback byte %d = %#x, want %#x", i, back[i], data[i])
		}
	}
}

// TestFillRedundancyValidation pins the config bounds.
func TestFillRedundancyValidation(t *testing.T) {
	for _, bad := range []int{-1, 7} {
		cfg := MachineConfig{Width: 2, Height: 2, FillRedundancy: bad}
		if err := cfg.Validate(); err == nil {
			t.Errorf("FillRedundancy %d accepted", bad)
		}
	}
	cfg := MachineConfig{Width: 2, Height: 2, FillRedundancy: 6}
	if err := cfg.Validate(); err != nil {
		t.Errorf("FillRedundancy 6 rejected: %v", err)
	}
}
