package spinngo

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The determinism contract (README "Sharded simulation engine"): the
// same seed and config produce a byte-identical run report and spike
// raster for every worker count, and for repeated runs at the same
// worker count. These are the regression tests that pin it.

// detConfig is the reference workload: a 4x4 torus (so 4 shards are 4
// one-row bands or a 2x2 block grid), fragments spread across chips,
// stimulus-driven activity crossing shard boundaries, and a mid-run
// fault so migration bookkeeping is covered too.
func detConfig(seed uint64, workers int, partition string) MachineConfig {
	return MachineConfig{
		Width: 4, Height: 4, Seed: seed, Workers: workers, Partition: partition,
		MaxAppCoresPerChip: 2,
	}
}

// runFingerprint boots, loads and runs the reference workload and
// renders everything the public API reports into one string.
func runFingerprint(t *testing.T, seed uint64, workers int, partition string) string {
	t.Helper()
	m, err := NewMachine(detConfig(seed, workers, partition))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bootRep, err := m.Boot()
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel()
	stim := model.AddPoisson("stim", 80, 150)
	exc := model.AddLIF("exc", 300, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{
		Rule: RandomRule, P: 0.2, WeightNA: 1.2, DelayMS: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(60); err != nil {
		t.Fatal(err)
	}
	// A core fault mid-run: migration must be deterministic too.
	if err := m.FailCoreOf(exc, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(60)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "boot: %+v\n", *bootRep)
	b.WriteString(rep.String())
	fmt.Fprintf(&b, "migrations: %d/%d writebacks: %d delivered: %d\n",
		rep.Migrations, rep.MigrationFailures, rep.SynapseWriteBacks, rep.PacketsDelivered)
	for _, p := range []Pop{stim, exc} {
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

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	for _, seed := range []uint64{11, 29, 53} {
		ref := runFingerprint(t, seed, 1, PartitionBands)
		for _, partition := range []string{PartitionBands, PartitionBlocks, PartitionAuto} {
			for _, workers := range []int{2, 4} {
				got := runFingerprint(t, seed, workers, partition)
				if got != ref {
					t.Errorf("seed=%d workers=%d partition=%s diverged from bands/1:\n--- bands/1 ---\n%s--- %s/%d ---\n%s",
						seed, workers, partition, ref, partition, workers, got)
				}
			}
		}
	}
}

// congestedRun executes the hardest-regime workload: a dense recurrent
// 8x8 network driven into congestion (dropped packets, emergency
// reroutes, timer overruns), where same-nanosecond event ties across
// shard boundaries actually occur — on a heterogeneous fabric of 4x4
// boards with slow board-to-board links, so cut sets mix link classes
// and cross-shard hops have class-dependent latencies. With failMidRun
// the run is chunked around a link fault at 30 ms of biological time —
// a board-edge cut link plus an on-board one — so the live cut changes
// mid-run.
func congestedRun(t *testing.T, partition string, workers int, failMidRun bool) *RunReport {
	t.Helper()
	m, err := NewMachine(MachineConfig{
		Width: 8, Height: 8, Seed: 1, Workers: workers, Partition: partition,
		MaxAppCoresPerChip: 2, Boards: "4x4", BoardLinkParams: BoardLinkSlow,
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
	var rep *RunReport
	if failMidRun {
		if _, err := m.Run(30); err != nil {
			t.Fatal(err)
		}
		// (3,3)N crosses the y=3|4 board edge (a slow cut link of the
		// band and board geometries); (3,3)E crosses the x=3|4 edge (a
		// cut link of the block grid).
		if err := m.FailLink(3, 3, "N"); err != nil {
			t.Fatal(err)
		}
		if err := m.FailLink(3, 3, "E"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(30); err != nil {
			t.Fatal(err)
		}
		if rep, err = m.Run(40); err != nil {
			t.Fatal(err)
		}
	} else if rep, err = m.Run(100); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDeterminismUnderCongestion pins the contract in the regime where
// it is hardest to keep, across the full (partition geometry, worker
// count) matrix — including the boards geometry, whose shards run at a
// wider lookahead than bands or blocks on the same machine. The
// canonical (time, domain, class, key) event order is what keeps the
// configurations in agreement here; insertion-order tie-breaking
// demonstrably diverges on this workload. workers=7 makes the bands
// uneven, the block grid degenerate (7x1) and the board grid clamp to
// its 4 boards, covering the non-divisible paths.
func TestDeterminismUnderCongestion(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	ref := congestedRun(t, PartitionBands, 1, false)
	// The workload must actually be congested, or this test is not
	// exercising what it claims to.
	if ref.EmergencyInvocations == 0 || ref.PacketsDropped == 0 {
		t.Fatalf("workload not congested (emergencies=%d dropped=%d); tighten it",
			ref.EmergencyInvocations, ref.PacketsDropped)
	}
	// The heterogeneous fabric must be exercised: traffic crossed both
	// link classes.
	if ref.WireTransitions[1] == 0 || ref.WireTransitions[0] == 0 {
		t.Fatalf("workload missing a link class (on-board=%d board=%d); widen it",
			ref.WireTransitions[0], ref.WireTransitions[1])
	}
	for _, partition := range []string{PartitionBands, PartitionBlocks, PartitionBoards} {
		for _, workers := range []int{1, 2, 4, 7} {
			if partition == PartitionBands && workers == 1 {
				continue // the reference itself
			}
			got := congestedRun(t, partition, workers, false)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("congested 8x8: %s/%d diverged from bands/1:\nref: %+v\ngot: %+v",
					partition, workers, *ref, *got)
			}
		}
	}
}

// TestDeterminismFailLink extends the matrix with mid-run link faults:
// links die between chunks, the live cut re-prices the lookahead, and
// every (geometry, worker count) cell must still produce the
// byte-identical report.
func TestDeterminismFailLink(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	ref := congestedRun(t, PartitionBands, 1, true)
	if ref.PacketsDropped == 0 {
		t.Fatalf("mid-run link faults dropped nothing; the fault case is not being exercised")
	}
	for _, partition := range []string{PartitionBands, PartitionBlocks, PartitionBoards} {
		for _, workers := range []int{1, 2, 4, 7} {
			if partition == PartitionBands && workers == 1 {
				continue // the reference itself
			}
			got := congestedRun(t, partition, workers, true)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("faillink 8x8: %s/%d diverged from bands/1:\nref: %+v\ngot: %+v",
					partition, workers, *ref, *got)
			}
		}
	}
}

// hostBatchRun interleaves host-command traffic with the congested
// neural workload: 30 ms of congestion, then a mixed batch of writes,
// reads and pings issued through the link (window > 1: pipelined;
// window 1: one command launching as its predecessor resolves; serial:
// the synchronous single-command API in a loop), then 40 ms more. The
// fingerprint captures everything observable: the run report, the spike
// raster, and every byte the host read back.
func hostBatchRun(t *testing.T, partition string, workers, window int, serial bool) string {
	t.Helper()
	m, err := NewMachine(MachineConfig{
		Width: 8, Height: 8, Seed: 1, Workers: workers, Partition: partition,
		MaxAppCoresPerChip: 2, Boards: "4x4", BoardLinkParams: BoardLinkSlow,
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
	if err := model.Connect(stim, exc, Conn{Rule: RandomRule, P: 0.1, WeightNA: 1.2, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	if err := model.Connect(exc, exc, Conn{Rule: RandomRule, P: 0.05, WeightNA: 0.5, DelayMS: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(30); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	payload := func(i int) []byte { return []byte(fmt.Sprintf("block-%02d-payload", i)) }
	if serial {
		for i := 0; i < 6; i++ {
			if err := hl.WriteMem(i, 7-i, 0x300, payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			data, err := hl.ReadMem(i, 7-i, 0x300, len(payload(i)))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "read%d:%q ", i, data)
		}
		if _, err := hl.Ping(7, 7); err != nil {
			t.Fatal(err)
		}
	} else {
		p := hl.Batch(window)
		for i := 0; i < 6; i++ {
			p.WriteMem(i, 7-i, 0x300, payload(i))
		}
		reads := make([]int, 6)
		for i := 0; i < 6; i++ {
			reads[i] = p.ReadMem(i, 7-i, 0x300, len(payload(i)))
		}
		p.Ping(7, 7)
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, ri := range reads {
			if res[ri].Err != nil {
				t.Fatalf("batched read %d: %v", i, res[ri].Err)
			}
			fmt.Fprintf(&b, "read%d:%q ", i, res[ri].Data)
		}
	}
	rep, err := m.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "\n%+v\n", *rep)
	spikes := m.Spikes(exc)
	sort.Slice(spikes, func(i, j int) bool {
		if spikes[i].TimeMS != spikes[j].TimeMS {
			return spikes[i].TimeMS < spikes[j].TimeMS
		}
		return spikes[i].Neuron < spikes[j].Neuron
	})
	for _, s := range spikes {
		fmt.Fprintf(&b, " %d@%d", s.Neuron, s.TimeMS)
	}
	return b.String()
}

// TestDeterminismBatchedHostTraffic extends the matrix with the
// batched-host cells: a pipelined batch interleaved with the congested
// workload must produce the byte-identical machine across every
// (geometry, worker count) cell — pinned against the batched bands/1
// reference — and the window-1 batch must be byte-identical to the
// sequential one-command-at-a-time path, which is the contract that
// makes batching pure execution strategy rather than a different
// simulation.
func TestDeterminismBatchedHostTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	// Serial one-at-a-time vs window-1 batch: identical trajectories.
	serialRef := hostBatchRun(t, PartitionBands, 1, 0, true)
	win1 := hostBatchRun(t, PartitionBands, 1, 1, false)
	if win1 != serialRef {
		t.Errorf("window-1 batch diverged from the serial one-command-at-a-time path:\n--- serial ---\n%s\n--- window 1 ---\n%s",
			serialRef, win1)
	}
	// The pipelined batch across the full matrix.
	ref := hostBatchRun(t, PartitionBands, 1, 4, false)
	for _, partition := range []string{PartitionBands, PartitionBlocks, PartitionBoards} {
		for _, workers := range []int{1, 4} {
			if partition == PartitionBands && workers == 1 {
				continue // the reference itself
			}
			got := hostBatchRun(t, partition, workers, 4, false)
			if got != ref {
				t.Errorf("batched host traffic: %s/%d diverged from bands/1", partition, workers)
			}
			// The serial path must agree across the matrix too.
			if serial := hostBatchRun(t, partition, workers, 0, true); serial != serialRef {
				t.Errorf("serial host traffic: %s/%d diverged from bands/1", partition, workers)
			}
		}
	}
}

func TestDeterminismRunToRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	for _, workers := range []int{1, 4} {
		a := runFingerprint(t, 7, workers, PartitionAuto)
		b := runFingerprint(t, 7, workers, PartitionAuto)
		if a != b {
			t.Errorf("workers=%d: two runs with the same seed diverged", workers)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	a := runFingerprint(t, 3, 4, PartitionAuto)
	b := runFingerprint(t, 4, 4, PartitionAuto)
	if a == b {
		t.Error("different seeds produced identical runs: randomness is not flowing from the seed")
	}
}

func TestWorkersClampedToGeometry(t *testing.T) {
	// Within the valid range, explicit worker counts clamp to the
	// geometry's granularity: a 4x4 torus has at most 4 one-row bands,
	// but 16 one-chip blocks.
	m, err := NewMachine(MachineConfig{Width: 4, Height: 4, Workers: 16, Partition: PartitionBands})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Workers(); got != 4 {
		t.Errorf("bands Workers() = %d, want 4 (clamped to row bands)", got)
	}
	if _, err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	b, err := NewMachine(MachineConfig{Width: 4, Height: 4, Workers: 16, Partition: PartitionBlocks})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.Workers(); got != 16 {
		t.Errorf("blocks Workers() = %d, want 16 (one chip per shard)", got)
	}
}

func TestMachineConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MachineConfig
	}{
		{"negative workers", MachineConfig{Width: 4, Height: 4, Workers: -1}},
		{"workers beyond chips", MachineConfig{Width: 4, Height: 4, Workers: 64}},
		{"unknown partition", MachineConfig{Width: 4, Height: 4, Partition: "spiral"}},
		{"zero width", MachineConfig{Width: 0, Height: 4}},
		{"negative cores", MachineConfig{Width: 4, Height: 4, CoresPerChip: -1}},
		{"cores beyond the chip", MachineConfig{Width: 4, Height: 4, CoresPerChip: 21}},
		{"negative MIPS", MachineConfig{Width: 4, Height: 4, CoreMIPS: -200}},
		{"NaN MIPS", MachineConfig{Width: 4, Height: 4, CoreMIPS: math.NaN()}},
	} {
		if _, err := NewMachine(tc.cfg); err == nil {
			t.Errorf("%s: NewMachine accepted %+v", tc.name, tc.cfg)
		}
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
	}
	for _, partition := range []string{"", PartitionAuto, PartitionBands, PartitionBlocks} {
		cfg := MachineConfig{Width: 4, Height: 4, Partition: partition}
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid partition %q rejected: %v", partition, err)
		}
	}
}

func TestSimStatsReflectGeometry(t *testing.T) {
	m, err := NewMachine(MachineConfig{Width: 8, Height: 8, Workers: 4, Partition: PartitionBlocks})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.SimStats()
	if st.Geometry != "blocks" || st.Shards != 4 {
		t.Errorf("SimStats = %+v, want blocks/4", st)
	}
	bands, err := NewMachine(MachineConfig{Width: 8, Height: 8, Workers: 4, Partition: PartitionBands})
	if err != nil {
		t.Fatal(err)
	}
	defer bands.Close()
	if bst := bands.SimStats(); st.CutLinks >= bst.CutLinks {
		t.Errorf("blocks cut %d links, bands %d — blocks should cut fewer on a square torus",
			st.CutLinks, bst.CutLinks)
	}
	if st.Lookahead <= 100 { // router latency alone is 100 ns
		t.Errorf("lookahead %v not widened beyond the router latency", st.Lookahead)
	}
}
