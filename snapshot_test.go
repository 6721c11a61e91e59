package spinngo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"spinngo/internal/boot"
	"spinngo/internal/neural"
	"spinngo/internal/snap"
	"spinngo/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden snapshot hash")

// The checkpoint contract (README "Checkpoint & replay"): running to T,
// snapshotting, restoring on ANY worker count and partition geometry and
// running to the end is byte-identical to the uninterrupted run. These
// tests pin that contract on the hardest state a snapshot can carry: a
// pending injected spike, a core fault whose migration has not fired
// yet, plastic synapses mid-update, dead links, and host-command debris.

// snapConfig is the snapshot reference geometry: a 4x4 torus tiled into
// 2x2 boards with slow board links, so the boards partition is available
// as a restore target and the live cut mixes link classes.
func snapConfig(seed uint64, workers int, partition string) MachineConfig {
	return MachineConfig{
		Width: 4, Height: 4, Seed: seed, Workers: workers, Partition: partition,
		MaxAppCoresPerChip: 2, Boards: "2x2", BoardLinkParams: BoardLinkSlow,
	}
}

// snapPrepare boots and loads the reference workload and runs it to the
// snapshot instant: 40 ms in, with a spike injection pending at 55 ms, a
// plastic recurrent projection mid-adaptation, and a core fault whose
// migration watchdog has not fired yet. With failLinks it also kills a
// board-edge link and an on-board link mid-run, so the snapshot carries
// a re-shaped live cut.
func snapPrepare(t testing.TB, seed uint64, workers int, partition string, failLinks bool) *Machine {
	t.Helper()
	m, err := NewMachine(snapConfig(seed, workers, partition))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Boot(); err != nil {
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
	if err := model.Connect(exc, exc, Conn{
		Rule: RandomRule, P: 0.05, WeightNA: 0.5, DelayMS: 1, STDP: DefaultSTDPRule(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectSpike(exc, 5, 55); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(40); err != nil {
		t.Fatal(err)
	}
	if failLinks {
		// (1,1)N crosses the y=1|2 board edge; (2,2)E stays on-board.
		if err := m.FailLink(1, 1, "N"); err != nil {
			t.Fatal(err)
		}
		if err := m.FailLink(2, 2, "E"); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.FailCoreOf(exc, 0); err != nil {
		t.Fatal(err)
	}
	return m
}

// snapFinish runs the remaining 40 ms and renders every observable the
// public API reports into one fingerprint string.
func snapFinish(t *testing.T, m *Machine) string {
	t.Helper()
	rep, err := m.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(rep.String())
	fmt.Fprintf(&b, "migrations: %d/%d writebacks: %d delivered: %d\n",
		rep.Migrations, rep.MigrationFailures, rep.SynapseWriteBacks, rep.PacketsDelivered)
	for _, name := range []string{"stim", "exc"} {
		p, ok := m.Pop(name)
		if !ok {
			t.Fatalf("population %q missing from the machine", name)
		}
		spikes := m.Spikes(p)
		sort.Slice(spikes, func(i, j int) bool {
			if spikes[i].TimeMS != spikes[j].TimeMS {
				return spikes[i].TimeMS < spikes[j].TimeMS
			}
			return spikes[i].Neuron < spikes[j].Neuron
		})
		fmt.Fprintf(&b, "%s raster:", name)
		for _, s := range spikes {
			fmt.Fprintf(&b, " %d@%d", s.Neuron, s.TimeMS)
		}
		b.WriteString("\n")
	}
	exc, _ := m.Pop("exc")
	fmt.Fprintf(&b, "meanW: %v\n", m.MeanWeightNA(exc))
	return b.String()
}

// TestDeterminismSnapshotRoundTrip pins the tentpole contract across the
// restore matrix: a snapshot taken at 40 ms on one execution strategy,
// restored onto a different {partition geometry, worker count}, finishes
// byte-identical to the uninterrupted run — including the pending
// injection, the unexpired migration watchdog and the plastic weights.
func TestDeterminismSnapshotRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	straight := snapPrepare(t, 17, 1, PartitionBands, false)
	ref := snapFinish(t, straight)
	straight.Close()

	src := snapPrepare(t, 17, 1, PartitionBands, false)
	data, err := src.Snapshot()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, cell := range []struct {
		workers   int
		partition string
	}{
		{1, PartitionBands},
		{4, PartitionBands},
		{4, PartitionBlocks},
		{2, PartitionBoards},
		{0, PartitionAuto},
	} {
		m, err := RestoreOn(data, cell.workers, cell.partition)
		if err != nil {
			t.Fatalf("restore %s/%d: %v", cell.partition, cell.workers, err)
		}
		got := snapFinish(t, m)
		m.Close()
		if got != ref {
			t.Errorf("restore on %s/%d diverged from the uninterrupted run:\n--- straight ---\n%s--- restored ---\n%s",
				cell.partition, cell.workers, ref, got)
		}
	}

	// The reverse direction: snapshot taken under a parallel blocks
	// execution, restored onto the sequential bands reference.
	src4 := snapPrepare(t, 17, 4, PartitionBlocks, false)
	data4, err := src4.Snapshot()
	src4.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, err := RestoreOn(data4, 1, PartitionBands)
	if err != nil {
		t.Fatal(err)
	}
	got := snapFinish(t, m)
	m.Close()
	if got != ref {
		t.Errorf("blocks/4 snapshot restored on bands/1 diverged from the uninterrupted run")
	}

	// Restore without overrides resumes on the recorded strategy.
	m2, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapFinish(t, m2); got != ref {
		t.Errorf("Restore on the recorded strategy diverged from the uninterrupted run")
	}
	m2.Close()
}

// TestDeterminismSnapshotFailLink extends the matrix with mid-run link
// faults: the snapshot carries a re-shaped live cut (a dead board-edge
// link and a dead on-board link) plus the still-pending migration, and
// restoring onto other geometries re-prices their lookahead from the
// restored link health without changing a single observable.
func TestDeterminismSnapshotFailLink(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	straight := snapPrepare(t, 23, 1, PartitionBands, true)
	ref := snapFinish(t, straight)
	straight.Close()

	src := snapPrepare(t, 23, 1, PartitionBands, true)
	data, err := src.Snapshot()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		workers   int
		partition string
	}{
		{4, PartitionBlocks},
		{4, PartitionBoards},
	} {
		m, err := RestoreOn(data, cell.workers, cell.partition)
		if err != nil {
			t.Fatalf("restore %s/%d: %v", cell.partition, cell.workers, err)
		}
		got := snapFinish(t, m)
		m.Close()
		if got != ref {
			t.Errorf("faillink restore on %s/%d diverged from the uninterrupted run",
				cell.partition, cell.workers)
		}
	}
}

// hostDebrisPrepare runs the workload to 20 ms, then leaves the richest
// host-command residue a legal snapshot can contain: the deadline events
// of a resolved batch (writes and a ping), and the in-flight response
// chunks of a bulk read that hit its deadline mid-stream.
func hostDebrisPrepare(t *testing.T, seed uint64, workers int, partition string) *Machine {
	t.Helper()
	m, err := NewMachine(snapConfig(seed, workers, partition))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Boot(); err != nil {
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
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	// Batch 1 resolves cleanly under the default deadline; its expire
	// events stay pending until long after the snapshot.
	p := hl.Batch(4)
	for i := 0; i < 4; i++ {
		p.WriteMem(i, 3-i, 0x400, []byte(fmt.Sprintf("debris-%d", i)))
	}
	bulk := make([]byte, 512)
	for i := range bulk {
		bulk[i] = byte(i)
	}
	// The bulk transfer stays on the gateway's own board: the 4-byte
	// chunk cadence outruns a slow board-to-board link's serialisation
	// and overflows its queue, which is a congestion experiment, not a
	// checkpoint one.
	p.WriteMem(1, 1, 0x800, bulk)
	p.Ping(3, 3)
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch command %d failed: %v", i, r.Err)
		}
	}
	// Batch 2: a bulk read whose deadline lands while its response is
	// still streaming back — the command resolves as timed out, but its
	// remaining chunk events survive into the snapshot. The request
	// header alone costs ~51us of Ethernet time and the 128-chunk
	// response streams from ~52us to ~93us, so a 70us deadline lands
	// mid-stream with margin on both sides.
	p2 := hl.Batch(1).Timeout(70 * time.Microsecond)
	ri := p2.ReadMem(1, 1, 0x800, len(bulk))
	res2, err := p2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res2[ri].Err, ErrHostTimeout) {
		t.Fatalf("bulk read under a 70us deadline resolved with %v, want ErrHostTimeout; retune the deadline so it lands mid-stream", res2[ri].Err)
	}
	return m
}

// TestDeterminismSnapshotHostDebris pins the host-path cells: a snapshot
// taken right after batched host traffic — resolved-command deadline
// events and the chunk stream of a read that timed out mid-response —
// restores onto a different geometry byte-identically.
func TestDeterminismSnapshotHostDebris(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	straight := hostDebrisPrepare(t, 31, 1, PartitionBands)
	ref := snapFinish(t, straight)
	straight.Close()

	src := hostDebrisPrepare(t, 31, 1, PartitionBands)
	data, err := src.Snapshot()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		workers   int
		partition string
	}{
		{1, PartitionBands},
		{4, PartitionBlocks},
	} {
		m, err := RestoreOn(data, cell.workers, cell.partition)
		if err != nil {
			t.Fatalf("restore %s/%d: %v", cell.partition, cell.workers, err)
		}
		got := snapFinish(t, m)
		m.Close()
		if got != ref {
			t.Errorf("host-debris restore on %s/%d diverged from the uninterrupted run:\n--- straight ---\n%s--- restored ---\n%s",
				cell.partition, cell.workers, ref, got)
		}
	}
}

// TestSnapshotResnapshotByteIdentical pins the serialisation itself:
// restoring an image and immediately snapshotting again reproduces the
// identical bytes — every descriptor, counter and RNG stream survives
// the round trip with nothing lost and nothing invented. Restore skips
// the system-image and application-data loads and overlays their
// outcome from the image, so the oracle runs over the images with the
// most overlaid state: a plain one, one with failed links, one with
// host-command debris, and one from a fault campaign past its chip
// deaths and drops. Each must also restore onto a second geometry and finish
// byte-identical to its straight run.
func TestSnapshotResnapshotByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	for _, tc := range []struct {
		name    string
		prepare func(t *testing.T, workers int, partition string) *Machine
		finish  func(t *testing.T, m *Machine) string
	}{
		{"plain", func(t *testing.T, workers int, partition string) *Machine {
			return snapPrepare(t, 17, workers, partition, false)
		}, snapFinish},
		{"failed-links", func(t *testing.T, workers int, partition string) *Machine {
			return snapPrepare(t, 23, workers, partition, true)
		}, snapFinish},
		{"host-debris", func(t *testing.T, workers int, partition string) *Machine {
			return hostDebrisPrepare(t, 31, workers, partition)
		}, snapFinish},
		{"campaign", campaignPrepare, campaignFinish},
	} {
		t.Run(tc.name, func(t *testing.T) {
			straight := tc.prepare(t, 1, PartitionBands)
			ref := tc.finish(t, straight)
			straight.Close()

			src := tc.prepare(t, 1, PartitionBands)
			s1, err := src.Snapshot()
			src.Close()
			if err != nil {
				t.Fatal(err)
			}
			m, err := Restore(s1)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := m.Snapshot()
			m.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s1, s2) {
				i := 0
				for i < len(s1) && i < len(s2) && s1[i] == s2[i] {
					i++
				}
				t.Errorf("re-snapshot diverged: lengths %d vs %d, first difference at byte %d", len(s1), len(s2), i)
			}

			m, err = RestoreOn(s1, 2, PartitionBlocks)
			if err != nil {
				t.Fatal(err)
			}
			got := tc.finish(t, m)
			m.Close()
			if got != ref {
				t.Errorf("restore on blocks/2 diverged from the uninterrupted run:\n--- straight ---\n%s--- restored ---\n%s", ref, got)
			}
		})
	}
}

// campaignPrepare runs the storm-campaign conformance workload through
// its first two chunks: past the link wave, the chip-death storm and the
// chip kill, with packets already dropped.
func campaignPrepare(t *testing.T, workers int, partition string) *Machine {
	t.Helper()
	wl := campaignWorkload(t)
	m, err := PrepareWorkloadOn(wl, workers, partition)
	if err != nil {
		t.Fatal(err)
	}
	var rep *RunReport
	for _, n := range WorkloadChunks(wl)[:2] {
		if rep, err = m.Run(n); err != nil {
			m.Close()
			t.Fatal(err)
		}
	}
	if len(m.DeadChips()) == 0 || rep.PacketsDropped == 0 {
		m.Close()
		t.Fatalf("campaign image point has %d dead chips and %d drops, want both", len(m.DeadChips()), rep.PacketsDropped)
	}
	return m
}

// campaignFinish runs the rest of the storm-campaign schedule and
// fingerprints the result.
func campaignFinish(t *testing.T, m *Machine) string {
	t.Helper()
	wl := campaignWorkload(t)
	var rep *RunReport
	var err error
	for _, n := range WorkloadChunks(wl)[2:] {
		if rep, err = m.Run(n); err != nil {
			t.Fatal(err)
		}
	}
	return workloadFingerprint(t, m, rep, wl)
}

// TestRestoreReplaysNoTraffic pins that Restore takes the system-image
// and application-data loads from the image instead of re-simulating
// them: restoring the golden-workload image executes under a tenth of
// the events a fresh boot of the same machine does — only the boot
// control's probe and coordinate flood run again.
func TestRestoreReplaysNoTraffic(t *testing.T) {
	src := snapPrepare(t, 17, 1, PartitionBands, false)
	image, err := src.Snapshot()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewMachine(snapConfig(17, 1, PartitionBands))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Boot(); err != nil {
		t.Fatal(err)
	}
	m, err := Restore(image)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	booted, restored := fresh.SimStats().Events, m.SimStats().Events
	if restored*10 >= booted {
		t.Errorf("restore executed %d events, a fresh boot %d: want under a tenth", restored, booted)
	}
	t.Logf("restore executed %d events, a fresh boot %d", restored, booted)
}

// BenchmarkRestore restores the golden-workload image and reports the
// events one restore executes.
func BenchmarkRestore(b *testing.B) {
	src := snapPrepare(b, 17, 1, PartitionBands, false)
	image, err := src.Snapshot()
	src.Close()
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	for b.Loop() {
		m, err := Restore(image)
		if err != nil {
			b.Fatal(err)
		}
		events = m.SimStats().Events
		m.Close()
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkPrepareWorkload times a whole set-up — boot, the system-image
// flood with the network compile beside it, the application-data load
// and the arming — of a plastic document and of the campaign one.
func BenchmarkPrepareWorkload(b *testing.B) {
	for _, name := range []string{"cortical-mix", "storm-campaign"} {
		wl, err := workload.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				m, err := PrepareWorkload(wl)
				if err != nil {
					b.Fatal(err)
				}
				m.Close()
			}
		})
	}
}

// TestRepartitionValidation pins the refusals of a move onto another
// layout: RestoreOn rejects an unknown geometry, a negative worker count,
// more workers than the fabric has chips, and the boards geometry on a
// uniform fabric, and the machine that produced the image runs on.
func TestRepartitionValidation(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4})
	defer m.Close()
	model := NewModel()
	stim := model.AddPoisson("stim", 4, 100)
	exc := model.AddLIF("exc", 8, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{Rule: AllToAllRule, WeightNA: 1, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(5); err != nil {
		t.Fatal(err)
	}
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreOn(data, 2, "spiral"); err == nil {
		t.Error("unknown geometry accepted")
	}
	if _, err := RestoreOn(data, -1, PartitionBands); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := RestoreOn(data, 17, PartitionBands); err == nil {
		t.Error("workers beyond the chip count accepted")
	}
	if _, err := RestoreOn(data, 2, PartitionBoards); err == nil {
		t.Error("boards geometry accepted on a uniform fabric")
	}
	if _, err := m.Run(5); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotErrors pins the failure modes: snapshots are illegal
// before boot and load, and corrupt, truncated, version-skewed or
// trailing-garbage images are rejected up front.
func TestSnapshotErrors(t *testing.T) {
	m, err := NewMachine(MachineConfig{Width: 2, Height: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Snapshot(); err == nil {
		t.Error("Snapshot before Boot succeeded")
	}
	if _, err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Error("Snapshot before Load succeeded")
	}
	model := NewModel()
	stim := model.AddPoisson("stim", 4, 100)
	exc := model.AddLIF("exc", 8, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{Rule: AllToAllRule, WeightNA: 1, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(5); err != nil {
		t.Fatal(err)
	}
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Restore(nil); err == nil {
		t.Error("Restore(nil) succeeded")
	}
	if _, err := Restore([]byte("not a snapshot")); err == nil {
		t.Error("Restore of junk succeeded")
	}
	if _, err := Restore(data[:len(data)-7]); err == nil {
		t.Error("Restore of a truncated image succeeded")
	}
	trailing := append(append([]byte(nil), data...), 0xFF)
	if _, err := Restore(trailing); err == nil {
		t.Error("Restore with trailing garbage succeeded")
	}
	// Byte 16 is the low byte of the format version (after the 4-byte
	// length prefix and 12-byte magic).
	skewed := append([]byte(nil), data...)
	skewed[16]++
	if _, err := Restore(skewed); err == nil {
		t.Error("Restore of a version-skewed image succeeded")
	}
	// Images of earlier formats are refused by name: no build reads
	// another version's image.
	for _, v := range []byte{4, 5} {
		skewed[16] = v
		want := fmt.Sprintf("snapshot format v%d, this build reads v%d", v, SnapshotVersion)
		if _, err := Restore(skewed); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Restore of a v%d image: error %v, want %q", v, err, want)
		}
	}
	if _, err := RestoreOn(data, 0, "spiral"); err == nil {
		t.Error("RestoreOn with an unknown partition succeeded")
	}
	// The machine that produced the image is untouched by all of this.
	if _, err := m.Run(5); err != nil {
		t.Fatal(err)
	}

	// A synaptic matrix whose rows are out of key order.
	golden := snapPrepare(t, 17, 1, PartitionBands, false)
	defer golden.Close()
	image, err := golden.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(swappedRowKeys(t, golden, image)); err == nil || !strings.Contains(err.Error(), "follows row") {
		t.Errorf("Restore of an image with two row keys swapped: error %v, want an out-of-order error", err)
	}
	// A plasticity rule whose potentiation window is zero: its decay
	// terms would be NaN.
	if _, err := Restore(zeroTau(t, golden, image)); err == nil || !strings.Contains(err.Error(), "STDP windows 0, 20 ms") {
		t.Errorf("Restore of an image with a zero STDP window: error %v, want the rule's validation error", err)
	}

	// A spike raster no run can produce.
	for _, c := range rasterFaults() {
		if _, err := Restore(corruptRaster(t, golden, image, c.edit)); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("Restore of an image with %s: error %v, want one containing %q", c.what, err, c.err)
		}
	}

	// An epoch the run point cannot hold: after the snapshot instant, or
	// before the rebuilt boot control ends (boot control takes simulated
	// time, so epoch 0 precedes its end). The run point opens with the
	// snapshot instant, then the epoch.
	epochOff := sectionCuts(t, golden, image)[2] + 8
	now := int64(binary.LittleEndian.Uint64(image[epochOff-8:]))
	if now != int64(golden.pe.Now()) || int64(binary.LittleEndian.Uint64(image[epochOff:])) != int64(golden.epoch) {
		t.Fatal("run point fields not where the test expects them")
	}
	for _, c := range []struct {
		what  string
		epoch int64
	}{
		{"after the snapshot instant", now + 1},
		{"before the boot control ends", 0},
	} {
		bad := bytes.Clone(image)
		binary.LittleEndian.PutUint64(bad[epochOff:], uint64(c.epoch))
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("Restore of an image with its epoch %s panicked: %v", c.what, p)
				}
			}()
			m, err := Restore(bad)
			if m != nil {
				m.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "corrupt snapshot: epoch") {
				t.Errorf("Restore of an image with its epoch %s: error %v, want a corrupt-epoch error", c.what, err)
			}
		}()
	}

	// A flood-fill assembly the dense per-command fill state cannot hold:
	// one naming command 0, a command past the table, a command that is
	// not a fill, or a chunk count other than its command's.
	nonFill := uint32(boot.DefaultConfig().ImageBlocks + 1) // the first application-data write
	for _, c := range []struct {
		what, err string
		edit      func(rec []byte)
	}{
		{"naming command 0", "names command 0 outside the", func(rec []byte) { binary.LittleEndian.PutUint32(rec, 0) }},
		{"naming a command past the table", "names command 1048576 outside the", func(rec []byte) { binary.LittleEndian.PutUint32(rec, 1<<20) }},
		{"naming a write command", fmt.Sprintf("names write command %d", nonFill), func(rec []byte) { binary.LittleEndian.PutUint32(rec, nonFill) }},
		{"one chunk short of its command's", "fill assembly chunk copies", func(rec []byte) { rec[4]-- }},
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("Restore of an image with a fill assembly %s panicked: %v", c.what, p)
				}
			}()
			m, err := Restore(corruptFill(t, image, c.edit))
			if m != nil {
				m.Close()
			}
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("Restore of an image with a fill assembly %s: error %v, want one containing %q", c.what, err, c.err)
			}
		}()
	}
}

// corruptFill returns image with its first flood-fill assembly record —
// the gateway's assembly of command 1, the system image's first block,
// found by its bytes — edited from its command sequence number on.
func corruptFill(t testing.TB, image []byte, edit func(rec []byte)) []byte {
	t.Helper()
	chunks := boot.DefaultConfig().BlockBytes / hostLoadChunkBytes
	rec := binary.LittleEndian.AppendUint32(nil, 1)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(chunks))
	rec = append(rec, bytes.Repeat([]byte{1}, chunks)...) // one copy of each chunk
	rec = append(rec, make([]byte, 8)...)                 // no chunk left
	at := bytes.Index(image, rec)
	if at < 0 {
		t.Fatal("no assembly of command 1 in the image")
	}
	bad := bytes.Clone(image)
	edit(bad[at:])
	return bad
}

// packSpikes packs a raster as the recorder streams it. A spike in the
// same tick as the spike before it is the uvarint of twice its zigzagged
// neuron gap; any other is the uvarint of twice its neuron plus one,
// then the uvarint tick delta from the spike before it.
func packSpikes(spikes []neural.Spike) []byte {
	var stream []byte
	for i, s := range spikes {
		if i == 0 || s.Tick != spikes[i-1].Tick {
			var last uint64
			if i > 0 {
				last = spikes[i-1].Tick
			}
			stream = binary.AppendUvarint(binary.AppendUvarint(stream, 2*uint64(s.Neuron)+1), s.Tick-last)
			continue
		}
		stream = binary.AppendUvarint(stream, 2*zigzag(s.Neuron-spikes[i-1].Neuron))
	}
	return stream
}

// zigzag is the zigzag code of a neuron gap: g ≥ 0 as 2g, g < 0 as −2g − 1.
func zigzag(gap int) uint64 {
	if gap < 0 {
		return 2*uint64(-gap) - 1
	}
	return 2 * uint64(gap)
}

// rasterFault is one way a restored raster can be wrong: the section
// edit builds from a unit's spikes and population size, and the error
// it must raise.
type rasterFault struct {
	what, err string
	edit      func(spikes []neural.Spike, size int) []byte
}

// rasterFaults lists the streams no recorder writes: one opening with a
// gap, a gap or an opener outside the population, a later tick opened
// with delta 0, an overlong uvarint in either field, a record cut short,
// and a spike count the stream does not hold. Each edit appends to or
// rewrites the unit's stream, whose spikes cover at least two ticks.
func rasterFaults() []rasterFault {
	// plus is the unit's stream with more bytes, holding one more spike.
	plus := func(spikes []neural.Spike, more ...byte) []byte {
		return rasterSection(len(spikes)+1, append(packSpikes(spikes), more...))
	}
	// gapTo appends a gap record taking the last spike's neuron to neuron.
	gapTo := func(spikes []neural.Spike, neuron int) []byte {
		last := spikes[len(spikes)-1]
		return plus(spikes, binary.AppendUvarint(nil, 2*zigzag(neuron-last.Neuron))...)
	}
	return []rasterFault{
		{"a stream opening with a gap", "spike 0: the stream opens with a gap", func(spikes []neural.Spike, _ int) []byte {
			return rasterSection(len(spikes)+1, append([]byte{0}, packSpikes(spikes)...))
		}},
		{"a spike's neuron set to its population size", "on neuron", func(spikes []neural.Spike, size int) []byte {
			spikes[0].Neuron = size
			return rasterSection(len(spikes), packSpikes(spikes))
		}},
		{"a gap below neuron 0", "on neuron -1 of", func(spikes []neural.Spike, _ int) []byte { return gapTo(spikes, -1) }},
		{"a gap to the population size", "on neuron", func(spikes []neural.Spike, size int) []byte { return gapTo(spikes, size) }},
		{"a later tick opened with delta 0", "opens tick", func(spikes []neural.Spike, _ int) []byte { return plus(spikes, 1, 0) }},
		{"an overlong neuron uvarint", "neuron is not a whole minimal uvarint", func(spikes []neural.Spike, _ int) []byte { return plus(spikes, 0x81, 0, 1) }},
		{"an overlong tick delta", "tick delta is not a whole minimal uvarint", func(spikes []neural.Spike, _ int) []byte { return plus(spikes, 1, 0x81, 0) }},
		{"a stream ending mid-spike", "tick delta is not a whole minimal uvarint", func(spikes []neural.Spike, _ int) []byte { return plus(spikes, 1) }},
		{"a spike count one too high", "the stream holds", func(spikes []neural.Spike, _ int) []byte {
			return rasterSection(len(spikes)+1, packSpikes(spikes))
		}},
		{"a spike count one too low", "the stream holds", func(spikes []neural.Spike, _ int) []byte {
			return rasterSection(len(spikes)-1, packSpikes(spikes))
		}},
	}
}

// rasterSection is a recorder's image section: the spike count, the
// stream's length, then the stream.
func rasterSection(total int, stream []byte) []byte {
	c := snap.NewEncoder()
	c.Len(total)
	c.Bytes32(&stream)
	return c.Bytes()
}

// corruptRaster returns image with the raster section of the first unit
// that recorded spikes at two ticks replaced by the section edit builds
// from the unit's spikes and population size. The section is found by
// its bytes, re-encoded from m.
func corruptRaster(t testing.TB, m *Machine, image []byte, edit func(spikes []neural.Spike, size int) []byte) []byte {
	t.Helper()
	var bad []byte
	m.eachUnit(func(u *unit) {
		spikes := u.pop.Rec.Spikes()
		if bad != nil || len(spikes) < 2 || spikes[0].Tick == spikes[len(spikes)-1].Tick {
			return
		}
		enc := snap.NewEncoder()
		u.pop.Rec.Snap(enc)
		section := enc.Bytes()
		if !bytes.Equal(section, rasterSection(len(spikes), packSpikes(spikes))) {
			t.Fatal("recorder section differs from its packed raster")
		}
		at := bytes.Index(image, section)
		if at < 0 {
			t.Fatal("recorder section not found in the image")
		}
		bad = slices.Concat(image[:at], edit(spikes, u.frag.Size()), image[at+len(section):])
	})
	if bad == nil {
		t.Fatal("no unit recorded spikes at two ticks")
	}
	return bad
}

// swappedRowKeys returns image with the first two row keys of the first
// plastic fragment's synaptic matrix swapped, so they descend. The
// section is found by its bytes, re-encoded from m.
func swappedRowKeys(t testing.TB, m *Machine, image []byte) []byte {
	t.Helper()
	for _, f := range m.rplan.Frags {
		cd := m.dplan.Cores[f.Chip][f.Core]
		if cd == nil || cd.STDP == nil || cd.Matrix.NumRows() < 2 {
			continue
		}
		enc := snap.NewEncoder()
		cd.Matrix.Snap(enc, f.Size())
		at := bytes.Index(image, enc.Bytes())
		if at < 0 {
			t.Fatal("plastic matrix section not found in the image")
		}
		// The section is the row count, then per row its key, synapse
		// count and synapses.
		first := at + 4
		second := first + 8 + 4*int(binary.LittleEndian.Uint32(image[first+4:]))
		bad := bytes.Clone(image)
		copy(bad[first:first+4], image[second:second+4])
		copy(bad[second:second+4], image[first:first+4])
		return bad
	}
	t.Fatal("no plastic fragment holds two rows")
	return nil
}

// zeroTau returns image with the window TauPlusMS of m's first plastic
// projection coded as zero in the network section.
func zeroTau(t testing.TB, m *Machine, image []byte) []byte {
	t.Helper()
	for _, pr := range m.model.net.Projs {
		if pr.STDP == nil {
			continue
		}
		var rule [32]byte // APlus, AMinus, TauPlusMS, TauMinusMS as the section codes them
		for i, v := range []float64{pr.STDP.APlus, pr.STDP.AMinus, pr.STDP.TauPlusMS, pr.STDP.TauMinusMS} {
			binary.LittleEndian.PutUint64(rule[8*i:], math.Float64bits(v))
		}
		at := bytes.Index(image, rule[:])
		if at < 0 {
			t.Fatal("plasticity rule not found in the image")
		}
		bad := bytes.Clone(image)
		binary.LittleEndian.PutUint64(bad[at+16:], 0)
		return bad
	}
	t.Fatal("no plastic projection")
	return nil
}

// TestRestoreBoundsAllocation pins the hostile-image guard: a collection
// length corrupted to 0xFFFFFFFF — the event count, or one event's
// argument count, which sizes a make() — must fail the restore without
// allocating by it (four corrupt bytes used to request 32 GiB).
func TestRestoreBoundsAllocation(t *testing.T) {
	src := snapPrepare(t, 17, 1, PartitionBands, false)
	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	events, err := src.pe.ExportEvents()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The event section ends the image; locate its count field, and the
	// first event's args-length field, from the encoded sizes.
	section := 4
	for _, ev := range events {
		section += 8 + 4 + 1 + 8 + 8 + 4 + len(ev.Desc.Kind) + 4 + 8*len(ev.Desc.Args) + 4 + len(ev.Desc.Blob)
	}
	countOff := len(data) - section
	argsOff := countOff + 4 + 8 + 4 + 1 + 8 + 8 + 4 + len(events[0].Desc.Kind)
	if got := binary.LittleEndian.Uint32(data[countOff:]); int(got) != len(events) {
		t.Fatalf("event-count field reads %d, image holds %d events", got, len(events))
	}
	if got := binary.LittleEndian.Uint32(data[argsOff:]); int(got) != len(events[0].Desc.Args) {
		t.Fatalf("args-length field reads %d, first event has %d args", got, len(events[0].Desc.Args))
	}
	allocOf := func(image []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Restore(image)
		if m != nil {
			m.Close()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	clean, err := allocOf(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, off := range map[string]int{"event count": countOff, "args length": argsOff} {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[off:], 0xFFFFFFFF)
		got, err := allocOf(bad)
		if err == nil {
			t.Errorf("%s of 0xFFFFFFFF: Restore succeeded", name)
		}
		// The rebuild (boot control + compile) allocates what a clean restore does;
		// the corrupt length may add no more than a few image lengths.
		if limit := clean + 4*uint64(len(data)); got > limit {
			t.Errorf("%s of 0xFFFFFFFF: Restore allocated %d bytes, clean restore %d, image %d", name, got, clean, len(data))
		}
	}
}

// TestSnapshotGolden pins the on-disk format: the reference workload's
// snapshot must hash to the checked-in golden value for the current
// SnapshotVersion. Any change to what is serialised (or its order)
// changes the hash — bump SnapshotVersion and regenerate the golden with
// `go test -run TestSnapshotGolden -update .` in the same change.
func TestSnapshotGolden(t *testing.T) {
	src := snapPrepare(t, 17, 1, PartitionBands, false)
	data, err := src.Snapshot()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dir := os.Getenv("SNAPSHOT_ARTIFACT_DIR"); dir != "" {
		name := filepath.Join(dir, fmt.Sprintf("golden-v%d.snap", SnapshotVersion))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatalf("writing snapshot artifact: %v", err)
		}
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	golden := filepath.Join("testdata", fmt.Sprintf("snapshot-v%d.sha256", SnapshotVersion))
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden hash for format v%d (%v); if the format changed, bump SnapshotVersion and regenerate with `go test -run TestSnapshotGolden -update .`", SnapshotVersion, err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("snapshot image changed without a format version bump:\n  golden %s\n  got    %s\nbump SnapshotVersion and regenerate the golden in the same change", strings.TrimSpace(string(want)), got)
	}
}

// sectionCuts re-encodes m section by section with the same functions
// Snapshot calls and returns the image offset after each one — header,
// config, network, run point, domain sequences, tallies, then per
// fragment its shared part and each generation's place and state, then
// nodes, memory, host, the event count and every event record. It fails
// the test unless the pieces concatenate to exactly image.
func sectionCuts(t testing.TB, m *Machine, image []byte) []int {
	t.Helper()
	events, err := m.pe.ExportEvents()
	if err != nil {
		t.Fatal(err)
	}
	c := snap.NewEncoder()
	var cuts []int
	cut := func() { cuts = append(cuts, len(c.Bytes())) }
	_ = snapHeader(c)
	cut()
	m.cfg.snap(c)
	cut()
	snapNetwork(c, m.model.net)
	cut()
	at := runPoint{now: m.pe.Now(), epoch: m.epoch, bioMS: m.bioMS, ctrlRNG: *m.pe.RNG(), anonSeq: m.pe.AnonSeq()}
	at.snap(c)
	cut()
	nodes := m.fab.Nodes()
	chips := make([]int, len(nodes))
	domSeqs := make([]uint64, m.fab.Size())
	for i, n := range nodes {
		chips[i] = n.Index()
		domSeqs[n.Index()] = n.Domain().Scheduled()
	}
	snapDomainSeqs(c, chips, domSeqs)
	cut()
	m.snapTallies(c)
	cut()
	c.Len(len(m.fragUnits))
	for fragIdx, gens := range m.fragUnits {
		c.Len(len(gens))
		m.snapFragmentShared(c, fragIdx, gens[0].rng)
		cut()
		for _, u := range gens {
			snapUnitPlace(c, &u.slot, &u.tickBase, &u.failed)
			cut()
			u.snap(c)
			cut()
		}
	}
	m.snapNodes(c, chips)
	cut()
	m.snapMemory(c, chips)
	cut()
	m.host.Snap(c)
	cut()
	c.Len(len(events))
	for i := range events {
		cut()
		events[i].Snap(c)
	}
	if !bytes.Equal(c.Bytes(), image) {
		t.Fatalf("sections re-encode to %d bytes that differ from the %d-byte image", len(c.Bytes()), len(image))
	}
	return cuts
}

// TestRestoreTruncatedIsError pins the half-written-checkpoint contract:
// the golden-workload image cut short anywhere — every section boundary,
// plus offsets strided across the whole image — is an error from
// Restore, never a panic and never a machine.
func TestRestoreTruncatedIsError(t *testing.T) {
	src := snapPrepare(t, 17, 1, PartitionBands, false)
	defer src.Close()
	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	offs := sectionCuts(t, src, data)
	for off, stride := 0, max(1, len(data)/400); off < len(data); off += stride {
		offs = append(offs, off)
	}
	panics := 0
	for _, off := range offs {
		func() {
			defer func() {
				if p := recover(); p != nil {
					panics++
					t.Errorf("image cut at %d of %d: Restore panicked: %v", off, len(data), p)
				}
			}()
			m, err := Restore(data[:off:off])
			if m != nil {
				m.Close()
			}
			if err == nil {
				t.Errorf("image cut at %d of %d: Restore succeeded", off, len(data))
			}
		}()
	}
	t.Logf("%d truncations of a %d-byte image, %d panics", len(offs), len(data), panics)
}

// TestRestoreBoundsRebuild pins the other half of the hostile-image
// guard: the config block and network size the machine Restore boots and
// loads, so a torus or a population too large to have left its records
// in an image of this length is rejected before the rebuild — four
// corrupt bytes used to boot a 2^32-chip-wide torus, or partition 2^32
// neurons.
func TestRestoreBoundsRebuild(t *testing.T) {
	src := snapPrepare(t, 17, 1, PartitionBands, false)
	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cuts := sectionCuts(t, src, data)
	src.Close()
	// Width is the config block's first field; the network section opens
	// with the population count, then "stim" and its size.
	widthOff := cuts[0]
	sizeOff := cuts[1] + 4 + 4 + len("stim")
	if got := binary.LittleEndian.Uint64(data[widthOff:]); got != 4 {
		t.Fatalf("width field reads %d, want 4", got)
	}
	if got := binary.LittleEndian.Uint64(data[sizeOff:]); got != 80 {
		t.Fatalf("stim size field reads %d, want 80", got)
	}
	for name, off := range map[string]int{"torus width": widthOff, "population size": sizeOff} {
		for _, high := range []byte{0x01, 0x80} { // +2^32: oversized; sign bit: negative
			bad := bytes.Clone(data)
			bad[off+4] = high
			bad[off+7] = high & 0x80
			start := time.Now()
			m, err := Restore(bad)
			if m != nil {
				m.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "corrupt snapshot header") {
				t.Errorf("%s %#x: Restore error = %v, want a corrupt-header error", name, high, err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s %#x: Restore took %v to refuse", name, high, d)
			}
		}
	}
}

// FuzzRestore feeds Restore mutated golden-workload images, and an image
// holding packets asleep on a failed link with one retry record made
// impossible: whatever the
// bytes, it returns either a machine (closed here) or an error (having
// closed what it built) — never both, never neither, never a panic.
func FuzzRestore(f *testing.F) {
	src := snapPrepare(f, 17, 1, PartitionBands, false)
	data, err := src.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	cuts := sectionCuts(f, src, data)
	swapped := swappedRowKeys(f, src, data)
	noWindow := zeroTau(f, src, data)
	zeroFill := corruptFill(f, data, func(rec []byte) { binary.LittleEndian.PutUint32(rec, 0) })
	var rasters [][]byte
	for _, c := range rasterFaults() {
		rasters = append(rasters, corruptRaster(f, src, data, c.edit))
	}
	src.Close()
	f.Add(data)
	f.Add(swapped)
	// Each stream no recorder writes.
	for _, bad := range rasters {
		f.Add(bad)
	}
	for _, off := range []int{cuts[2], len(data) / 2, len(data) - 7} {
		f.Add(data[:off:off])
	}
	// A Len field opens the network section (population count), the
	// domain sequences (extent count) and the unit history (fragment
	// count): cuts[1], cuts[3] and cuts[5] are where those start.
	for _, off := range []int{cuts[1], cuts[3], cuts[5]} {
		bad := bytes.Clone(data)
		binary.LittleEndian.PutUint32(bad[off:], 0xFFFFFFFF)
		f.Add(bad)
	}
	// An image with packets asleep on a failed link, one of them waiting
	// since the dawn of time.
	sl, _ := sleepPrepare(f, 1, PartitionBands)
	slept, err := sl.Snapshot()
	sl.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(corruptRetry(f, slept))
	// A plasticity rule whose potentiation window is zero.
	f.Add(noWindow)
	// A flood-fill assembly naming command 0.
	f.Add(zeroFill)
	f.Fuzz(func(t *testing.T, image []byte) {
		m, err := Restore(image)
		if (m == nil) == (err == nil) {
			t.Fatalf("Restore returned machine %v and error %v", m != nil, err)
		}
		if m != nil {
			m.Close()
		}
	})
}

// TestSnapshotSettlesElidedCompletions takes a snapshot at an instant
// where cores are mid-handler with their completions in no queue — a
// timestamp and a reserved key on the core, nothing else. The image must
// be the one the machine writes after settling them explicitly (the
// pending completion as an event, the rest of the core as it stands),
// restores of it onto one and two workers must finish byte-identical to
// the original carrying on, and none of the snapshots taken on the way
// may have moved the original off the run that was never snapshotted.
func TestSnapshotSettlesElidedCompletions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	src := snapPrepare(t, 17, 1, PartitionBands, false)
	defer src.Close()
	straight := snapPrepare(t, 17, 1, PartitionBands, false)
	defer straight.Close()

	var image []byte
	for ms, settled := 0, 0; settled == 0; ms++ {
		if ms == 50 {
			t.Fatal("no chunk boundary in 50 ms found a core busy with its completion unarmed")
		}
		for _, m := range []*Machine{src, straight} {
			if _, err := m.Run(1); err != nil {
				t.Fatal(err)
			}
		}
		// Settling arms the completions still ahead, so the pending
		// count tells whether this instant had any.
		before := src.pe.Pending()
		var err error
		if image, err = src.Snapshot(); err != nil {
			t.Fatal(err)
		}
		settled = src.pe.Pending() - before
	}
	src.syncCompletions()
	again, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, again) {
		t.Error("the image written over unsettled completions differs from the one written after an explicit sync")
	}

	ref := snapFinish(t, straight)
	if got := snapFinish(t, src); got != ref {
		t.Errorf("snapshotting moved the run:\n--- never snapshotted ---\n%s--- snapshotted ---\n%s", ref, got)
	}
	for _, cell := range []struct {
		workers   int
		partition string
	}{{1, PartitionBands}, {2, PartitionBlocks}} {
		m, err := RestoreOn(image, cell.workers, cell.partition)
		if err != nil {
			t.Fatalf("restore %s/%d: %v", cell.partition, cell.workers, err)
		}
		got := snapFinish(t, m)
		m.Close()
		if got != ref {
			t.Errorf("restore on %s/%d diverged from the original:\n--- original ---\n%s--- restored ---\n%s",
				cell.partition, cell.workers, ref, got)
		}
	}
}
