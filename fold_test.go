package spinngo

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"spinngo/internal/chip"
	"spinngo/internal/kernel"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
)

// foldPrepare boots the snapshot reference geometry and loads a network
// whose every injection is a fired neuron: biased LIF neurons firing
// together in bursts, eight fragments of 30 spread over the torus, with
// no stimulus population and no plasticity — so every row fetch a packet
// handler launches finds its DMA controller idle.
func foldPrepare(t *testing.T, workers int, partition string) *Machine {
	t.Helper()
	cfg := snapConfig(29, workers, partition)
	cfg.MaxNeuronsPerCore = 30
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	model := NewModel()
	lif := DefaultLIFConfig()
	lif.BiasNA = 3
	exc := model.AddLIF("exc", 240, lif)
	if err := model.Connect(exc, exc, Conn{Rule: RandomRule, P: 0.1, WeightNA: 0.4, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	return m
}

// foldFinish runs 20 ms on and renders the report and the raster.
func foldFinish(t *testing.T, m *Machine) string {
	t.Helper()
	rep, err := m.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	exc, _ := m.Pop("exc")
	spikes := m.Spikes(exc)
	sort.Slice(spikes, func(i, j int) bool {
		if spikes[i].TimeMS != spikes[j].TimeMS {
			return spikes[i].TimeMS < spikes[j].TimeMS
		}
		return spikes[i].Neuron < spikes[j].Neuron
	})
	var b strings.Builder
	b.WriteString(rep.String())
	for _, s := range spikes {
		fmt.Fprintf(&b, " %d@%d", s.Neuron, s.TimeMS)
	}
	return b.String()
}

// foldBoundary is a chunk boundary the probe run found: 50 ns into a
// burst of n injections by one handler, entering chip's router at
// routeAt; or (n = 0) 20 ns after a packet reached a core.
type foldBoundary struct {
	at, routeAt sim.Time
	chip        int32
	n           int
}

// TestSnapshotInsideFoldedStages takes snapshots at chunk boundaries
// inside the two stages that are not events: 50 ns after a tick's burst
// of injections, while the burst waits as one route event, and while a
// row fetch is folded into its core's dispatch. At every burst boundary
// the export must hold one fab.routeMC per pending packet of the burst,
// under consecutive keys. The first image of each kind, restored onto
// one worker and onto two and run to the later boundary, must finish
// byte-identical to the run that was never snapshotted, as must the run
// the snapshots were taken from.
func TestSnapshotInsideFoldedStages(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine determinism sweep")
	}
	// A probe run finds the boundaries: every spike's injection instant
	// and chip, by the unit that fired it, and every core delivery.
	probe := foldPrepare(t, 1, PartitionBands)
	type origin struct {
		at   sim.Time
		chip int32
	}
	fired := map[origin][]*unit{}
	probe.eachUnit(func(u *unit) {
		spike, dom := u.pop.OnSpike, probe.domAt(u.frag.Chip)
		u.pop.OnSpike = func(local int) {
			o := origin{dom.Now(), int32(dom.ID())}
			fired[o] = append(fired[o], u)
			spike(local)
		}
	})
	var boundaries []foldBoundary
	deliver := probe.fab.OnDeliverMC
	probe.fab.OnDeliverMC = func(n *router.Node, core int, pkt packet.Packet, lat sim.Time) {
		boundaries = append(boundaries, foldBoundary{at: n.Domain().Now() + 20*sim.Nanosecond})
		deliver(n, core, pkt, lat)
	}
	if _, err := probe.Run(20); err != nil {
		t.Fatal(err)
	}
	latency := probe.fab.Params().RouterLatency
	probe.Close()
	bursts := 0
	for o, us := range fired {
		if len(us) > 1 && us[0] == us[len(us)-1] {
			boundaries = append(boundaries, foldBoundary{o.at + 50*sim.Nanosecond, o.at + latency, o.chip, len(us)})
			bursts++
		}
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i].at < boundaries[j].at })
	if bursts < 10 {
		t.Fatalf("the probe run fired %d one-handler bursts; the network is meant to fire in bursts", bursts)
	}

	src := foldPrepare(t, 1, PartitionBands)
	defer src.Close()
	straight := foldPrepare(t, 1, PartitionBands)
	defer straight.Close()
	var burstImage, foldImage []byte
	for _, b := range boundaries {
		if b.at <= src.pe.Now() {
			continue
		}
		for _, m := range []*Machine{src, straight} {
			m.pe.RunUntil(b.at)
		}
		image, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := src.pe.ExportEvents()
		if err != nil {
			t.Fatal(err)
		}
		if b.n > 0 {
			var keys []uint64
			for _, r := range recs {
				if r.Desc.Kind == router.KindRouteMC && r.Domain == b.chip && r.At == b.routeAt {
					keys = append(keys, r.K1)
				}
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			if len(keys) != b.n || keys[len(keys)-1]-keys[0] != uint64(b.n-1) {
				t.Fatalf("a burst of %d packets entering chip %d at %v exported as route events under keys %v",
					b.n, b.chip, b.routeAt, keys)
			}
			if burstImage == nil {
				burstImage = image
			}
		}
		if foldImage == nil && foldedFetch(recs) {
			foldImage = image
		}
		if burstImage != nil && foldImage != nil {
			break
		}
	}
	if burstImage == nil || foldImage == nil {
		t.Fatalf("of %d boundaries none was inside a burst (%v) or none inside a folded fetch (%v)",
			len(boundaries), burstImage != nil, foldImage != nil)
	}

	end := src.pe.Now()
	ref := foldFinish(t, straight)
	if got := foldFinish(t, src); got != ref {
		t.Errorf("snapshotting moved the run:\n--- never snapshotted ---\n%s\n--- snapshotted ---\n%s", ref, got)
	}
	for name, image := range map[string][]byte{"burst": burstImage, "folded fetch": foldImage} {
		for _, cell := range []struct {
			workers   int
			partition string
		}{{1, PartitionBands}, {2, PartitionBlocks}} {
			m, err := RestoreOn(image, cell.workers, cell.partition)
			if err != nil {
				t.Fatalf("restore %s/%d: %v", cell.partition, cell.workers, err)
			}
			m.pe.RunUntil(end)
			got := foldFinish(t, m)
			m.Close()
			if got != ref {
				t.Errorf("the image inside a %s, restored on %s/%d, diverged from the run never snapshotted:\n--- straight ---\n%s\n--- restored ---\n%s",
					name, cell.partition, cell.workers, ref, got)
			}
		}
	}
}

// foldedFetch reports whether a settled export holds a row fetch that
// was folded: its completion, and its core's completion under the next
// key at the same instant or later — the two keys one packet handler
// draws when its fetch lands before it ends.
func foldedFetch(recs []sim.EventRecord) bool {
	type unitKey struct {
		frag, gen uint64
		k1        uint64
	}
	dispatches := map[unitKey]sim.Time{}
	for _, r := range recs {
		if r.Desc.Kind == kernel.KindDispatch {
			dispatches[unitKey{r.Desc.Args[0], r.Desc.Args[1], r.K1}] = r.At
		}
	}
	for _, r := range recs {
		if r.Desc.Kind != chip.KindRowDone {
			continue
		}
		if end, ok := dispatches[unitKey{r.Desc.Args[0], r.Desc.Args[1], r.K1 + 1}]; ok && r.At <= end {
			return true
		}
	}
	return false
}
