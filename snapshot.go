package spinngo

import (
	"fmt"

	"spinngo/internal/chip"
	"spinngo/internal/kernel"
	"spinngo/internal/mapping"
	"spinngo/internal/neural"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/snap"
)

// Snapshot format identification. The format is versioned: any change to
// what is written (or the order it is written in) must bump
// SnapshotVersion, and the golden-snapshot CI test pins exactly that.
const (
	snapshotMagic = "SPINNGO-SNAP"
	// SnapshotVersion is the current on-disk snapshot format version.
	// v2: per-link freeAt/draining pacing state replaced the busy flag,
	// and "fab.txdrain" replaced the per-launch "fab.txdone" events.
	// v3: per-chip sections (domain sequences, node states, SDRAM/DMA)
	// are framed as index extents over the instantiated chips, chip
	// tallies as non-zero entries, so a sparse machine's untouched
	// regions cost nothing on disk; the config block gains the Cabinets
	// and CabinetLinkParams fields of the third packaging level.
	// v4: fault campaigns — the node state gains the chip-death flag,
	// host flood-fill assemblies count per-chunk copies (redundancy)
	// instead of a seen bit, commands carry the gateway-unreachable
	// flag, and the config block gains FillRedundancy.
	SnapshotVersion = 4
)

// Snapshot serialises the machine's complete state — pending event heaps
// with their canonical (time, domain, class, key) ordering intact, every
// RNG stream, neural and synaptic unit state, fabric queues, counters
// and live-cut link health, and the host command table — into a
// self-contained versioned byte image. The image embeds the machine
// configuration and the loaded network, so Restore needs nothing else.
//
// A snapshot is only legal at sequential quiescence with no host command
// in flight: between Run calls, outside any Batch. Restoring the image
// on ANY worker count and partition geometry and running to the same end
// time yields byte-identical observables to the uninterrupted run — the
// determinism contract extended through a save/load cycle.
func (m *Machine) Snapshot() ([]byte, error) {
	if !m.booted || !m.loaded {
		return nil, fmt.Errorf("spinngo: snapshot requires a booted machine with a loaded model")
	}
	if err := m.pe.Quiescent(); err != nil {
		return nil, fmt.Errorf("spinngo: snapshot: %w", err)
	}
	if n := m.host.Inflight(); n != 0 {
		return nil, fmt.Errorf("spinngo: snapshot with %d host commands in flight", n)
	}
	events, err := m.pe.ExportEvents()
	if err != nil {
		return nil, fmt.Errorf("spinngo: snapshot: %w", err)
	}

	var w snap.Writer
	w.String(snapshotMagic)
	w.U16(SnapshotVersion)
	encConfig(&w, m.cfg)
	encNetwork(&w, m.model.net)

	w.I64(int64(m.pe.Now()))
	w.I64(int64(m.epoch))
	w.U64(m.bioMS)
	encRNG(&w, m.pe.RNG().State())
	w.U64(m.pe.AnonSeq())

	nodes := m.fab.Nodes()
	encNodeSection(&w, nodes, func(n *router.Node) {
		w.U64(n.Domain().Scheduled())
	})

	// Chip tallies serialise as their non-zero entries — a canonical
	// form independent of which chunks happen to have materialised, so
	// a restored machine re-snapshots byte-identically.
	var tallyIdx []int
	m.tallies.each(func(i int, t *chipTallies) {
		if *t != (chipTallies{}) {
			tallyIdx = append(tallyIdx, i)
		}
	})
	encIndexExtents(&w, tallyIdx, func(i int) {
		t := m.tallies.at(i)
		w.U64(t.latencies.N)
		w.I64(int64(t.latencies.Sum))
		w.I64(int64(t.latencies.Max))
		w.U64(t.writeBacks)
		w.U64(t.migrations)
		w.U64(t.migrationFailures)
	})

	w.Len(len(m.fragUnits))
	for fragIdx, gens := range m.fragUnits {
		f := m.rplan.Frags[fragIdx]
		w.Len(len(gens))
		if len(gens) == 0 {
			continue
		}
		// All generations of a fragment share one private RNG stream.
		encRNG(&w, gens[0].rng.State())
		// Plastic fragments carry their (mutated) synaptic rows; static
		// rows are regenerated bit-exactly by the restore-side compile.
		cd := m.dplan.Cores[f.Chip][f.Core]
		plastic := cd != nil && cd.STDP != nil
		w.Bool(plastic)
		if plastic {
			rows := cd.Matrix.ExportRows()
			w.Len(len(rows))
			for _, kr := range rows {
				w.U32(kr.Key)
				w.Len(len(kr.Row))
				for _, word := range kr.Row {
					w.U32(uint32(word))
				}
			}
		}
		for _, u := range gens {
			w.Int(u.slot)
			w.U64(u.tickBase)
			w.Bool(u.failed)
			encCoreState(&w, u.core.ExportState())
			w.U64(u.pop.Tick())
			w.Len(len(u.pop.Neurons))
			for _, nn := range u.pop.Neurons {
				if nn == nil {
					w.Bool(false) // dead (KillNeuron) or stateless source slot
					continue
				}
				w.Bool(true)
				st := neural.ExportNeuronState(nn)
				w.Len(len(st))
				for _, v := range st {
					w.U32(uint32(v))
				}
			}
			encRing(&w, u.pop.Ring.ExportState())
			rec := u.pop.Rec.ExportState()
			w.Len(len(rec.Spikes))
			for _, s := range rec.Spikes {
				w.U64(s.Tick)
				w.Int(s.Neuron)
			}
			w.Len(len(rec.Counts))
			for _, c := range rec.Counts {
				w.U64(c)
			}
			w.Bool(u.source != nil)
			if u.source != nil {
				encRNG(&w, u.source.RNGState())
			}
			w.Bool(u.stdp != nil)
			if u.stdp != nil {
				encSTDP(&w, u.stdp.ExportState())
			}
		}
	}

	encNodeSection(&w, nodes, func(n *router.Node) {
		n.EncodeState(&w)
	})

	encNodeSection(&w, nodes, func(n *router.Node) {
		ch := m.boot.Chip(n.Coord)
		encSDRAM(&w, ch.SDRAM.ExportState())
		slots := m.appCoreSlots(n.Coord)
		w.Len(len(slots))
		for _, hw := range slots {
			encDMA(&w, hw.DMA.ExportState())
		}
	})

	m.host.EncodeState(&w)

	w.Len(len(events))
	for _, ev := range events {
		w.I64(int64(ev.At))
		w.U32(uint32(ev.Domain))
		w.U8(ev.Class)
		w.U64(ev.K1)
		w.U64(ev.K2)
		w.String(ev.Desc.Kind)
		w.Len(len(ev.Desc.Args))
		for _, a := range ev.Desc.Args {
			w.U64(a)
		}
		w.Bytes32(ev.Desc.Blob)
	}
	return w.Bytes(), nil
}

// Restore rebuilds a machine from a Snapshot image, on the worker count
// and partition geometry the snapshot was taken with. The restored
// machine continues exactly where the snapshot left off.
func Restore(data []byte) (*Machine, error) {
	return restore(data, nil)
}

// RestoreOn is Restore onto an explicit execution strategy: workers and
// partition override the recorded configuration (0 and "" mean
// automatic, exactly as in MachineConfig). Because partitioning is pure
// execution strategy, the restored run's observables are byte-identical
// for every choice.
func RestoreOn(data []byte, workers int, partition string) (*Machine, error) {
	return restore(data, func(cfg *MachineConfig) {
		cfg.Workers = workers
		cfg.Partition = partition
	})
}

func restore(data []byte, override func(*MachineConfig)) (*Machine, error) {
	r := snap.NewReader(data)
	if magic := r.String(); r.Err() != nil || magic != snapshotMagic {
		return nil, fmt.Errorf("spinngo: not a snapshot image")
	}
	if v := r.U16(); v != SnapshotVersion {
		return nil, fmt.Errorf("spinngo: snapshot format v%d, this build reads v%d", v, SnapshotVersion)
	}
	cfg := decConfig(r)
	net := decNetwork(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("spinngo: corrupt snapshot header: %w", err)
	}
	if override != nil {
		override(&cfg)
	}

	// Phase 1 — rebuild: boot the machine and load the embedded model
	// from scratch. Boot and load are deterministic in the seed and
	// independent of the execution strategy, so the rebuilt machine
	// reaches the exact pre-run state the snapshotted one started from.
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			m.Close()
		}
	}()
	if _, err := m.Boot(); err != nil {
		return nil, fmt.Errorf("spinngo: restore boot: %w", err)
	}
	if _, err := m.Load(&Model{net: net}); err != nil {
		return nil, fmt.Errorf("spinngo: restore load: %w", err)
	}

	T := sim.Time(r.I64())
	epoch := sim.Time(r.I64())
	bioMS := r.U64()
	ctrlRNG := decRNG(r)
	anonSeq := r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("spinngo: corrupt snapshot: %w", err)
	}
	if epoch != m.epoch {
		return nil, fmt.Errorf("spinngo: restore rebuild diverged: load ended at %v, snapshot recorded %v (was the machine altered before loading?)", m.epoch, epoch)
	}

	size := m.fab.Size()
	domSeqs := make([]uint64, size)
	if err := decIndexExtents(r, size, func(i int) error {
		domSeqs[i] = r.U64()
		return nil
	}); err != nil {
		return nil, fmt.Errorf("spinngo: domain sequences: %w", err)
	}

	if err := decIndexExtents(r, size, func(i int) error {
		t := m.tallies.at(i)
		t.latencies.N = r.U64()
		t.latencies.Sum = sim.Time(r.I64())
		t.latencies.Max = sim.Time(r.I64())
		t.writeBacks = r.U64()
		t.migrations = r.U64()
		t.migrationFailures = r.U64()
		return nil
	}); err != nil {
		return nil, fmt.Errorf("spinngo: chip tallies: %w", err)
	}

	// Phase 2 — unit history replay and overlay. Generations ≥ 1 are
	// rebuilt through the same buildUnitAt path migrations use, so
	// routing-table rewrites and spare-slot occupancy replay exactly;
	// then each generation's dynamic state is overlaid.
	if n := r.Len(); r.Err() != nil || n != len(m.fragUnits) {
		return nil, fmt.Errorf("spinngo: snapshot has %d fragments, machine has %d", n, len(m.fragUnits))
	}
	for fragIdx := range m.fragUnits {
		f := m.rplan.Frags[fragIdx]
		nGens := r.Len()
		if r.Err() != nil {
			break
		}
		if nGens == 0 {
			return nil, fmt.Errorf("spinngo: fragment %d has no unit history", fragIdx)
		}
		fragRNG := decRNG(r)
		plastic := r.Bool()
		if plastic {
			cd := m.dplan.Cores[f.Chip][f.Core]
			if cd == nil || cd.STDP == nil {
				return nil, fmt.Errorf("spinngo: fragment %d plastic in snapshot but not in rebuild", fragIdx)
			}
			for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
				key := r.U32()
				row := make(neural.Row, r.Len())
				for j := range row {
					row[j] = neural.SynWord(r.U32())
				}
				cd.Matrix.AddRow(key, row)
			}
		}
		var failedFlags []bool
		for g := 0; g < nGens && r.Err() == nil; g++ {
			slot := r.Int()
			tickBase := r.U64()
			failed := r.Bool()
			var u *unit
			if g == 0 {
				u = m.fragUnits[fragIdx][0]
				if u.slot != slot {
					return nil, fmt.Errorf("spinngo: fragment %d rebuilt on slot %d, snapshot recorded %d", fragIdx, u.slot, slot)
				}
			} else {
				prev := m.fragUnits[fragIdx][g-1]
				prev.failed = true
				delete(m.units[f.Chip], prev.slot)
				u, err = m.buildUnitAt(f, fragIdx, slot, tickBase, prev.rng)
				if err != nil {
					return nil, fmt.Errorf("spinngo: replaying migration %d of fragment %d: %w", g, fragIdx, err)
				}
				m.fab.Node(f.Chip).Table.RewriteCore(prev.slot, u.slot)
			}
			failedFlags = append(failedFlags, failed)
			if err := decUnitState(r, u); err != nil {
				return nil, fmt.Errorf("spinngo: fragment %d gen %d: %w", fragIdx, g, err)
			}
		}
		// The last generation may itself have failed (a migration was
		// pending, or no spare was left) — apply the recorded flags.
		for g, failed := range failedFlags {
			u := m.fragUnits[fragIdx][g]
			if failed && !u.failed {
				u.failed = true
				delete(m.units[f.Chip], u.slot)
			}
		}
		// The fragment stream's state is overlaid last: the replayed
		// builds above consumed draws exactly as the original did, and
		// this pins the stream wherever the snapshot left it.
		if len(m.fragUnits[fragIdx]) > 0 {
			m.fragUnits[fragIdx][0].rng.SetState(fragRNG)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("spinngo: corrupt unit history: %w", err)
	}

	// Phase 3 — overlay fabric, memory and host state. A chip with
	// recorded state materialises on demand if the rebuild left it
	// untouched.
	if err := decIndexExtents(r, size, func(i int) error {
		n := m.fab.NodeAt(i)
		if err := n.DecodeState(r); err != nil {
			return fmt.Errorf("node %v: %w", n.Coord, err)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("spinngo: %w", err)
	}
	if err := decIndexExtents(r, size, func(i int) error {
		n := m.fab.NodeAt(i)
		ch := m.boot.Chip(n.Coord)
		ch.SDRAM.RestoreState(decSDRAM(r))
		slots := m.appCoreSlots(n.Coord)
		if k := r.Len(); r.Err() != nil || k != len(slots) {
			return fmt.Errorf("chip %v has %d app slots, snapshot %d", n.Coord, len(slots), k)
		}
		for _, hw := range slots {
			hw.DMA.RestoreState(decDMA(r))
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("spinngo: %w", err)
	}
	if err := m.host.DecodeState(r); err != nil {
		return nil, fmt.Errorf("spinngo: host state: %w", err)
	}

	// Chip deaths restored with the fabric overlay re-commit at the
	// machine layer — boot aliveness flips, and the recorded unit and
	// core states (already failed/stopped in the snapshot) are left
	// exactly as decoded.
	m.syncDeadChips()

	// Link failures restored with the node states re-shape the live cut;
	// re-price the lookahead for the restore partition.
	m.pe.SetLookahead(m.fab.LiveLookaheadFor(m.part))

	// Phase 4 — swap the event future: wipe the rebuilt machine's own
	// scheduled events (load stragglers, replayed start timers), move
	// every shard clock to the snapshot instant, and re-inject the
	// recorded events with their canonical keys intact, each rebuilt by
	// its kind's constructor.
	kinds := m.eventKinds()
	m.pe.ResetEvents()
	if err := m.pe.RestoreClock(T); err != nil {
		return nil, fmt.Errorf("spinngo: restore clock: %w", err)
	}
	nEvents := r.Len()
	for i := 0; i < nEvents && r.Err() == nil; i++ {
		var rec sim.EventRecord
		rec.At = sim.Time(r.I64())
		rec.Domain = int32(r.U32())
		rec.Class = r.U8()
		rec.K1 = r.U64()
		rec.K2 = r.U64()
		rec.Desc.Kind = r.String()
		rec.Desc.Args = make([]uint64, r.Len())
		for j := range rec.Desc.Args {
			rec.Desc.Args[j] = r.U64()
		}
		rec.Desc.Blob = r.Bytes32()
		if r.Err() != nil {
			break
		}
		if rec.Domain < 0 || int(rec.Domain) >= size {
			return nil, fmt.Errorf("spinngo: event %d targets domain %d outside the torus", i, rec.Domain)
		}
		build, ok := kinds[rec.Desc.Kind]
		if !ok {
			return nil, fmt.Errorf("spinngo: event %d: unknown event kind %q", i, rec.Desc.Kind)
		}
		ev, err := build(&rec)
		if err != nil {
			return nil, fmt.Errorf("spinngo: event %d (%s): %w", i, rec.Desc.Kind, err)
		}
		m.fab.NodeAt(int(rec.Domain)).Domain().Inject(rec.At, rec.Class, rec.K1, rec.K2, ev)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("spinngo: corrupt event section: %w", err)
	}
	if rem := r.Remaining(); rem != 0 {
		return nil, fmt.Errorf("spinngo: %d trailing bytes after snapshot", rem)
	}

	// Phase 5 — counters that future scheduling draws from.
	for _, n := range m.fab.Nodes() {
		n.Domain().RestoreSeq(domSeqs[n.Index()])
	}
	m.pe.RestoreAnonSeq(anonSeq)
	m.pe.RNG().SetState(ctrlRNG)
	m.bioMS = bioMS
	ok = true
	return m, nil
}

// Pop resolves a population handle by name on the loaded model — the
// handle-recovery path for machines rebuilt by Restore, where the
// original Model values are gone.
func (m *Machine) Pop(name string) (Pop, bool) {
	if m.model == nil {
		return Pop{}, false
	}
	for i, p := range m.model.net.Pops {
		if p.Name == name {
			return Pop{model: m.model, idx: i}, true
		}
	}
	return Pop{}, false
}

// ---- extent framing (v3) ----

// encIndexExtents writes an ordered chip-index set as contiguous
// extents: the extent count, then each extent's start index and length
// followed by one payload per index. A fully-booted machine writes one
// extent covering the torus; a sparse machine's untouched regions cost
// nothing.
func encIndexExtents(w *snap.Writer, idxs []int, enc func(i int)) {
	var exts [][2]int // position in idxs, run length
	for i := 0; i < len(idxs); {
		j := i + 1
		for j < len(idxs) && idxs[j] == idxs[j-1]+1 {
			j++
		}
		exts = append(exts, [2]int{i, j - i})
		i = j
	}
	w.Len(len(exts))
	for _, e := range exts {
		w.Int(idxs[e[0]])
		w.Len(e[1])
		for k := 0; k < e[1]; k++ {
			enc(idxs[e[0]+k])
		}
	}
}

// encNodeSection writes one per-chip section as index extents over the
// instantiated chips (nodes is Fabric.Nodes(): index order).
func encNodeSection(w *snap.Writer, nodes []*router.Node, enc func(n *router.Node)) {
	idxs := make([]int, len(nodes))
	for i, n := range nodes {
		idxs[i] = n.Index()
	}
	pos := 0
	encIndexExtents(w, idxs, func(int) {
		enc(nodes[pos])
		pos++
	})
}

// decIndexExtents reads a section written by encIndexExtents /
// encNodeSection, invoking dec once per recorded index.
func decIndexExtents(r *snap.Reader, size int, dec func(i int) error) error {
	for e, k := 0, r.Len(); e < k && r.Err() == nil; e++ {
		start := r.Int()
		n := r.Len()
		if r.Err() != nil {
			break
		}
		if start < 0 || n < 0 || start+n > size {
			return fmt.Errorf("extent [%d,%d) outside the %d-chip torus", start, start+n, size)
		}
		for i := start; i < start+n; i++ {
			if err := dec(i); err != nil {
				return err
			}
			if r.Err() != nil {
				break
			}
		}
	}
	return r.Err()
}

// ---- section codecs ----

func encRNG(w *snap.Writer, st [4]uint64) {
	for _, v := range st {
		w.U64(v)
	}
}

func decRNG(r *snap.Reader) (st [4]uint64) {
	for i := range st {
		st[i] = r.U64()
	}
	return st
}

func encConfig(w *snap.Writer, cfg MachineConfig) {
	w.Int(cfg.Width)
	w.Int(cfg.Height)
	w.Int(cfg.CoresPerChip)
	w.Int(cfg.MaxNeuronsPerCore)
	w.F64(cfg.CoreMIPS)
	w.U64(cfg.Seed)
	w.Int(cfg.Workers)
	w.String(cfg.Partition)
	w.String(cfg.Boards)
	w.String(cfg.BoardLinkParams)
	w.String(cfg.Repartition)
	w.String(cfg.HostOrigin)
	w.Bool(cfg.DisableEmergencyRouting)
	w.U8(uint8(cfg.Placement))
	w.F64(cfg.CoreFaultProb)
	w.Int(cfg.MaxAppCoresPerChip)
	w.String(cfg.Cabinets)
	w.String(cfg.CabinetLinkParams)
	w.Int(cfg.FillRedundancy)
}

func decConfig(r *snap.Reader) MachineConfig {
	var cfg MachineConfig
	cfg.Width = r.Int()
	cfg.Height = r.Int()
	cfg.CoresPerChip = r.Int()
	cfg.MaxNeuronsPerCore = r.Int()
	cfg.CoreMIPS = r.F64()
	cfg.Seed = r.U64()
	cfg.Workers = r.Int()
	cfg.Partition = r.String()
	cfg.Boards = r.String()
	cfg.BoardLinkParams = r.String()
	cfg.Repartition = r.String()
	cfg.HostOrigin = r.String()
	cfg.DisableEmergencyRouting = r.Bool()
	cfg.Placement = Placement(r.U8())
	cfg.CoreFaultProb = r.F64()
	cfg.MaxAppCoresPerChip = r.Int()
	cfg.Cabinets = r.String()
	cfg.CabinetLinkParams = r.String()
	cfg.FillRedundancy = r.Int()
	return cfg
}

func encNetwork(w *snap.Writer, net *mapping.Network) {
	w.Len(len(net.Pops))
	for _, p := range net.Pops {
		w.String(p.Name)
		w.Int(p.N)
		w.U8(uint8(p.Kind))
		w.F64(p.LIF.TauM)
		w.F64(p.LIF.VRest)
		w.F64(p.LIF.VReset)
		w.F64(p.LIF.VThresh)
		w.F64(p.LIF.RMem)
		w.Int(p.LIF.TRefrac)
		w.F64(p.Izh.A)
		w.F64(p.Izh.B)
		w.F64(p.Izh.C)
		w.F64(p.Izh.D)
		w.F64(p.RateHz)
		w.F64(p.BiasNA)
		w.Bool(p.Record)
	}
	w.Len(len(net.Projs))
	for _, pr := range net.Projs {
		w.Int(pr.Pre.ID)
		w.Int(pr.Post.ID)
		w.U8(uint8(pr.Kind))
		w.F64(pr.P)
		w.Int(pr.Fanout)
		w.Int(pr.Offset)
		w.F64(pr.WeightNA)
		w.Int(pr.DelayMS)
		w.Bool(pr.Inhibitory)
		w.U64(pr.Seed)
		w.Bool(pr.STDP != nil)
		if pr.STDP != nil {
			w.F64(pr.STDP.APlus)
			w.F64(pr.STDP.AMinus)
			w.F64(pr.STDP.TauPlusMS)
			w.F64(pr.STDP.TauMinusMS)
			w.U16(pr.STDP.WMin)
			w.U16(pr.STDP.WMax)
		}
	}
}

func decNetwork(r *snap.Reader) *mapping.Network {
	net := &mapping.Network{}
	for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
		p := &mapping.Population{}
		p.Name = r.String()
		p.N = r.Int()
		p.Kind = mapping.ModelKind(r.U8())
		p.LIF.TauM = r.F64()
		p.LIF.VRest = r.F64()
		p.LIF.VReset = r.F64()
		p.LIF.VThresh = r.F64()
		p.LIF.RMem = r.F64()
		p.LIF.TRefrac = r.Int()
		p.Izh.A = r.F64()
		p.Izh.B = r.F64()
		p.Izh.C = r.F64()
		p.Izh.D = r.F64()
		p.RateHz = r.F64()
		p.BiasNA = r.F64()
		p.Record = r.Bool()
		net.AddPopulation(p)
	}
	for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
		pr := &mapping.Projection{}
		pre, post := r.Int(), r.Int()
		if pre < 0 || pre >= len(net.Pops) || post < 0 || post >= len(net.Pops) {
			r.Fail(fmt.Errorf("snapshot projection references population %d/%d of %d", pre, post, len(net.Pops)))
			return net
		}
		pr.Pre, pr.Post = net.Pops[pre], net.Pops[post]
		pr.Kind = mapping.ConnectorKind(r.U8())
		pr.P = r.F64()
		pr.Fanout = r.Int()
		pr.Offset = r.Int()
		pr.WeightNA = r.F64()
		pr.DelayMS = r.Int()
		pr.Inhibitory = r.Bool()
		pr.Seed = r.U64()
		if r.Bool() {
			st := &neural.STDPConfig{}
			st.APlus = r.F64()
			st.AMinus = r.F64()
			st.TauPlusMS = r.F64()
			st.TauMinusMS = r.F64()
			st.WMin = r.U16()
			st.WMax = r.U16()
			pr.STDP = st
		}
		net.Connect(pr)
	}
	return net
}

func encCoreState(w *snap.Writer, st kernel.State) {
	for i := 0; i < kernel.NumEventTypes; i++ {
		q := st.Queues[i]
		w.Len(len(q))
		for _, ev := range q {
			w.U8(uint8(ev.Type))
			w.U8(uint8(ev.Pkt.Type))
			w.U32(ev.Pkt.Key)
			w.U32(ev.Pkt.Payload)
			w.Bool(ev.Pkt.HasPayload)
			w.U8(uint8(ev.Pkt.Emergency))
			w.U8(ev.Pkt.Timestamp)
			w.U16(ev.Pkt.SrcAddr)
			w.U16(ev.Pkt.DstAddr)
			w.Int(ev.Pkt.Hops)
			w.Int(ev.Pkt.EmergencyHops)
			w.U32(ev.Tag)
			w.U64(ev.Tick)
		}
	}
	w.Bool(st.Running)
	w.Bool(st.Stopped)
	w.I64(int64(st.IdleSince))
	w.I64(int64(st.StartAt))
	w.I64(int64(st.BusyTime))
	w.I64(int64(st.SleepTime))
	w.U64(st.Instructions)
	for i := 0; i < kernel.NumEventTypes; i++ {
		w.U64(st.EventCounts[i])
	}
	w.U64(st.Overruns)
	w.Int(st.MaxBacklog)
}

func decCoreState(r *snap.Reader) kernel.State {
	var st kernel.State
	for i := 0; i < kernel.NumEventTypes; i++ {
		n := r.Len()
		for j := 0; j < n && r.Err() == nil; j++ {
			var ev kernel.Event
			ev.Type = kernel.EventType(r.U8())
			ev.Pkt.Type = packet.Type(r.U8())
			ev.Pkt.Key = r.U32()
			ev.Pkt.Payload = r.U32()
			ev.Pkt.HasPayload = r.Bool()
			ev.Pkt.Emergency = packet.EmergencyState(r.U8())
			ev.Pkt.Timestamp = r.U8()
			ev.Pkt.SrcAddr = r.U16()
			ev.Pkt.DstAddr = r.U16()
			ev.Pkt.Hops = r.Int()
			ev.Pkt.EmergencyHops = r.Int()
			ev.Tag = r.U32()
			ev.Tick = r.U64()
			st.Queues[i] = append(st.Queues[i], ev)
		}
	}
	st.Running = r.Bool()
	st.Stopped = r.Bool()
	st.IdleSince = sim.Time(r.I64())
	st.StartAt = sim.Time(r.I64())
	st.BusyTime = sim.Time(r.I64())
	st.SleepTime = sim.Time(r.I64())
	st.Instructions = r.U64()
	for i := 0; i < kernel.NumEventTypes; i++ {
		st.EventCounts[i] = r.U64()
	}
	st.Overruns = r.U64()
	st.MaxBacklog = r.Int()
	return st
}

func encRing(w *snap.Writer, st neural.RingState) {
	w.Int(st.Cur)
	w.U64(st.Dropped)
	w.Len(len(st.Slots))
	for _, slot := range st.Slots {
		w.Len(len(slot))
		for _, v := range slot {
			w.U32(uint32(v))
		}
	}
}

func decRing(r *snap.Reader) neural.RingState {
	var st neural.RingState
	st.Cur = r.Int()
	st.Dropped = r.U64()
	for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
		slot := make([]neural.Fix, r.Len())
		for j := range slot {
			slot[j] = neural.Fix(r.U32())
		}
		st.Slots = append(st.Slots, slot)
	}
	return st
}

func encSTDP(w *snap.Writer, st neural.STDPSnapshot) {
	w.Len(len(st.Hist))
	for _, h := range st.Hist {
		for _, t := range h.Ticks {
			w.U64(t)
		}
		w.Int(h.N)
	}
	w.Len(len(st.LastPre))
	for _, p := range st.LastPre {
		w.U32(p.Key)
		w.U64(p.Tick)
	}
	w.U64(st.Potentiations)
	w.U64(st.Depressions)
}

func decSTDP(r *snap.Reader) neural.STDPSnapshot {
	var st neural.STDPSnapshot
	for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
		var h neural.PostRecord
		for j := range h.Ticks {
			h.Ticks[j] = r.U64()
		}
		h.N = r.Int()
		st.Hist = append(st.Hist, h)
	}
	for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
		st.LastPre = append(st.LastPre, neural.PreRecord{Key: r.U32(), Tick: r.U64()})
	}
	st.Potentiations = r.U64()
	st.Depressions = r.U64()
	return st
}

func encSDRAM(w *snap.Writer, st chip.SDRAMState) {
	w.I64(int64(st.BusyUntil))
	w.Int(st.Used)
	w.U64(st.Transfers)
	w.U64(st.BytesMoved)
	w.I64(int64(st.ContentionBusy))
	w.Len(len(st.Segments))
	for _, seg := range st.Segments {
		w.U32(seg.Addr)
		w.Bytes32(seg.Data)
	}
}

func decSDRAM(r *snap.Reader) chip.SDRAMState {
	var st chip.SDRAMState
	st.BusyUntil = sim.Time(r.I64())
	st.Used = r.Int()
	st.Transfers = r.U64()
	st.BytesMoved = r.U64()
	st.ContentionBusy = sim.Time(r.I64())
	for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
		st.Segments = append(st.Segments, chip.Segment{Addr: r.U32(), Data: r.Bytes32()})
	}
	return st
}

func encDMA(w *snap.Writer, st chip.DMAState) {
	w.Len(len(st.Queue))
	for _, req := range st.Queue {
		w.Int(req.Size)
		w.Bool(req.Write)
		w.U32(req.Tag)
	}
	w.Bool(st.Busy)
	w.U64(st.Completed)
	w.Int(st.MaxQueue)
}

func decDMA(r *snap.Reader) chip.DMAState {
	var st chip.DMAState
	for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
		st.Queue = append(st.Queue, chip.DMARequest{Size: r.Int(), Write: r.Bool(), Tag: r.U32()})
	}
	st.Busy = r.Bool()
	st.Completed = r.U64()
	st.MaxQueue = r.Int()
	return st
}

// decUnitState overlays one generation's recorded dynamic state onto a
// freshly (re)built unit.
func decUnitState(r *snap.Reader, u *unit) error {
	u.core.RestoreState(decCoreState(r))
	u.pop.SeedTick(r.U64())
	if n := r.Len(); r.Err() == nil && n != len(u.pop.Neurons) {
		return fmt.Errorf("snapshot has %d neurons, unit has %d", n, len(u.pop.Neurons))
	}
	for i := range u.pop.Neurons {
		if !r.Bool() {
			// Killed (or a stateless source slot, already nil). Routing
			// through KillNeuron keeps the population's dead-slot counter
			// — which gates the chunked stepping path — consistent.
			_ = u.pop.KillNeuron(i)
			continue
		}
		if u.pop.Neurons[i] == nil {
			return fmt.Errorf("neuron %d alive in snapshot but stateless in rebuild", i)
		}
		st := make([]neural.Fix, r.Len())
		for j := range st {
			st[j] = neural.Fix(r.U32())
		}
		if r.Err() != nil {
			return r.Err()
		}
		neural.RestoreNeuronState(u.pop.Neurons[i], st)
	}
	u.pop.Ring.RestoreState(decRing(r))
	var rec neural.RecorderState
	for i, k := 0, r.Len(); i < k && r.Err() == nil; i++ {
		rec.Spikes = append(rec.Spikes, neural.Spike{Tick: r.U64(), Neuron: r.Int()})
	}
	rec.Counts = make([]uint64, r.Len())
	for i := range rec.Counts {
		rec.Counts[i] = r.U64()
	}
	if r.Err() != nil {
		return r.Err()
	}
	u.pop.Rec.RestoreState(rec)
	if r.Bool() {
		if u.source == nil {
			return fmt.Errorf("snapshot has a Poisson source, rebuild does not")
		}
		u.source.SetRNGState(decRNG(r))
	} else if u.source != nil {
		return fmt.Errorf("rebuild has a Poisson source, snapshot does not")
	}
	if r.Bool() {
		if u.stdp == nil {
			return fmt.Errorf("snapshot has STDP state, rebuild does not")
		}
		u.stdp.RestoreState(decSTDP(r))
	} else if u.stdp != nil {
		return fmt.Errorf("rebuild has STDP state, snapshot does not")
	}
	return r.Err()
}
