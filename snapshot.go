package spinngo

import (
	"fmt"

	"spinngo/internal/mapping"
	"spinngo/internal/neural"
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
	// v5: a node's dropped packets become the router's one
	// dropped-packet register (a full flag, then the packet when full),
	// a recorder writes its packed uvarint raster as one span without
	// the per-neuron counts, and the config block loses its unused
	// string slot.
	// v6: a recorder's raster codes each spike by where it falls in its
	// tick — a spike in the same tick as the one before it is the
	// uvarint of its zigzagged neuron gap shifted left once, any other
	// is uvarint(neuron<<1 | 1) then the uvarint tick delta — the same
	// stream the recorder holds in memory.
	// v7: a checkpoint holds each shared payload once — one section codes
	// the SDRAM segment table entries some chip holds, and each chip's
	// SDRAM record codes its membership as bits against that section, its
	// private segments after them, an all-zero one by its length; the
	// record loses its usage count, which restore recounts. Each link
	// records its deferred repair.
	SnapshotVersion = 7

	// Floors on what one booted chip and one loaded neuron occupy in an
	// image: a chip's node state alone (counters, flags, six link records)
	// is 221 bytes since v7 (215 in v5 and v6) and its SDRAM record, with
	// no segment at all, another 40 (44 in v6); a neuron's sixteen
	// input-ring accumulators alone are 64.
	minChipImageBytes   = 256
	minNeuronImageBytes = 64
)

// Snapshot serialises the machine's complete state — pending event heaps
// with their canonical (time, domain, class, key) ordering intact, every
// RNG stream, neural and synaptic unit state, fabric queues, counters
// and live-cut link health, and the host command table — into a
// self-contained versioned byte image. The image embeds the machine
// configuration and the loaded network, so Restore needs nothing else.
//
// A snapshot is only legal at sequential quiescence with no host command
// in flight: between Run calls and outside any Batch. A link repair a
// campaign scheduled inside a batch may still await its commit; the
// image records the mark, and the restored machine's first Run commits
// it where the original's does. Restoring the image
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
	m.syncCompletions()
	events, err := m.pe.ExportEvents()
	if err != nil {
		return nil, fmt.Errorf("spinngo: snapshot: %w", err)
	}

	c := snap.NewEncoder()
	_ = snapHeader(c) // only an image read back can be wrong
	m.cfg.snap(c)
	snapNetwork(c, m.model.net)
	at := runPoint{now: m.pe.Now(), epoch: m.epoch, bioMS: m.bioMS, ctrlRNG: *m.pe.RNG(), anonSeq: m.pe.AnonSeq()}
	at.snap(c)

	// Per-chip sections cover the instantiated chips, in index order.
	nodes := m.fab.Nodes()
	chips := make([]int, len(nodes))
	domSeqs := make([]uint64, m.fab.Size())
	for i, n := range nodes {
		chips[i] = n.Index()
		domSeqs[n.Index()] = n.Domain().Scheduled()
	}
	snapDomainSeqs(c, chips, domSeqs)
	m.snapTallies(c)

	c.Len(len(m.fragUnits))
	for fragIdx, gens := range m.fragUnits {
		c.Len(len(gens))
		if len(gens) == 0 {
			continue
		}
		// All generations of a fragment share one private RNG stream.
		m.snapFragmentShared(c, fragIdx, gens[0].rng)
		for _, u := range gens {
			snapUnitPlace(c, &u.slot, &u.tickBase, &u.failed)
			u.snap(c)
		}
	}

	m.snapNodes(c, chips)
	m.snapMemory(c, chips, m.snapSegments(c, chips))
	m.host.Snap(c)

	c.Len(len(events))
	for i := range events {
		events[i].Snap(c)
	}
	return c.Bytes(), nil
}

// syncCompletions settles every completion nobody was waiting for — a
// timestamp and a reserved key on its core or DMA controller — into what
// an image records: the pending event it stands for, or the idle flag it
// would have left behind. Batched injections split back into one route
// event per packet.
func (m *Machine) syncCompletions() {
	m.eachUnit(func(u *unit) {
		u.core.Sync()
		u.dma.Sync()
	})
	m.fab.Sync()
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
	c := snap.NewDecoder(data)
	if err := snapHeader(c); err != nil {
		return nil, err
	}
	var cfg MachineConfig
	cfg.snap(c)
	net := &mapping.Network{}
	snapNetwork(c, net)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("spinngo: corrupt snapshot header: %w", err)
	}
	if err := fitsImage(len(data), &cfg, net); err != nil {
		return nil, fmt.Errorf("spinngo: corrupt snapshot header: %w", err)
	}
	if override != nil {
		override(&cfg)
	}

	var at runPoint
	at.snap(c)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("spinngo: corrupt snapshot: %w", err)
	}

	// Phase 1 — rebuild the structure: run the boot control and compile
	// the embedded model, both deterministic in the seed and independent
	// of the execution strategy, then start the units at the recorded
	// epoch. Everything the skipped system-image and application-data
	// loads would have left behind — SDRAM contents, router and link
	// state, host commands and flood-fill assemblies, domain sequences,
	// tallies, the clock and the control RNG — is in the image and is
	// overlaid below; the loads draw nothing from the control RNG, so
	// the fragment streams fork exactly as they did.
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
	if _, err := m.bootControl(); err != nil {
		return nil, fmt.Errorf("spinngo: restore boot: %w", err)
	}
	// The epoch is outside input: model time cannot start before the
	// boot control ends, nor after the snapshot instant.
	if booted := m.pe.Now(); at.epoch < booted || at.epoch > at.now {
		return nil, fmt.Errorf("spinngo: corrupt snapshot: epoch %v is not between the boot control's end %v and the snapshot instant %v", at.epoch, booted, at.now)
	}
	// No flood runs here for the compile to hide behind, so it runs
	// inline.
	spec, err := m.mapSpec()
	if err != nil {
		return nil, fmt.Errorf("spinngo: restore load: %w", err)
	}
	rplan, dplan, err := m.compileNet(net, spec)
	if err != nil {
		return nil, fmt.Errorf("spinngo: restore load: %w", err)
	}
	if err := m.install(&Model{net: net}, rplan, dplan); err != nil {
		return nil, fmt.Errorf("spinngo: restore load: %w", err)
	}
	if err := m.start(at.epoch); err != nil {
		return nil, fmt.Errorf("spinngo: restore load: %w", err)
	}

	size := m.fab.Size()
	domSeqs := make([]uint64, size)
	snapDomainSeqs(c, nil, domSeqs)
	m.snapTallies(c)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("spinngo: domain sequences and chip tallies: %w", err)
	}

	// Phase 2 — unit history replay and overlay. Generations ≥ 1 are
	// rebuilt through the same buildUnitAt path migrations use, so
	// routing-table rewrites and spare-slot occupancy replay exactly;
	// then each generation's dynamic state is overlaid.
	if n := c.Len(0); c.Err() != nil || n != len(m.fragUnits) {
		return nil, fmt.Errorf("spinngo: snapshot has %d fragments, machine has %d", n, len(m.fragUnits))
	}
	for fragIdx := range m.fragUnits {
		f := m.rplan.Frags[fragIdx]
		nGens := c.Len(0)
		if c.Err() != nil {
			break
		}
		if nGens == 0 {
			return nil, fmt.Errorf("spinngo: fragment %d has no unit history", fragIdx)
		}
		var fragRNG sim.RNG
		m.snapFragmentShared(c, fragIdx, &fragRNG)
		var failedFlags []bool
		for g := 0; g < nGens; g++ {
			var (
				slot     int
				tickBase uint64
				failed   bool
			)
			snapUnitPlace(c, &slot, &tickBase, &failed)
			if err := c.Err(); err != nil {
				return nil, fmt.Errorf("spinngo: fragment %d gen %d: %w", fragIdx, g, err)
			}
			var u *unit
			if g == 0 {
				u = m.fragUnits[fragIdx][0]
				if u.slot != slot {
					return nil, fmt.Errorf("spinngo: fragment %d rebuilt on slot %d, snapshot recorded %d", fragIdx, u.slot, slot)
				}
			} else {
				prev := m.fragUnits[fragIdx][g-1]
				prev.failed = true
				m.chipUnits(f.Chip)[prev.slot] = nil
				u, err = m.buildUnitAt(f, fragIdx, slot, tickBase, prev.rng)
				if err != nil {
					return nil, fmt.Errorf("spinngo: replaying migration %d of fragment %d: %w", g, fragIdx, err)
				}
				m.fab.Node(f.Chip).Table.RewriteCore(prev.slot, u.slot)
			}
			failedFlags = append(failedFlags, failed)
			u.snap(c)
			if err := c.Err(); err != nil {
				return nil, fmt.Errorf("spinngo: fragment %d gen %d: %w", fragIdx, g, err)
			}
		}
		// The last generation may itself have failed (a migration was
		// pending, or no spare was left) — apply the recorded flags.
		for g, failed := range failedFlags {
			u := m.fragUnits[fragIdx][g]
			if failed && !u.failed {
				u.failed = true
				m.chipUnits(f.Chip)[u.slot] = nil
			}
		}
		// The fragment stream's state is overlaid last: the replayed
		// builds above consumed draws exactly as the original did, and
		// this pins the stream wherever the snapshot left it.
		*m.fragUnits[fragIdx][0].rng = fragRNG
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("spinngo: corrupt unit history: %w", err)
	}

	// Phase 3 — overlay fabric, memory and host state: the outcome of
	// every load and run the rebuild skipped, from the system image in
	// SDRAM to the host's flood-fill assemblies. A chip with recorded
	// state materialises on demand if the rebuild left it untouched.
	m.snapNodes(c, nil)
	m.snapMemory(c, nil, m.snapSegments(c, nil))
	m.host.Snap(c)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("spinngo: fabric, memory and host state: %w", err)
	}

	// Chip deaths restored with the fabric overlay re-commit at the
	// machine layer — boot aliveness flips, and the recorded unit and
	// core states (already failed/stopped in the snapshot) are left
	// exactly as decoded.
	m.syncDeadChips()

	// Link failures restored with the node states re-shape the live cut;
	// re-price the lookahead for the restore partition.
	m.pe.SetLookahead(m.fab.LiveLookahead())

	// Phase 4 — swap the event future: wipe the rebuilt machine's own
	// scheduled events (the replayed units' start timers), move
	// every shard clock to the snapshot instant, and re-inject the
	// recorded events with their canonical keys intact, each rebuilt by
	// its kind's constructor.
	kinds := m.eventKinds()
	m.pe.ResetEvents()
	if err := m.pe.RestoreClock(at.now); err != nil {
		return nil, fmt.Errorf("spinngo: restore clock: %w", err)
	}
	nEvents := c.Len(0)
	for i := 0; i < nEvents; i++ {
		var rec sim.EventRecord
		rec.Snap(c)
		if c.Err() != nil {
			break
		}
		if rec.Domain < 0 || int(rec.Domain) >= size {
			return nil, fmt.Errorf("spinngo: event %d targets domain %d outside the torus", i, rec.Domain)
		}
		if rec.At < at.now {
			return nil, fmt.Errorf("spinngo: event %d is due at %v, before the snapshot instant %v", i, rec.At, at.now)
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
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("spinngo: corrupt event section: %w", err)
	}
	if rem := c.Remaining(); rem != 0 {
		return nil, fmt.Errorf("spinngo: %d trailing bytes after snapshot", rem)
	}

	// Phase 5 — counters that future scheduling draws from.
	for _, n := range m.fab.Nodes() {
		n.Domain().RestoreSeq(domSeqs[n.Index()])
	}
	m.pe.RestoreAnonSeq(at.anonSeq)
	*m.pe.RNG() = at.ctrlRNG
	m.bioMS = at.bioMS
	ok = true
	return m, nil
}

// fitsImage bounds what the rebuild may allocate by what the image could
// hold: the config block and network size the machine restore is about
// to boot and load, and a snapshot is of a booted, loaded machine — every
// chip and every neuron left its records in these bytes.
func fitsImage(imageBytes int, cfg *MachineConfig, net *mapping.Network) error {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Width > imageBytes/minChipImageBytes/cfg.Height {
		return fmt.Errorf("a %dx%d torus cannot come from a %d-byte image", cfg.Width, cfg.Height, imageBytes)
	}
	room := imageBytes / minNeuronImageBytes
	for _, p := range net.Pops {
		if p.N <= 0 || p.N > room {
			return fmt.Errorf("population %q of %d neurons cannot come from a %d-byte image", p.Name, p.N, imageBytes)
		}
		room -= p.N
	}
	return nil
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

// Pops lists the loaded model's populations in the order they were
// added; like Pop, it recovers handles on a machine rebuilt by Restore.
func (m *Machine) Pops() []Pop {
	if m.model == nil {
		return nil
	}
	pops := make([]Pop, len(m.model.net.Pops))
	for i := range pops {
		pops[i] = Pop{model: m.model, idx: i}
	}
	return pops
}

// ---- section layouts ----
//
// Every section of the image is described once, by a function or method
// that takes a snap.Codec and serves Snapshot (encoding) and restore
// (decoding) alike; each stateful component package does the same for
// its own state with a Snap method. Adding a field to the format is one
// codec line in one of them, plus the SnapshotVersion bump.

// snapHeader codes the magic and format version and, decoding, rejects
// an image that carries any other.
func snapHeader(c *snap.Codec) error {
	magic, version := snapshotMagic, uint16(SnapshotVersion)
	if c.String(&magic); c.Err() != nil || magic != snapshotMagic {
		return fmt.Errorf("spinngo: not a snapshot image")
	}
	if c.U16(&version); version != SnapshotVersion {
		return fmt.Errorf("spinngo: snapshot format v%d, this build reads v%d", version, SnapshotVersion)
	}
	return nil
}

// snap codes the config block.
func (cfg *MachineConfig) snap(c *snap.Codec) {
	c.Int(&cfg.Width)
	c.Int(&cfg.Height)
	c.Int(&cfg.CoresPerChip)
	c.Int(&cfg.MaxNeuronsPerCore)
	c.F64(&cfg.CoreMIPS)
	c.U64(&cfg.Seed)
	c.Int(&cfg.Workers)
	c.String(&cfg.Partition)
	c.String(&cfg.Boards)
	c.String(&cfg.BoardLinkParams)
	c.String(&cfg.HostOrigin)
	c.Bool(&cfg.DisableEmergencyRouting)
	snap.Enum(c, &cfg.Placement, Random+1)
	c.F64(&cfg.CoreFaultProb)
	c.Int(&cfg.MaxAppCoresPerChip)
	c.String(&cfg.Cabinets)
	c.String(&cfg.CabinetLinkParams)
	c.Int(&cfg.FillRedundancy)
}

// snapNetwork codes the loaded network; decoding, it builds net up
// through AddPopulation and Connect, as a model declaration would.
func snapNetwork(c *snap.Codec, net *mapping.Network) {
	nPops := c.Len(len(net.Pops))
	for i := 0; i < nPops && c.Err() == nil; i++ {
		p := &mapping.Population{}
		if !c.Decoding() {
			p = net.Pops[i]
		}
		c.String(&p.Name)
		c.Int(&p.N)
		snap.Enum(c, &p.Kind, mapping.ModelPoisson+1)
		c.F64(&p.LIF.TauM)
		c.F64(&p.LIF.VRest)
		c.F64(&p.LIF.VReset)
		c.F64(&p.LIF.VThresh)
		c.F64(&p.LIF.RMem)
		c.Int(&p.LIF.TRefrac)
		c.F64(&p.Izh.A)
		c.F64(&p.Izh.B)
		c.F64(&p.Izh.C)
		c.F64(&p.Izh.D)
		c.F64(&p.RateHz)
		c.F64(&p.BiasNA)
		c.Bool(&p.Record)
		if c.Decoding() {
			net.AddPopulation(p)
		}
	}
	nProjs := c.Len(len(net.Projs))
	for i := 0; i < nProjs && c.Err() == nil; i++ {
		pr := &mapping.Projection{}
		var pre, post int
		if !c.Decoding() {
			pr = net.Projs[i]
			pre, post = pr.Pre.ID, pr.Post.ID
		}
		c.Int(&pre)
		c.Int(&post)
		if pre < 0 || pre >= len(net.Pops) || post < 0 || post >= len(net.Pops) {
			c.Fail(fmt.Errorf("snapshot projection references population %d/%d of %d", pre, post, len(net.Pops)))
			return
		}
		pr.Pre, pr.Post = net.Pops[pre], net.Pops[post]
		snap.Enum(c, &pr.Kind, mapping.Shift+1)
		c.F64(&pr.P)
		c.Int(&pr.Fanout)
		c.Int(&pr.Offset)
		c.F64(&pr.WeightNA)
		c.Int(&pr.DelayMS)
		c.Bool(&pr.Inhibitory)
		c.U64(&pr.Seed)
		plastic := pr.STDP != nil
		if c.Bool(&plastic); plastic {
			if c.Decoding() {
				pr.STDP = &neural.STDPConfig{}
			}
			c.F64(&pr.STDP.APlus)
			c.F64(&pr.STDP.AMinus)
			c.F64(&pr.STDP.TauPlusMS)
			c.F64(&pr.STDP.TauMinusMS)
			c.U16(&pr.STDP.WMin)
			c.U16(&pr.STDP.WMax)
		}
		if c.Decoding() {
			net.Connect(pr)
		}
	}
}

// runPoint is where the run stands: the machine-level scalars restore
// reads before the overlay phases and applies after them.
type runPoint struct {
	now, epoch sim.Time
	bioMS      uint64
	ctrlRNG    sim.RNG
	anonSeq    uint64
}

func (p *runPoint) snap(c *snap.Codec) {
	c.I64((*int64)(&p.now))
	c.I64((*int64)(&p.epoch))
	c.U64(&p.bioMS)
	p.ctrlRNG.Snap(c)
	c.U64(&p.anonSeq)
}

// snapExtents codes one per-chip section as index extents (v3): the
// extent count, then each extent's start index and length followed by
// one payload per index, which each codes. Encoding, idxs is the ordered
// chip-index set to write — a fully-booted machine writes one extent
// covering the torus, a sparse machine's untouched regions cost nothing.
// Decoding, idxs is ignored: the extents come from the image and must
// lie inside the size-chip torus.
func snapExtents(c *snap.Codec, idxs []int, size int, each func(i int)) {
	var exts [][2]int // start index, run length
	for _, i := range idxs {
		if k := len(exts) - 1; k >= 0 && exts[k][0]+exts[k][1] == i {
			exts[k][1]++
		} else {
			exts = append(exts, [2]int{i, 1})
		}
	}
	snap.Slice(c, &exts)
	for _, e := range exts {
		start, n := e[0], e[1]
		c.Int(&start)
		n = c.Len(n)
		if start < 0 || start > size-n {
			c.Fail(fmt.Errorf("extent of %d chips from %d outside the %d-chip torus", n, start, size))
			return
		}
		for i := start; i < start+n && c.Err() == nil; i++ {
			each(i)
		}
	}
}

// snapDomainSeqs codes each chip domain's scheduling sequence number.
func snapDomainSeqs(c *snap.Codec, chips []int, seqs []uint64) {
	snapExtents(c, chips, len(seqs), func(i int) { c.U64(&seqs[i]) })
}

// snapTallies codes the chip tallies as their non-zero entries — a
// canonical form independent of which chunks happen to have
// materialised, so a restored machine re-snapshots byte-identically.
func (m *Machine) snapTallies(c *snap.Codec) {
	var idxs []int
	m.tallies.each(func(i int, t *chipTallies) {
		if *t != (chipTallies{}) {
			idxs = append(idxs, i)
		}
	})
	snapExtents(c, idxs, m.fab.Size(), func(i int) {
		t := m.tallies.at(i)
		c.U64(&t.latencies.N)
		c.I64((*int64)(&t.latencies.Sum))
		c.I64((*int64)(&t.latencies.Max))
		c.U64(&t.writeBacks)
		c.U64(&t.migrations)
		c.U64(&t.migrationFailures)
	})
}

// snapFragmentShared codes what every generation of a fragment shares:
// the private RNG stream, and for a plastic fragment its (mutated)
// synaptic rows — static rows are regenerated bit-exactly by the
// restore-side compile.
func (m *Machine) snapFragmentShared(c *snap.Codec, fragIdx int, rng *sim.RNG) {
	rng.Snap(c)
	f := m.rplan.Frags[fragIdx]
	cd := m.dplan.Cores[f.Chip][f.Core]
	rebuilt := cd != nil && cd.STDP != nil
	plastic := rebuilt
	if c.Bool(&plastic); !plastic {
		return
	}
	if !rebuilt {
		c.Fail(fmt.Errorf("plastic in snapshot but not in rebuild"))
		return
	}
	cd.Matrix.Snap(c, f.Size())
}

// snapUnitPlace codes where and when one generation of a fragment was
// built and whether it has failed since — what restore must know before
// it can replay the build.
func snapUnitPlace(c *snap.Codec, slot *int, tickBase *uint64, failed *bool) {
	c.Int(slot)
	c.U64(tickBase)
	c.Bool(failed)
}

// snap codes one generation's dynamic state, overlaying it onto a
// freshly (re)built unit when decoding.
func (u *unit) snap(c *snap.Codec) {
	u.core.Snap(c)
	u.pop.Snap(c)
	if snapPresent(c, u.source != nil, "a Poisson source") {
		u.source.Snap(c)
	}
	if snapPresent(c, u.stdp != nil, "STDP state") {
		u.stdp.Snap(c, u.pop.Matrix)
	}
}

// snapPresent codes the presence flag of an optional part of a unit and
// reports whether its state follows; the image and the rebuild must
// agree on it.
func snapPresent(c *snap.Codec, rebuilt bool, what string) bool {
	recorded := rebuilt
	if c.Bool(&recorded); recorded != rebuilt && c.Err() == nil {
		c.Fail(fmt.Errorf("snapshot has %s: %v, rebuild: %v", what, recorded, rebuilt))
	}
	return recorded && rebuilt
}

// snapNodes codes each chip's fabric node state; chips is the
// encode-side index set (see snapExtents).
func (m *Machine) snapNodes(c *snap.Codec, chips []int) {
	snapExtents(c, chips, m.fab.Size(), func(i int) { m.fab.NodeAt(i).Snap(c) })
}

// snapSegments codes the machine's segment table (v7): the entries
// some instantiated chip holds, once, in table order. Encoding, it
// returns that set, which the chips' memory records code their
// membership against; decoding, the image's entries become the rebuilt
// machine's table.
func (m *Machine) snapSegments(c *snap.Codec, chips []int) []uint64 {
	var held []uint64
	for _, i := range chips {
		held = m.boot.Chip(m.fab.NodeAt(i).Coord).SDRAM.Held(held)
	}
	m.boot.Segments().Snap(c, held)
	return held
}

// snapMemory codes each chip's SDRAM and per-slot DMA controllers;
// held is what snapSegments returned.
func (m *Machine) snapMemory(c *snap.Codec, chips []int, held []uint64) {
	snapExtents(c, chips, m.fab.Size(), func(i int) {
		at := m.fab.NodeAt(i).Coord
		m.boot.Chip(at).SDRAM.Snap(c, held)
		slots := m.appCoreSlots(at)
		if !c.FixedLen(len(slots), "application core slots") {
			return
		}
		for _, hw := range slots {
			hw.SnapDMA(c)
		}
	})
}
