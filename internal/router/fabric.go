package router

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"spinngo/internal/energy"
	"spinngo/internal/packet"
	"spinngo/internal/phy"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// Params configures a communications fabric.
type Params struct {
	Torus topo.Torus
	// RouterLatency is the pipeline delay a packet spends in each
	// router. It is also the minimum latency of a chip-to-chip hop and
	// therefore the lookahead bound of the sharded engine: a packet
	// leaving one shard cannot affect another sooner than this.
	RouterLatency sim.Time
	// Levels is the machine's packaging hierarchy, bottom-up: Levels[0]
	// is the chip (a 1x1 tile) and its Link models every link that stays
	// inside one unit of Levels[1] — on-board links, or every link of a
	// uniform fabric with no other level. Each directed link is classed
	// by the highest level whose unit it leaves (ClassOf), and that
	// level's Link sets its per-packet serialisation time and energy.
	Levels []Level
	// LinkQueueDepth is the output buffering per link; a full queue is
	// a congested link.
	LinkQueueDepth int
	// EmergencyWait is the programmable time the router waits on a
	// blocked link before invoking emergency routing (section 5.3).
	EmergencyWait sim.Time
	// EmergencyTry is the programmable time emergency routing is
	// attempted before the packet is dropped.
	EmergencyTry sim.Time
	// RetryInterval spaces a waiting packet's attempts: they fall on the
	// grid t0 + k*RetryInterval from the first attempt at t0, and the
	// drop comes at the first grid point at least
	// EmergencyWait+EmergencyTry after t0.
	RetryInterval sim.Time
	// EmergencyEnabled turns the Fig-8 mechanism on (the ablation for
	// E6 turns it off).
	EmergencyEnabled bool
	// TableSize caps each router's multicast table.
	TableSize int
	// PhasePeriod is the rotation period of the 2-bit timestamp phase.
	// A multicast packet two or more phases old is dropped, which is
	// what stops mis-routed packets circulating the torus forever.
	PhasePeriod sim.Time
}

// ClassOf reports the packaging level of the directed link leaving c in
// direction d: the highest level whose unit the hop leaves (torus wrap
// links always leave, being cabled between edge units), 0 when it
// leaves only its chip — always 0 on a uniform fabric. A crossing at
// one level is by construction a crossing at every level below, so the
// test runs top-down.
func (p Params) ClassOf(c topo.Coord, d topo.Dir) int {
	for i := len(p.Levels) - 1; i > 0; i-- {
		if p.Levels[i].Tile.Crosses(c, d) {
			return i
		}
	}
	return 0
}

// LinkFor is the fabric's per-link parameter source: the PHY model of
// the directed link leaving c in direction d. Everything that prices a
// hop — frame serialisation in the router, wire energy accounting, the
// sharded engine's lookahead bound — resolves link parameters through
// the level this returns, which is what makes the packaging hierarchy
// an end-to-end property rather than a label.
func (p Params) LinkFor(c topo.Coord, d topo.Dir) phy.LinkParams {
	return p.Levels[p.ClassOf(c, d)].Link
}

// hopLatency is the floor on one hop over a link with parameters lp:
// one minimal frame on the wire plus the router pipeline.
func (p Params) hopLatency(lp phy.LinkParams) sim.Time {
	return p.RouterLatency + lp.SerialisationFloor(packet.MinWireSize)
}

// MinHopLatency reports the minimum time between a packet starting to
// serialise onto any inter-chip link and its arrival event at the
// neighbouring router: one minimal frame on the wire plus the router
// pipeline, minimised over every level's link. This — not the router
// latency alone — is the true floor on chip-to-chip influence, and the
// widest lookahead a partition-agnostic (uniform) bound can claim.
func (p Params) MinHopLatency() sim.Time {
	la := sim.Forever
	for _, l := range p.Levels {
		la = min(la, p.hopLatency(l.Link))
	}
	return la
}

// LookaheadFor reports the cross-shard latency bound for a given
// partition: the minimum hop latency over the partition's *actual*
// boundary links — the only links whose traffic crosses shards. On a
// heterogeneous fabric this is where partition geometry turns into
// simulation speed: a cut containing only slow links of one level
// (every cut of a partition tiled at that level, by construction) earns
// their longer serialisation floor as extra lookahead — wider windows,
// fewer barriers — while a single fast link of a lower level anywhere
// in the cut tightens the bound back to that level's floor. A partition
// with no boundary links (one shard) needs no lookahead at all; the
// uniform floor is returned for uniformity.
func (p Params) LookaheadFor(part topo.Partition) sim.Time {
	return p.LookaheadForLive(part, nil)
}

// LookaheadForLive reports the cross-shard latency bound over the
// partition's *live* cut: the minimum hop latency over boundary links
// for which failed reports false. A failed link never launches a frame,
// so it cannot carry a cross-shard event; pricing the lookahead over
// the survivors means a cut whose fast links have all died re-prices to
// the surviving (possibly wider) hop floor. With every cut link dead —
// no cross-shard influence at all — the widest level floor present is
// returned (any bound is sound then; RepairLink tightens the engine if
// a link comes back). A nil failed func prices the full cut, which is
// exactly LookaheadFor.
func (p Params) LookaheadForLive(part topo.Partition, failed func(topo.Coord, topo.Dir) bool) sim.Time {
	cut := part.BoundaryLinks()
	if len(cut) == 0 {
		return p.MinHopLatency()
	}
	la := sim.Forever
	live := 0
	for _, bl := range cut {
		if failed != nil && failed(bl.From, bl.Dir) {
			continue
		}
		live++
		if h := p.hopLatency(p.LinkFor(bl.From, bl.Dir)); h < la {
			la = h
		}
	}
	if live == 0 {
		la = 0
		for _, l := range p.Levels {
			la = max(la, p.hopLatency(l.Link))
		}
	}
	return la
}

// DefaultParams returns paper-scale fabric parameters for a w x h torus:
// a uniform fabric of one level, the chip, whose links are the default
// on-board links.
func DefaultParams(w, h int) Params {
	return Params{
		Torus:            topo.MustTorus(w, h),
		RouterLatency:    100 * sim.Nanosecond,
		Levels:           []Level{{Tile: topo.Tile{W: 1, H: 1}, Link: phy.DefaultLink(0)}},
		LinkQueueDepth:   16,
		EmergencyWait:    1 * sim.Microsecond,
		EmergencyTry:     4 * sim.Microsecond,
		RetryInterval:    250 * sim.Nanosecond,
		EmergencyEnabled: true,
		TableSize:        DefaultTableSize,
		PhasePeriod:      1 * sim.Millisecond,
	}
}

// flit is a packet in flight with fabric instrumentation.
type flit struct {
	pkt        packet.Packet
	injectedAt sim.Time
}

// outLink is one directed inter-chip link with its output queue. Each
// link carries its own PHY parameter block, resolved once when its chip
// materialises from the fabric's packaging levels, so the transmit path
// prices frames per link without re-deriving the level per packet.
//
// Link occupancy is a timestamp, not a busy flag: freeAt is when the
// current frame clears the wire. An idle, empty link launches a packet
// inline inside the sender's event — no transmit-complete event at all
// — and only a genuinely queued link arms its single re-usable drain
// event at freeAt. An uncongested hop therefore costs exactly one
// scheduled event (the arrival at the neighbour), where the busy-flag
// protocol paid a transmit-done event per launch whether or not anyone
// was waiting.
type outLink struct {
	dir    topo.Dir
	link   phy.LinkParams
	failed bool
	// pendingRepair defers a RepairLink requested from inside the event
	// stream (a fault campaign) to the next sequential quiescence:
	// clearing failed mid-window could tighten the true cross-shard
	// latency below the engine's committed lookahead, so the link stays
	// down until CommitRepairs runs between windows. Never set in a
	// snapshot (commits precede every legal snapshot instant).
	pendingRepair bool
	queue         []flit
	freeAt        sim.Time
	draining      bool // the drain event is pending at >= freeAt
	drain         *drainEv
	Traversals    uint64
}

// Node is one chip's router plus its six outgoing links. Every node is
// owned by exactly one shard engine; all events touching its state run
// on that engine, which is what makes the sharded execution race-free.
// The node's scheduling domain stamps its events with the node index
// and a node-local sequence, giving the machine a canonical event order
// that is identical for every shard count.
type Node struct {
	fabric  *Fabric
	dom     *sim.Domain
	shard   int
	idx     int32
	sendSeq uint64 // canonical per-sender key for link deliveries
	Coord   topo.Coord
	Table   *Table
	out     [topo.NumDirs]outLink

	// dead marks a chip killed outright (a fault campaign's FailChip):
	// the router stops routing, arrivals die at the pins, local
	// injections are lost, and all six output links are failed for good
	// — RepairLink never resurrects a dead chip's links.
	dead bool

	// Free lists for the node's hot-path payload events. Every access
	// happens on the shard that owns this node — pops in deliver (the
	// receiver's list when the hop stays inside the shard, the sender's
	// when it crosses) and the local inject paths, pushes at the top of
	// Run (which executes on the owner) — so no locking is needed, and
	// steady-state traffic recycles events instead of allocating.
	arrivePool []*arriveEv
	routePool  []*routeEv
	retryPool  []*retryEv
	// sleepers are the node's pending retries that skip attempts on a
	// failed link (see retryEv.attempt); a repair of any of the node's
	// links moves them up (wake).
	sleepers []*retryEv

	// open is the route event the next local injection may join (see
	// InjectMC); batches lists the pending route events holding more than
	// one packet, which Sync splits before an export.
	open    *routeEv
	batches []*routeEv

	// Monitor-visible fault notifications (section 5.3: "the local
	// Monitor Processor can be informed").
	EmergencyNotices uint64
	DropNotices      uint64
	UnroutableMC     uint64 // locally injected mc with no table entry

	// dropReg is the router's one dropped-packet register, holding a
	// packet while dropFull is set. The first drop into an empty register
	// is kept for the monitor (ReadDropped); a drop while it is full is
	// lost, as in hardware, and only counted.
	dropReg  DroppedPacket
	dropFull bool

	// Shard-owned tallies, summed by the Fabric accessors. Keeping
	// them per node lets shards run concurrently without shared
	// counters, and integer sums are independent of merge order.
	deliveredMC   uint64
	deliveredP2P  uint64
	dropped       uint64
	aged          uint64
	p2pUnroutable uint64
	emergencies   uint64

	// p2pReady records that the boot sequence has configured this
	// node's point-to-point routing table (section 5.2: a node can
	// route p2p traffic only after the coordinate flood has told it
	// where it is).
	p2pReady bool

	// drainEvs embeds the six per-link drain events in the node itself
	// (out[d].drain points at drainEvs[d]), so materialising a chip is
	// a single slab cell, not seven allocations. Node values must never
	// be copied once published.
	drainEvs [topo.NumDirs]drainEv
}

// Domain returns the node's scheduling domain. All model components
// living on this chip (cores, DMA, SDRAM) must schedule through it so
// the chip's events carry one canonical identity.
func (n *Node) Domain() *sim.Domain { return n.dom }

// Index reports the node's torus index — an identity that, unlike
// Shard, is the same under every partition.
func (n *Node) Index() int { return int(n.idx) }

// ConfigureP2P installs the node's point-to-point routing table, as the
// monitor does once the coordinate flood has delivered the node's
// position. Until then p2p packets arriving here are dropped.
func (n *Node) ConfigureP2P() { n.p2pReady = true }

// P2PConfigured reports the table state.
func (n *Node) P2PConfigured() bool { return n.p2pReady }

// DroppedPacket is a packet the router gave up on, together with the
// output link it was bound for — the contents of the router's dropped
// packet register, which the monitor reads to recover the packet.
type DroppedPacket struct {
	Pkt packet.Packet
	Dir topo.Dir
	// Aged marks packets killed by the timestamp-phase check; these
	// have no meaningful output link and are not reinjected.
	Aged bool
}

// Fabric is the machine-wide communications network: one Node per chip
// coordinate on the torus, instantiated lazily. A chip's node (router,
// link queues, scheduling domain) materialises on its first touch —
// boot, a routing-table install, an injection, or a packet arriving
// over a link — so an idle region of a large torus costs one pointer
// slot per chip and nothing else. Dense behaviour is the degenerate
// case where every chip has been touched. In single-engine mode every
// node shares one discrete-event engine; in sharded mode each node
// binds to its partition's shard engine and cross-shard link
// deliveries travel through the ParallelEngine's barrier mailboxes.
type Fabric struct {
	pe   *sim.ParallelEngine // nil in single-engine mode
	p    Params
	part topo.Partition // zero in single-engine mode

	// nodes holds one atomic slot per torus index; nil means the chip
	// has never been touched. Reads on the hot path are single atomic
	// loads; creation is serialised by matMu (double-checked), because
	// a packet launched on one shard may materialise a neighbour owned
	// by another shard mid-window.
	nodes []atomic.Pointer[Node]
	// engOf resolves a node index to its owning engine and shard, so a
	// chip materialised late binds where the partition puts it.
	engOf func(i int) (*sim.Engine, int)
	// matMu serialises node materialisation (and the engine-side domain
	// registration it performs).
	matMu sync.Mutex
	// arena is the current node slab: chips materialise region-pooled,
	// nodeArenaSize neighbours to an allocation, instead of one heap
	// object each.
	arena        []Node
	instantiated atomic.Int64

	// deadDirty flags that FailChip ran since the driver's last
	// quiescence sync; pendingRepairs counts links awaiting a
	// CommitRepairs. Both are written from shard-owned fault events and
	// consumed by the sequential driver between windows, hence atomic.
	deadDirty      atomic.Bool
	pendingRepairs atomic.Int64

	// detourAfter and dropAfter are the attempt grid's offsets from t0
	// of the first attempt at or past EmergencyWait, where the detour
	// opens, and of the drop, at or past EmergencyWait+EmergencyTry.
	detourAfter, dropAfter sim.Time

	// OnDeliverMC is invoked for each local core a multicast packet
	// reaches. latency is injection-to-delivery simulated time. In
	// sharded mode it runs on the destination node's shard goroutine;
	// handlers must only touch shard-owned state.
	OnDeliverMC func(n *Node, core int, pkt packet.Packet, latency sim.Time)
	// OnDeliverP2P is invoked when a p2p packet reaches its destination
	// chip (handled by the monitor processor).
	OnDeliverP2P func(n *Node, pkt packet.Packet, latency sim.Time)
	// OnNN is invoked when a nearest-neighbour packet arrives, with the
	// direction it came from.
	OnNN func(n *Node, from topo.Dir, pkt packet.Packet)
	// OnDrop is the monitor's drop interrupt, invoked each time the
	// router gives up on a packet; the handler reads the dropped-packet
	// register itself (Node.ReadDropped), and a drop that found the
	// register full left nothing there to read.
	OnDrop func(n *Node)
}

// phaseAt reports the 2-bit timestamp phase by the node's local clock.
func (f *Fabric) phaseAt(n *Node) uint8 {
	if f.p.PhasePeriod <= 0 {
		return 0
	}
	return uint8((n.dom.Now() / f.p.PhasePeriod) % 4)
}

func (f *Fabric) build(p Params, engOf func(i int) (*sim.Engine, int)) error {
	if len(p.Levels) == 0 {
		return fmt.Errorf("router: no packaging levels (the chip level comes first)")
	}
	for i, l := range p.Levels {
		if err := l.Link.Validate(); err != nil {
			return err
		}
		if l.Link.Level < 0 || l.Link.Level > i {
			return fmt.Errorf("router: level %d's link accounts to level %d (want its own or one below)",
				i, l.Link.Level)
		}
		if err := l.Tile.Validate(p.Torus); err != nil {
			return err
		}
	}
	if p.Torus.Size() == 0 {
		return fmt.Errorf("router: empty torus")
	}
	if p.LinkQueueDepth <= 0 {
		return fmt.Errorf("router: link queue depth must be positive")
	}
	switch {
	case p.RetryInterval <= 0:
		return fmt.Errorf("router: RetryInterval %v must be positive", p.RetryInterval)
	case p.EmergencyWait < 0:
		return fmt.Errorf("router: EmergencyWait %v is negative", p.EmergencyWait)
	case p.EmergencyTry < 0:
		return fmt.Errorf("router: EmergencyTry %v is negative", p.EmergencyTry)
	case p.EmergencyWait > sim.Forever-p.EmergencyTry-p.RetryInterval:
		return fmt.Errorf("router: EmergencyWait %v + EmergencyTry %v overflows the clock",
			p.EmergencyWait, p.EmergencyTry)
	}
	grid := func(t sim.Time) sim.Time { return (t + p.RetryInterval - 1) / p.RetryInterval * p.RetryInterval }
	f.detourAfter, f.dropAfter = grid(p.EmergencyWait), grid(p.EmergencyWait+p.EmergencyTry)
	f.p = p
	f.engOf = engOf
	f.nodes = make([]atomic.Pointer[Node], p.Torus.Size())
	return nil
}

// nodeArenaSize is how many nodes one materialisation slab holds.
// Chips materialise in bursts of spatial neighbours (a mapped region, a
// boot flood front), so pooling them slab-wise keeps a region's routers
// contiguous and cuts the allocation count 64-fold.
const nodeArenaSize = 64

// node returns the chip at torus index i, materialising it on first
// touch. The fast path is one atomic load; creation takes the
// materialisation lock and re-checks, because packets launched on
// different shards may race to touch the same silent neighbour.
func (f *Fabric) node(i int) *Node {
	if n := f.nodes[i].Load(); n != nil {
		return n
	}
	return f.materialise(i)
}

func (f *Fabric) materialise(i int) *Node {
	f.matMu.Lock()
	defer f.matMu.Unlock()
	if n := f.nodes[i].Load(); n != nil {
		return n
	}
	if len(f.arena) == 0 {
		f.arena = make([]Node, nodeArenaSize)
	}
	n := &f.arena[0]
	f.arena = f.arena[1:]
	eng, shard := f.engOf(i)
	n.fabric = f
	n.dom = eng.Domain(i)
	n.shard = shard
	n.idx = int32(i)
	n.Coord = f.p.Torus.CoordOf(i)
	n.Table = NewTable(f.p.TableSize)
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		n.out[d].dir = d
		n.out[d].link = f.p.LinkFor(n.Coord, d)
		n.drainEvs[d] = drainEv{n: n, d: d}
		n.out[d].drain = &n.drainEvs[d]
	}
	f.nodes[i].Store(n)
	f.instantiated.Add(1)
	return n
}

// NodeAt returns the chip at torus index i, materialising it on demand
// — the snapshot-restore dispatch point for recorded state and events.
func (f *Fabric) NodeAt(i int) *Node { return f.node(i) }

// Instantiated reports how many chips have materialised; Size is the
// torus address space they are drawn from. Their ratio is the sparse
// win: an idle region costs one nil pointer slot per chip.
func (f *Fabric) Instantiated() int { return int(f.instantiated.Load()) }

// Size reports the torus address space (chip slots, touched or not).
func (f *Fabric) Size() int { return len(f.nodes) }

// MaterialiseAll instantiates every chip on the torus in index order —
// the dense degenerate case. The boot controller calls this: a real
// boot touches every chip (self-test, probe, coordinate flood), and
// index order keeps the control-plane RNG draw order identical to the
// historical dense build.
func (f *Fabric) MaterialiseAll() {
	for i := range f.nodes {
		f.node(i)
	}
}

// NewFabric builds the fabric with every node on the given engine
// (single-engine mode).
func NewFabric(eng *sim.Engine, p Params) (*Fabric, error) {
	f := &Fabric{}
	if err := f.build(p, func(int) (*sim.Engine, int) { return eng, 0 }); err != nil {
		return nil, err
	}
	return f, nil
}

// NewShardedFabric builds the fabric over a partitioned torus: each
// node binds to its partition shard's engine, and deliveries between
// shards go through the ParallelEngine's mailboxes, whose lookahead
// must not exceed the fabric's minimum cross-shard hop latency
// (Params.LookaheadFor on the same partition).
func NewShardedFabric(pe *sim.ParallelEngine, part topo.Partition, p Params) (*Fabric, error) {
	if part.Torus() != p.Torus {
		return nil, fmt.Errorf("router: partition torus %v does not match params torus %v",
			part.Torus(), p.Torus)
	}
	if part.Shards() > pe.Shards() {
		return nil, fmt.Errorf("router: partition needs %d shards, engine has %d",
			part.Shards(), pe.Shards())
	}
	if la := p.LookaheadFor(part); la < pe.Lookahead() {
		return nil, fmt.Errorf("router: cross-shard hop floor %v below engine lookahead %v",
			la, pe.Lookahead())
	}
	f := &Fabric{pe: pe, part: part}
	if err := f.build(p, func(i int) (*sim.Engine, int) {
		s := part.ShardOfIndex(i)
		return pe.Shard(s), s
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// LiveLookahead prices the cross-shard lookahead of the fabric's
// partition over its live links: failed links drop out of the cut, so
// a gutted fast cut re-prices to the surviving hop floor.
func (f *Fabric) LiveLookahead() sim.Time {
	return f.p.LookaheadForLive(f.part, f.LinkFailed)
}

// DomainAt returns the scheduling domain of the chip at c.
func (f *Fabric) DomainAt(c topo.Coord) *sim.Domain { return f.Node(c).dom }

// Params returns the fabric configuration.
func (f *Fabric) Params() Params { return f.p }

// Node returns the chip at c, materialising it on first touch.
func (f *Fabric) Node(c topo.Coord) *Node { return f.node(f.p.Torus.Index(c)) }

// Existing returns the chip at c, or nil if it has never been touched.
func (f *Fabric) Existing(c topo.Coord) *Node { return f.nodes[f.p.Torus.Index(c)].Load() }

// Nodes returns the instantiated chips in index order. On a machine
// whose whole torus has been touched (any booted machine — see
// MaterialiseAll) this is every chip; on a sparse one, only the active
// region. The slice is built per call: hold it, don't re-query in a
// loop.
func (f *Fabric) Nodes() []*Node {
	out := make([]*Node, 0, f.instantiated.Load())
	for i := range f.nodes {
		if n := f.nodes[i].Load(); n != nil {
			out = append(out, n)
		}
	}
	return out
}

// DeliveredMC counts multicast core deliveries machine-wide.
func (f *Fabric) DeliveredMC() uint64 { return f.sum(func(n *Node) uint64 { return n.deliveredMC }) }

// DeliveredP2P counts point-to-point deliveries machine-wide.
func (f *Fabric) DeliveredP2P() uint64 { return f.sum(func(n *Node) uint64 { return n.deliveredP2P }) }

// DroppedPackets counts packets the routers gave up on machine-wide.
func (f *Fabric) DroppedPackets() uint64 { return f.sum(func(n *Node) uint64 { return n.dropped }) }

// EmergencyInvocations counts Fig-8 detours machine-wide.
func (f *Fabric) EmergencyInvocations() uint64 {
	return f.sum(func(n *Node) uint64 { return n.emergencies })
}

// LinkTraversals counts packets crossing any directed link.
func (f *Fabric) LinkTraversals() uint64 {
	return f.sum(func(n *Node) uint64 {
		var t uint64
		for d := range n.out {
			t += n.out[d].Traversals
		}
		return t
	})
}

// WireActivity reports the link activity of each packaging level for
// energy accounting: every traversal moves one 40-bit mc frame, whose
// wire transitions are priced by the level's own link block. A
// traversal lands in the bucket its link accounts to (phy.LinkParams.Level),
// so a level reusing the block below adds to that level's bucket.
func (f *Fabric) WireActivity() []energy.Wire {
	traversals := make([]uint64, len(f.p.Levels))
	for i := range f.nodes {
		n := f.nodes[i].Load()
		if n == nil {
			continue
		}
		for d := range n.out {
			traversals[n.out[d].link.Level] += n.out[d].Traversals
		}
	}
	out := make([]energy.Wire, len(f.p.Levels))
	for i, l := range f.p.Levels {
		out[i] = energy.Wire{
			Transitions: traversals[i] * uint64(l.Link.FrameCost(packet.MinWireSize).Transitions),
			PJ:          l.Link.EnergyPerTransition,
		}
	}
	return out
}

func (f *Fabric) sum(get func(n *Node) uint64) uint64 {
	var t uint64
	for i := range f.nodes {
		if n := f.nodes[i].Load(); n != nil {
			t += get(n)
		}
	}
	return t
}

// FailLink marks the directed link out of c in direction d as failed.
func (f *Fabric) FailLink(c topo.Coord, d topo.Dir) { f.Node(c).out[d].failed = true }

// RepairLink clears a failure. Sequential quiescence only: the link's
// chip wakes the packets sleeping on its failed links (wake), and on a
// sharded fabric whose engine lookahead was priced over the live cut
// (failed links skipped), a repaired boundary link may reintroduce a
// hop floor below the current bound; the engine lookahead is tightened
// immediately so the window protocol stays sound. Tightening at any
// quiescent instant is always safe — it only narrows windows.
func (f *Fabric) RepairLink(c topo.Coord, d topo.Dir) {
	n := f.Node(c)
	if n.dead {
		return // dead chips' links never come back
	}
	if n.out[d].failed {
		n.out[d].failed = false
		n.wake()
	}
	if f.pe == nil || f.part.Shards() == 0 {
		return
	}
	if f.part.Shard(c) == f.part.Shard(f.p.Torus.Neighbor(c, d)) {
		return // not a cut link: no bearing on the cross-shard bound
	}
	if h := f.p.hopLatency(f.p.LinkFor(c, d)); h < f.pe.Lookahead() {
		f.pe.SetLookahead(h)
	}
}

// FailLinkPair fails both directions between c and its d-neighbour.
func (f *Fabric) FailLinkPair(c topo.Coord, d topo.Dir) {
	f.FailLink(c, d)
	f.FailLink(f.p.Torus.Neighbor(c, d), d.Opposite())
}

// FailChip kills chip c outright: the node stops routing, frames
// already queued on its output links die with it, and all six out
// links fail for good. The caller seals the neighbours' reverse links
// (each neighbour's link is that neighbour's own state, owned by its
// shard). Idempotent; safe from an event on c's own domain or from
// sequential context. Failing state only ever *widens* the true
// cross-shard latency, so no engine bound needs touching mid-window —
// the driver re-prices lookahead at the next quiescence.
func (f *Fabric) FailChip(c topo.Coord) {
	n := f.Node(c)
	if n.dead {
		return
	}
	n.dead = true
	for d := range n.out {
		l := &n.out[d]
		l.failed = true
		// In-flight frames waiting behind the wire are lost with the
		// chip; the monitor that would recover them is dead too.
		n.dropped += uint64(len(l.queue))
		l.queue = l.queue[:0]
	}
	f.deadDirty.Store(true)
}

// TakeDeadDirty reports and clears the "a chip died since last sync"
// flag. Sequential quiescence only.
func (f *Fabric) TakeDeadDirty() bool { return f.deadDirty.Swap(false) }

// DeadChips lists killed chips in torus-index order — a canonical
// order independent of materialisation history and kill timing.
func (f *Fabric) DeadChips() []topo.Coord {
	var out []topo.Coord
	for i := range f.nodes {
		if n := f.nodes[i].Load(); n != nil && n.dead {
			out = append(out, n.Coord)
		}
	}
	return out
}

// DeferRepairLink marks the directed link for repair at the next
// CommitRepairs. Unlike RepairLink it is safe from inside the event
// stream (a campaign event on c's own domain): the link stays failed —
// repairing mid-window could tighten the true cross-shard latency
// below the engine's committed lookahead — and comes back only when
// the driver commits at quiescence. Links of dead chips never repair.
func (f *Fabric) DeferRepairLink(c topo.Coord, d topo.Dir) {
	n := f.Node(c)
	l := &n.out[d]
	if n.dead || !l.failed || l.pendingRepair {
		return
	}
	l.pendingRepair = true
	f.pendingRepairs.Add(1)
}

// PendingRepairs counts the repairs DeferRepairLink marked that no
// CommitRepairs has applied yet.
func (f *Fabric) PendingRepairs() int { return int(f.pendingRepairs.Load()) }

// CommitRepairs applies every repair deferred by DeferRepairLink, waking
// the packets sleeping on a repaired chip's failed links (wake), and
// reports whether any link came back (the caller then re-prices the
// engine lookahead over the new live cut). Sequential quiescence only.
func (f *Fabric) CommitRepairs() bool {
	if f.pendingRepairs.Swap(0) == 0 {
		return false
	}
	repaired := false
	for i := range f.nodes {
		n := f.nodes[i].Load()
		if n == nil {
			continue
		}
		back := false
		for d := range n.out {
			l := &n.out[d]
			if !l.pendingRepair {
				continue
			}
			l.pendingRepair = false
			if !n.dead { // the chip may have died after the repair was scheduled
				l.failed = false
				back = true
			}
		}
		if back {
			n.wake()
			repaired = true
		}
	}
	return repaired
}

// LinkFailed reports the state of a directed link. An untouched chip's
// links are healthy by definition, so this never materialises — live
// lookahead pricing walks whole partition cuts through here and must
// not instantiate them.
func (f *Fabric) LinkFailed(c topo.Coord, d topo.Dir) bool {
	n := f.Existing(c)
	return n != nil && n.out[d].failed
}

// InjectMC injects a multicast packet from a local core of chip c.
//
// A tick's spikes enter the router at one instant under consecutive keys
// of the chip's domain, which the canonical order runs back to back, so
// they ride one event: a packet joins the pending route event due at the
// same instant when the domain has drawn no key since that event's last
// packet, reserving the key its own event would have had. Whatever the
// batch's packets schedule draws a later key, and the only keys inside
// its range are its own, so the run — and every Passed answer — is the
// one a route event per packet gives.
func (f *Fabric) InjectMC(c topo.Coord, pkt packet.Packet) {
	n := f.Node(c)
	if n.dead {
		n.dropped++ // the dead router's injection port eats the packet
		return
	}
	pkt.Timestamp = f.phaseAt(n)
	fl := flit{pkt: pkt, injectedAt: n.dom.Now()}
	at := n.dom.Now() + f.p.RouterLatency
	if p := n.open; p != nil && p.at == at && n.dom.Scheduled() == p.last() {
		if len(p.fls) == 1 {
			n.batches = append(n.batches, p)
		}
		n.dom.Reserve()
		p.fls = append(p.fls, fl)
		return
	}
	p := n.getRoute(fl)
	n.dom.AtP(at, p)
	p.at, p.seq, n.open = at, n.dom.Scheduled(), p
}

// InjectP2P injects a point-to-point packet from chip src to chip dst.
func (f *Fabric) InjectP2P(src, dst topo.Coord, data uint32) {
	pkt := packet.NewP2P(packet.P2PAddr(src.X, src.Y), packet.P2PAddr(dst.X, dst.Y), data)
	n := f.Node(src)
	if n.dead {
		n.dropped++
		return
	}
	n.dom.AfterP(f.p.RouterLatency, n.getRoute(flit{pkt: pkt, injectedAt: n.dom.Now()}))
}

// SendNN sends a nearest-neighbour packet from chip c on link d.
func (f *Fabric) SendNN(c topo.Coord, d topo.Dir, pkt packet.Packet) {
	n := f.Node(c)
	if n.dead {
		n.dropped++
		return
	}
	fl := flit{pkt: pkt, injectedAt: n.dom.Now()}
	n.transmit(fl, d)
}

// receive handles a packet arriving at n having travelled direction
// travel on its final hop.
func (n *Node) receive(fl flit, travel topo.Dir) {
	if n.dead {
		// A frame committed before the chip died arrives at dead pins:
		// the handshake never completes and the packet is lost.
		n.dropped++
		return
	}
	switch fl.pkt.Type {
	case packet.MC:
		n.routeMC(fl, int(travel))
	case packet.P2P:
		n.routeP2P(fl)
	case packet.NN:
		if n.fabric.OnNN != nil {
			n.fabric.OnNN(n, travel.Opposite(), fl.pkt)
		}
	}
}

// routeMC implements multicast routing with default routing and the
// emergency-routing protocol. travel is the direction of the final hop,
// or -1 for locally injected packets.
func (n *Node) routeMC(fl flit, travel int) {
	if f := n.fabric; f.p.PhasePeriod > 0 && travel >= 0 {
		if age := (f.phaseAt(n) - fl.pkt.Timestamp) & 3; age >= 2 {
			// Two or more timestamp phases old: the packet has been
			// circulating (mis-route or loop); kill it here.
			n.aged++
			n.drop(fl, 0, true)
			return
		}
	}
	switch fl.pkt.Emergency {
	case packet.EmFirstLeg:
		// We are the inflection corner of the Fig-8 triangle: relay on
		// the second leg without consulting the table.
		orig := topo.Dir((travel + 5) % topo.NumDirs)
		_, second := orig.Emergency()
		fl.pkt.Emergency = packet.EmSecondLeg
		n.forward(fl, second)
		return
	case packet.EmSecondLeg:
		// Back on the normal path: behave as if we arrived over the
		// blocked link, i.e. travelling in the original direction.
		travel = (travel + 1) % topo.NumDirs
		fl.pkt.Emergency = packet.EmNormal
	}

	route, ok := n.Table.Lookup(fl.pkt.Key)
	if !ok {
		if travel < 0 {
			// Locally injected with no route: a configuration error
			// the monitor should hear about.
			n.UnroutableMC++
			return
		}
		// Default routing: carry straight on (section 5.3, Fig 8 'D').
		n.forward(fl, topo.Dir(travel))
		return
	}
	// The fan-out is unrolled here, inside the one routing event: local
	// core deliveries are direct calls, and each outgoing link either
	// launches inline (idle link — see transmit) or joins that link's
	// queue behind its single drain event. A packet reaching N cores and
	// M links therefore costs the M arrival events at the neighbours and
	// nothing else — O(links), not O(targets).
	// Only the set bits are visited, lowest first: cores, then links.
	for m := uint32(route) >> coreBit0; m != 0; m &= m - 1 {
		n.deliverMC(fl, bits.TrailingZeros32(m))
	}
	for m := uint32(route) & (1<<topo.NumDirs - 1); m != 0; m &= m - 1 {
		n.forward(fl, topo.Dir(bits.TrailingZeros32(m)))
	}
}

func (n *Node) deliverMC(fl flit, core int) {
	f := n.fabric
	n.deliveredMC++
	if f.OnDeliverMC != nil {
		f.OnDeliverMC(n, core, fl.pkt, n.dom.Now()-fl.injectedAt)
	}
}

// routeP2P moves a p2p packet one step along the table route. Nodes
// whose p2p tables have not been configured (boot incomplete) cannot
// route and drop the packet.
func (n *Node) routeP2P(fl flit) {
	f := n.fabric
	if !n.p2pReady {
		n.p2pUnroutable++
		n.dropped++
		return
	}
	dx, dy := packet.P2PCoords(fl.pkt.DstAddr)
	dst := topo.Coord{X: dx, Y: dy}
	if dst == n.Coord {
		n.deliveredP2P++
		if f.OnDeliverP2P != nil {
			f.OnDeliverP2P(n, fl.pkt, n.dom.Now()-fl.injectedAt)
		}
		return
	}
	d, _ := f.p.Torus.NextDir(n.Coord, dst)
	n.forward(fl, d)
}

// forward implements the blocked-link protocol: try the requested link;
// wait EmergencyWait; try the emergency detour for EmergencyTry; then
// drop and tell the monitor. "No Router will get into a state where it
// persistently refuses to accept incoming packets" — every path through
// this function terminates without blocking the router.
func (n *Node) forward(fl flit, d topo.Dir) {
	if n.canSend(d) {
		n.transmit(fl, d)
		return
	}
	n.getRetry(fl, d, n.dom.Now()).Run()
}

// Run is one attempt of the blocked-link protocol, resumable from a
// snapshot: the attempt start time t0 travels in the event, so a pending
// retry restores with its elapsed wait intact. A popped event is no
// longer pending, so while the packet stays blocked the same event is
// re-armed in place, for the next grid point or, asleep, for a later
// one; only a packet's first block takes one from the node's free list,
// and the attempt that ends the wait returns it.
func (p *retryEv) Run() {
	n := p.n
	if p.slot != 0 {
		n.unsleep(p)
	}
	next, done := p.attempt()
	if done {
		n.retryPool = append(n.retryPool, p)
		return
	}
	n.dom.AtP(next, p)
	// A wait of one step is a poll: no wake could bring it sooner.
	if next != n.dom.Now()+n.fabric.p.RetryInterval {
		n.sleep(p, next, n.dom.Scheduled())
	}
}

// attempt tries the link once more. It reports done when the wait is
// over — the packet left, on the link or its emergency detour, or was
// dropped — and otherwise the grid point of the next attempt that can
// end differently.
//
// A full queue frees a slot at its next drain, so a packet behind one
// polls every RetryInterval. A failed link comes back only through a
// repair, which lands at quiescence and wakes the node's sleepers, so
// a packet behind one skips the attempts that must fail: before
// EmergencyWait it sleeps to the first attempt in the emergency window,
// and when it cannot take the detour (emergency routing off, not
// multicast, already diverted, or the detour's first leg failed too) it
// sleeps to the drop. A link failing mid-sleep only fails attempts that
// were skipped anyway.
func (p *retryEv) attempt() (next sim.Time, done bool) {
	n, fl, d := p.n, p.fl, p.d
	f := n.fabric
	if n.canSend(d) {
		n.transmit(fl, d)
		return 0, true
	}
	now := n.dom.Now()
	elapsed := now - p.t0
	first, _ := d.Emergency()
	detour := f.p.EmergencyEnabled && fl.pkt.Type == packet.MC && fl.pkt.Emergency == packet.EmNormal
	switch {
	case elapsed < f.p.EmergencyWait:
	case elapsed >= f.p.EmergencyWait+f.p.EmergencyTry:
		n.drop(fl, d, false)
		return 0, true
	case detour && n.canSend(first):
		n.emergencies++
		n.EmergencyNotices++ // monitor is informed (section 5.3)
		fl.pkt.Emergency = packet.EmFirstLeg
		n.transmit(fl, first)
		return 0, true
	}
	switch {
	case !n.out[d].failed:
		return now + f.p.RetryInterval, false
	case !detour || n.out[first].failed:
		return p.t0 + f.dropAfter, false
	case elapsed < f.p.EmergencyWait:
		return p.t0 + f.detourAfter, false
	}
	return now + f.p.RetryInterval, false // the detour is only full
}

// sleep registers p, pending at at under the local key seq, as one of
// the node's sleepers.
func (n *Node) sleep(p *retryEv, at sim.Time, seq uint64) {
	p.at, p.seq = at, seq
	n.sleepers = append(n.sleepers, p)
	p.slot = len(n.sleepers)
}

// unsleep takes p off the node's sleepers.
func (n *Node) unsleep(p *retryEv) {
	last := len(n.sleepers) - 1
	moved := n.sleepers[last]
	n.sleepers[p.slot-1], moved.slot = moved, p.slot
	n.sleepers[last] = nil
	n.sleepers = n.sleepers[:last]
	p.slot = 0
}

// wake moves each of the node's sleepers to its first grid point after
// now, a quiescent instant at which one of the node's links came back:
// every attempt up to now ran or was skipped while the link was down,
// and the next one may succeed. The sleepers draw their new keys in
// pending key order, so a straight run and a restored one, which hold
// the same pending keys, wake them identically. A sleeper due by then
// keeps its key; one whose event was discarded (a constructor's payload
// that was never scheduled) is no longer pending and only leaves the
// list.
func (n *Node) wake() {
	r, now := n.fabric.p.RetryInterval, n.dom.Now()
	slices.SortFunc(n.sleepers, func(a, b *retryEv) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	kept := n.sleepers[:0]
	for _, p := range n.sleepers {
		if next := p.t0 + ((now-p.t0)/r+1)*r; next < p.at {
			if !n.dom.Cancel(p) {
				p.slot = 0
				continue
			}
			n.dom.AtP(next, p)
			p.at, p.seq = next, n.dom.Scheduled()
		}
		kept = append(kept, p)
		p.slot = len(kept)
	}
	clear(n.sleepers[len(kept):])
	n.sleepers = kept
}

func (n *Node) canSend(d topo.Dir) bool {
	l := &n.out[d]
	return !l.failed && len(l.queue) < n.fabric.p.LinkQueueDepth
}

// transmit serialises the packet onto link d; delivery at the neighbour
// happens one frame time plus router latency later.
//
// This is the flattened fast path of the spike fan-out: a link that is
// idle with an empty queue launches the frame inline, inside whatever
// event is running, scheduling nothing but the arrival at the
// neighbour. Only a link that is mid-frame (or already holds waiters)
// queues the packet behind its single cached drain event.
func (n *Node) transmit(fl flit, d topo.Dir) {
	l := &n.out[d]
	if !l.draining && len(l.queue) == 0 && n.dom.Now() >= l.freeAt {
		n.launch(fl, l)
		return
	}
	l.queue = append(l.queue, fl)
	n.armDrain(l)
}

// armDrain schedules the link's cached drain payload at the instant the
// wire clears. The draining flag keeps at most one pending, which is
// what makes re-arming the one pre-allocated drainEv sound.
func (n *Node) armDrain(l *outLink) {
	if l.draining {
		return
	}
	l.draining = true
	wait := l.freeAt - n.dom.Now()
	if wait < 0 {
		wait = 0
	}
	n.dom.AfterP(wait, l.drain)
}

// drainTx launches the next queued packet the moment the wire clears,
// arbitrating the output link: system-class packets (p2p, nn — boot,
// management and host traffic) are served before neural mc traffic, the
// admission-control idea the GALS interconnect supports (section 4,
// ref [12]). Within a class the queue is FIFO. It re-arms itself while
// waiters remain — the congested-link path pays one drain event per
// launch, exactly the pacing the busy-flag protocol's transmit-done
// events enforced.
func (n *Node) drainTx(d topo.Dir) {
	l := &n.out[d]
	l.draining = false
	if len(l.queue) == 0 {
		return
	}
	pick := 0
	for i, q := range l.queue {
		if q.pkt.Type != packet.MC {
			pick = i
			break
		}
	}
	fl := l.queue[pick]
	l.queue = append(l.queue[:pick], l.queue[pick+1:]...)
	n.launch(fl, l)
	if len(l.queue) > 0 {
		n.armDrain(l)
	}
}

// launch starts serialising fl onto link l, which the caller has
// established is free, and occupies the wire until freeAt.
//
// The arrival event at the neighbour is committed here, at serialisation
// start, with timestamp now + frame + RouterLatency (the link health
// check happens at launch: a dead link stalls the handshake on the
// first symbol). Committing at launch rather than at frame completion
// is what lets the sharded engine count the frame serialisation time
// toward its lookahead: every cross-shard post is issued at least one
// minimal frame plus the router pipeline ahead of its delivery.
func (n *Node) launch(fl flit, l *outLink) {
	f := n.fabric
	frame := l.link.FrameCost(fl.pkt.WireSize())
	// The link stays occupied for the full frame whether or not the
	// launch succeeds; the next queued packet launches when it clears.
	l.freeAt = n.dom.Now() + frame.Time
	if l.failed {
		// The link is dead at launch: the handshake never completes and
		// the frame is lost. The neighbour-side protocol (parity,
		// monitor timeouts) handles recovery at higher layers.
		n.dropped++
		return
	}
	l.Traversals++
	fl.pkt.Hops++
	if fl.pkt.Emergency != packet.EmNormal {
		fl.pkt.EmergencyHops++
	}
	neighbor := f.Node(f.p.Torus.Neighbor(n.Coord, l.dir))
	f.deliver(n, neighbor, l.dir, fl, frame.Time)
}

// deliver schedules the arrival of a link traversal at the neighbour —
// one frame serialisation plus the RouterLatency pipeline after launch —
// keyed by the sender's node index and per-sender sequence. The key —
// not insertion order — decides where the delivery sorts among
// same-instant events at the receiver, so the event order is identical
// whether the hop stayed inside one shard, crossed a barrier mailbox,
// or the whole machine ran on a single engine. frame + RouterLatency is
// never below the crossed link's own hop floor, and a cross-shard link
// is by definition in the partition's cut, so the sum is never below
// Params.LookaheadFor — the bound declared to the engine. This is why
// slow cabled links on a cut aligned to their level are a speed win:
// their larger frame time lets the engine run wider windows without
// ever committing an arrival inside one.
func (f *Fabric) deliver(from, to *Node, d topo.Dir, fl flit, frame sim.Time) {
	from.sendSeq++
	at := from.dom.Now() + frame + f.p.RouterLatency
	if f.pe == nil || from.shard == to.shard {
		// Same shard: the receiver's free list is ours to touch, and Run
		// hands the event back to the list it came from.
		to.dom.DeliverAtP(at, from.idx, from.sendSeq, to.getArrive(to, fl, d))
		return
	}
	// Across the cut only the sender's list is ours. The event ends up on
	// the receiver's list, which refills from the traffic coming back.
	f.pe.PostP(from.shard, to.shard, to.dom, at, from.idx, from.sendSeq, from.getArrive(to, fl, d))
}

// The fabric's events. Each kind is one payload type whose constructor
// serves both the scheduling site and EventKinds (snapshot restore).
// The hot ones recycle: arrivals and routes through per-node free
// lists, the per-link drain as a single cached value. Descriptors —
// args slice and encoded flit blob — are materialised lazily, only if
// the event is still pending at snapshot export.

// Event kinds of the fabric. Every Blob is the event's encoded flit.
const (
	KindArrive   = "fab.arrive"   // args: travel direction
	KindRouteMC  = "fab.routeMC"  // args: travel (-1: locally injected)
	KindRouteP2P = "fab.routeP2P" // no args
	KindTxDrain  = "fab.txdrain"  // args: link direction; no blob
	KindRetry    = "fab.retry"    // args: link direction, attempt start
	KindFwd      = "fab.fwd"      // args: link direction
)

// arriveEv is one link traversal's arrival at the neighbouring router.
type arriveEv struct {
	to *Node
	fl flit
	d  topo.Dir
}

// arrivePoolCap bounds a node's arrival free list. A hop inside a shard
// returns its event to the list it was taken from, so only arrivals
// from across the cut can grow a list: without the bound, traffic
// flowing one way over a boundary chip would park every event it ever
// used there.
const arrivePoolCap = 64

// getArrive pops a recycled arrival event from n's free list, or
// allocates one, addressed to node to. Only the shard owning n may call
// this (see the pool fields).
func (n *Node) getArrive(to *Node, fl flit, d topo.Dir) *arriveEv {
	if k := len(n.arrivePool); k > 0 {
		p := n.arrivePool[k-1]
		n.arrivePool = n.arrivePool[:k-1]
		p.to, p.fl, p.d = to, fl, d
		return p
	}
	return &arriveEv{to: to, fl: fl, d: d}
}

func (p *arriveEv) Run() {
	to, fl, d := p.to, p.fl, p.d
	if len(to.arrivePool) < arrivePoolCap {
		to.arrivePool = append(to.arrivePool, p) // runs on to's shard
	}
	to.receive(fl, d)
}
func (p *arriveEv) EventDesc() *sim.Desc { return descFlit(KindArrive, p.fl, uint64(p.d)) }

// routeEv is locally injected packets entering their own router after
// the pipeline delay: one packet, or a batch of multicast packets due at
// at under the consecutive keys seq, seq+1, ... (see InjectMC).
type routeEv struct {
	n   *Node
	fls []flit
	at  sim.Time
	seq uint64
}

// last is the key of the batch's last packet.
func (p *routeEv) last() uint64 { return p.seq + uint64(len(p.fls)) - 1 }

// getRoute pops a recycled route event or allocates one. Injection and
// routing both happen on n's own shard.
func (n *Node) getRoute(fl flit) *routeEv {
	if k := len(n.routePool); k > 0 {
		p := n.routePool[k-1]
		n.routePool = n.routePool[:k-1]
		p.fls = append(p.fls[:0], fl)
		return p
	}
	return &routeEv{n: n, fls: []flit{fl}}
}

func (p *routeEv) Run() {
	n := p.n
	if n.open == p {
		n.open = nil
	}
	if len(p.fls) > 1 {
		i := slices.Index(n.batches, p)
		n.batches = slices.Delete(n.batches, i, i+1)
	}
	for _, fl := range p.fls {
		if fl.pkt.Type == packet.P2P {
			n.routeP2P(fl)
		} else {
			n.routeMC(fl, -1)
		}
	}
	n.routePool = append(n.routePool, p)
}

// EventDesc describes a single packet; a batch has no descriptor until
// Sync splits it.
func (p *routeEv) EventDesc() *sim.Desc {
	if len(p.fls) != 1 {
		return nil
	}
	fl := p.fls[0]
	if fl.pkt.Type == packet.P2P {
		return descFlit(KindRouteP2P, fl)
	}
	return descFlit(KindRouteMC, fl, localTravel)
}

// Sync splits every pending batch back into one route event per packet
// under the key it reserved — the events an export must list, as the run
// without batching holds them. A snapshot syncs before it exports the
// event queue.
func (f *Fabric) Sync() {
	for i := range f.nodes {
		n := f.nodes[i].Load()
		if n == nil {
			continue
		}
		for _, p := range n.batches {
			for k, fl := range p.fls[1:] {
				n.dom.AtReserved(p.at, p.seq+1+uint64(k), n.getRoute(fl))
			}
			p.fls = p.fls[:1]
		}
		n.batches, n.open = n.batches[:0], nil
	}
}

// localTravel is travel -1 (locally injected) riding the args as two's
// complement — the only travel a pending route event ever has.
const localTravel = ^uint64(0)

// drainEv is the transmit-drain event of one output link, allocated
// once at build time and re-armed in place. The link's draining flag
// guarantees at most one is ever pending — the re-arm contract a
// cached payload requires.
type drainEv struct {
	n *Node
	d topo.Dir
}

func (p *drainEv) Run() { p.n.drainTx(p.d) }
func (p *drainEv) EventDesc() *sim.Desc {
	return &sim.Desc{Kind: KindTxDrain, Args: []uint64{uint64(p.d)}}
}

// retryEv is a blocked packet's next attempt at link d, t0 being when
// the first attempt started. A sleeper (see attempt) also keeps its
// pending instant and key, and its place in the node's sleepers plus
// one (0 while it is not asleep).
type retryEv struct {
	n    *Node
	fl   flit
	d    topo.Dir
	t0   sim.Time
	at   sim.Time
	seq  uint64
	slot int
}

// getRetry pops a recycled retry event or allocates one. A packet blocks
// and waits on its own node's shard.
func (n *Node) getRetry(fl flit, d topo.Dir, t0 sim.Time) *retryEv {
	if k := len(n.retryPool); k > 0 {
		p := n.retryPool[k-1]
		n.retryPool = n.retryPool[:k-1]
		p.fl, p.d, p.t0 = fl, d, t0
		return p
	}
	return &retryEv{n: n, fl: fl, d: d, t0: t0}
}

func (p *retryEv) EventDesc() *sim.Desc {
	return descFlit(KindRetry, p.fl, uint64(p.d), uint64(int64(p.t0)))
}

// fwdEv is a recovered packet re-entering the blocked-link protocol on
// link d (see Reinject).
type fwdEv struct {
	n  *Node
	fl flit
	d  topo.Dir
}

func (p *fwdEv) Run()                 { p.n.forward(p.fl, p.d) }
func (p *fwdEv) EventDesc() *sim.Desc { return descFlit(KindFwd, p.fl, uint64(p.d)) }

// drop abandons a packet: it fills the dropped-packet register if that
// is empty, counts the drop either way, and raises the monitor's
// interrupt.
func (n *Node) drop(fl flit, d topo.Dir, aged bool) {
	f := n.fabric
	n.dropped++
	n.DropNotices++
	if !n.dropFull {
		n.dropReg, n.dropFull = DroppedPacket{Pkt: fl.pkt, Dir: d, Aged: aged}, true
	}
	if f.OnDrop != nil {
		f.OnDrop(n)
	}
}

// ReadDropped is the monitor reading the dropped-packet register: it
// returns the packet held there, if any, and clears the register for
// the next drop.
func (n *Node) ReadDropped() (DroppedPacket, bool) {
	dp, ok := n.dropReg, n.dropFull
	n.dropReg, n.dropFull = DroppedPacket{}, false
	return dp, ok
}

// Reinject re-issues a recovered packet onto the output link it was
// bound for (section 5.3: "the local Monitor Processor is informed of
// the failure, and can recover the packet and re-issue it if
// appropriate"). An aged packet is discarded instead; Reinject reports
// whether the packet was re-issued.
func (n *Node) Reinject(dp DroppedPacket) bool {
	if dp.Aged {
		return false
	}
	pkt := dp.Pkt
	pkt.Emergency = packet.EmNormal
	pkt.Timestamp = n.fabric.phaseAt(n)
	fl := flit{pkt: pkt, injectedAt: n.dom.Now()}
	n.dom.AfterP(n.fabric.p.RouterLatency, &fwdEv{n: n, fl: fl, d: dp.Dir})
	return true
}
