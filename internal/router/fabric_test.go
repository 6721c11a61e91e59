package router

import (
	"reflect"
	"sort"
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// newTestFabric builds a fabric on a fresh engine.
func newTestFabric(t *testing.T, w, h int) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.New(1)
	f, err := NewFabric(eng, DefaultParams(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return eng, f
}

// installLine installs table entries steering key along the straight
// east line from src, delivering to core at dst. Intermediate chips get
// no entry, exercising default routing.
func installLine(f *Fabric, key uint32, src, dst topo.Coord, core int) {
	km := packet.KeyMask{Key: key, Mask: 0xffffffff}
	f.Node(src).Table.Add(Entry{km, LinkRoute(topo.East)})
	f.Node(dst).Table.Add(Entry{km, CoreRoute(core)})
}

func TestMCDeliveryWithDefaultRouting(t *testing.T) {
	eng, f := newTestFabric(t, 8, 8)
	src := topo.Coord{X: 0, Y: 0}
	dst := topo.Coord{X: 4, Y: 0}
	installLine(f, 0xbeef, src, dst, 3)

	var got []packet.Packet
	var lat sim.Time
	f.OnDeliverMC = func(n *Node, core int, pkt packet.Packet, latency sim.Time) {
		if n.Coord != dst || core != 3 {
			t.Errorf("delivered to %v core %d, want %v core 3", n.Coord, core, dst)
		}
		got = append(got, pkt)
		lat = latency
	}
	f.InjectMC(src, packet.NewMC(0xbeef))
	eng.Run()

	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if got[0].Hops != 4 {
		t.Errorf("hops = %d, want 4 (straight line with default routing)", got[0].Hops)
	}
	if lat <= 0 || lat > sim.Millisecond {
		t.Errorf("latency %v out of the paper's <1ms window", lat)
	}
	if f.DeliveredMC() != 1 {
		t.Errorf("DeliveredMC = %d", f.DeliveredMC())
	}
}

func TestMCMulticastFanout(t *testing.T) {
	eng, f := newTestFabric(t, 6, 6)
	src := topo.Coord{X: 0, Y: 0}
	km := packet.KeyMask{Key: 7, Mask: 0xffffffff}
	// Branch at source: east and north, each one hop, plus local core.
	f.Node(src).Table.Add(Entry{km, LinkRoute(topo.East).WithLink(topo.North).WithCore(1)})
	f.Node(topo.Coord{X: 1, Y: 0}).Table.Add(Entry{km, CoreRoute(2)})
	f.Node(topo.Coord{X: 0, Y: 1}).Table.Add(Entry{km, CoreRoute(3)})

	deliveries := map[topo.Coord]int{}
	f.OnDeliverMC = func(n *Node, core int, pkt packet.Packet, _ sim.Time) {
		deliveries[n.Coord] = core
	}
	f.InjectMC(src, packet.NewMC(7))
	eng.Run()

	if len(deliveries) != 3 {
		t.Fatalf("delivered to %d chips, want 3: %v", len(deliveries), deliveries)
	}
	if deliveries[src] != 1 || deliveries[topo.Coord{X: 1, Y: 0}] != 2 || deliveries[topo.Coord{X: 0, Y: 1}] != 3 {
		t.Errorf("deliveries = %v", deliveries)
	}
}

// TestMCFanoutOrder pins the order of one route's fan-out: core
// deliveries ascending, then links ascending — the order Cores and Links
// list — with the top core bit (core 25, bit 31) and every link set. A
// hop's arrival is keyed by the sender's sequence, so the order of the
// forwards is read back from the pending arrivals' keys.
func TestMCFanoutOrder(t *testing.T) {
	p := DefaultParams(4, 4)
	pe := sim.NewParallel(1, 1, 1)
	defer pe.Close()
	f, err := NewShardedFabric(pe, tiled(t, p, 0, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	src := topo.Coord{X: 1, Y: 1}
	route := CoreRoute(MaxCores - 1).WithCore(0)
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		route = route.WithLink(d)
	}
	f.Node(src).Table.Add(Entry{packet.KeyMask{Key: 9, Mask: 0xffffffff}, route})
	var cores []int
	f.OnDeliverMC = func(_ *Node, core int, _ packet.Packet, _ sim.Time) { cores = append(cores, core) }
	f.InjectMC(src, packet.NewMC(9))
	pe.RunUntil(p.RouterLatency) // the route event, not the arrivals it sends

	recs, err := pe.ExportEvents()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].K2 < recs[j].K2 })
	var links []topo.Dir
	for _, r := range recs {
		if r.Desc.Kind != KindArrive {
			t.Fatalf("pending %s, want only arrivals", r.Desc.Kind)
		}
		links = append(links, topo.Dir(r.Desc.Args[0]))
	}
	if !reflect.DeepEqual(cores, route.Cores()) || !reflect.DeepEqual(links, route.Links()) {
		t.Errorf("delivered to cores %v and forwarded on %v, want %v then %v", cores, links, route.Cores(), route.Links())
	}
}

func TestEmergencyRoutingAroundFailedLink(t *testing.T) {
	eng, f := newTestFabric(t, 8, 8)
	src := topo.Coord{X: 0, Y: 0}
	dst := topo.Coord{X: 3, Y: 0}
	installLine(f, 0xaa, src, dst, 0)
	// Fail the east link out of (1,0): the packet must detour NE then S.
	blocked := topo.Coord{X: 1, Y: 0}
	f.FailLink(blocked, topo.East)

	var delivered []packet.Packet
	f.OnDeliverMC = func(n *Node, core int, pkt packet.Packet, _ sim.Time) {
		delivered = append(delivered, pkt)
	}
	f.InjectMC(src, packet.NewMC(0xaa))
	eng.Run()

	if len(delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1 (emergency routing should save it)", len(delivered))
	}
	p := delivered[0]
	if p.Hops != 4 {
		t.Errorf("hops = %d, want 4 (3-hop line with the blocked hop replaced by a 2-hop detour)", p.Hops)
	}
	if p.EmergencyHops != 2 {
		t.Errorf("emergency hops = %d, want 2 (the two triangle legs)", p.EmergencyHops)
	}
	if f.EmergencyInvocations() != 1 {
		t.Errorf("EmergencyInvocations = %d, want 1", f.EmergencyInvocations())
	}
	if f.Node(blocked).EmergencyNotices != 1 {
		t.Error("monitor at the blocked chip was not informed")
	}
	if f.DroppedPackets() != 0 {
		t.Errorf("dropped %d packets", f.DroppedPackets())
	}
}

func TestEmergencyRoutingDisabledDrops(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams(8, 8)
	p.EmergencyEnabled = false
	f, err := NewFabric(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	src := topo.Coord{X: 0, Y: 0}
	dst := topo.Coord{X: 3, Y: 0}
	installLine(f, 0xaa, src, dst, 0)
	f.FailLink(topo.Coord{X: 1, Y: 0}, topo.East)

	dropped := 0
	f.OnDrop = func(n *Node) {
		if dp, ok := n.ReadDropped(); ok && dp.Pkt.Key == 0xaa && dp.Dir == topo.East {
			dropped++
		}
	}
	f.InjectMC(src, packet.NewMC(0xaa))
	eng.Run()

	if f.DeliveredMC() != 0 {
		t.Error("packet delivered despite failed link and no emergency routing")
	}
	if dropped != 1 || f.DroppedPackets() != 1 {
		t.Errorf("dropped = %d (fabric %d), want 1", dropped, f.DroppedPackets())
	}
}

func TestDropAfterEmergencyFails(t *testing.T) {
	// Fail the link and both detour legs: the router must eventually
	// drop rather than block, and the monitor can recover the packet.
	eng, f := newTestFabric(t, 8, 8)
	src := topo.Coord{X: 0, Y: 0}
	dst := topo.Coord{X: 3, Y: 0}
	installLine(f, 0xaa, src, dst, 0)
	blocked := topo.Coord{X: 1, Y: 0}
	f.FailLink(blocked, topo.East)
	first, _ := topo.East.Emergency()
	f.FailLink(blocked, first)

	f.InjectMC(src, packet.NewMC(0xaa))
	eng.Run()

	if f.DeliveredMC() != 0 || f.DroppedPackets() != 1 {
		t.Fatalf("delivered=%d dropped=%d, want 0/1", f.DeliveredMC(), f.DroppedPackets())
	}
	n := f.Node(blocked)
	if n.DropNotices != 1 || !n.dropFull {
		t.Fatalf("monitor did not receive the dropped packet")
	}

	// Monitor repairs the link and re-issues the packet.
	f.RepairLink(blocked, topo.East)
	if got := n.ReinjectDropped(); got != 1 {
		t.Fatalf("ReinjectDropped = %d", got)
	}
	eng.Run()
	if f.DeliveredMC() != 1 {
		t.Error("recovered packet was not delivered after repair")
	}
}

func TestP2PDelivery(t *testing.T) {
	eng, f := newTestFabric(t, 8, 8)
	f.ConfigureAllP2P()
	src := topo.Coord{X: 1, Y: 2}
	dst := topo.Coord{X: 6, Y: 7}
	var deliveredTo topo.Coord
	var hops int
	f.OnDeliverP2P = func(n *Node, pkt packet.Packet, _ sim.Time) {
		deliveredTo = n.Coord
		hops = pkt.Hops
	}
	f.InjectP2P(src, dst, 42)
	eng.Run()
	if deliveredTo != dst {
		t.Fatalf("p2p delivered to %v, want %v", deliveredTo, dst)
	}
	want := f.Params().Torus.Distance(src, dst)
	if hops != want {
		t.Errorf("p2p hops = %d, want distance %d", hops, want)
	}
	if f.DeliveredP2P() != 1 {
		t.Errorf("DeliveredP2P = %d", f.DeliveredP2P())
	}
}

func TestP2PToSelf(t *testing.T) {
	eng, f := newTestFabric(t, 4, 4)
	f.ConfigureAllP2P()
	n := 0
	f.OnDeliverP2P = func(*Node, packet.Packet, sim.Time) { n++ }
	c := topo.Coord{X: 2, Y: 2}
	f.InjectP2P(c, c, 1)
	eng.Run()
	if n != 1 {
		t.Errorf("self p2p delivered %d times", n)
	}
}

func TestNNSingleHop(t *testing.T) {
	eng, f := newTestFabric(t, 4, 4)
	src := topo.Coord{X: 0, Y: 0}
	type rx struct {
		at   topo.Coord
		from topo.Dir
		cmd  uint32
	}
	var got []rx
	f.OnNN = func(n *Node, from topo.Dir, pkt packet.Packet) {
		got = append(got, rx{n.Coord, from, pkt.Key})
	}
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		f.SendNN(src, d, packet.NewNN(uint32(d), 0))
	}
	eng.Run()
	if len(got) != topo.NumDirs {
		t.Fatalf("received %d nn packets, want %d", len(got), topo.NumDirs)
	}
	for _, r := range got {
		d := topo.Dir(r.cmd)
		want := f.Params().Torus.Neighbor(src, d)
		if r.at != want {
			t.Errorf("nn on %v arrived at %v, want %v", d, r.at, want)
		}
		if r.from != d.Opposite() {
			t.Errorf("nn on %v reported from %v, want %v", d, r.from, d.Opposite())
		}
	}
}

func TestUnroutableLocalInjection(t *testing.T) {
	eng, f := newTestFabric(t, 4, 4)
	c := topo.Coord{X: 0, Y: 0}
	f.InjectMC(c, packet.NewMC(99)) // no tables installed anywhere
	eng.Run()
	if f.Node(c).UnroutableMC != 1 {
		t.Errorf("UnroutableMC = %d, want 1", f.Node(c).UnroutableMC)
	}
	if f.DeliveredMC() != 0 {
		t.Error("unroutable packet was delivered")
	}
}

func TestAgedPacketIsKilled(t *testing.T) {
	// A packet with a stale route (default routing ring) must be aged
	// out by the timestamp phase, not circulate forever.
	eng := sim.New(1)
	p := DefaultParams(4, 4)
	p.PhasePeriod = 100 * sim.Microsecond // age quickly for the test
	f, err := NewFabric(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	src := topo.Coord{X: 0, Y: 0}
	// Route east out of the source, but install no sink anywhere: the
	// packet default-routes around the 4-torus ring indefinitely.
	f.Node(src).Table.Add(Entry{packet.KeyMask{Key: 1, Mask: 0xffffffff}, LinkRoute(topo.East)})
	f.InjectMC(src, packet.NewMC(1))
	eng.RunUntil(10 * sim.Millisecond)
	if f.AgedPackets() != 1 {
		t.Errorf("AgedPackets = %d, want 1", f.AgedPackets())
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events still pending: packet still circulating", eng.Pending())
	}
}

func TestHotspotNeverWedgesRouter(t *testing.T) {
	// Adversarial: many sources all target one chip through one link
	// with tiny queues. Every packet must be delivered or dropped;
	// nothing may remain in flight once the engine drains.
	eng := sim.New(1)
	p := DefaultParams(6, 6)
	p.LinkQueueDepth = 2
	f, err := NewFabric(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	dst := topo.Coord{X: 3, Y: 3}
	km := packet.KeyMask{Key: 5, Mask: 0xffffffff}
	f.Node(dst).Table.Add(Entry{km, CoreRoute(0)})
	// All chips in row y=3 west of dst route east toward it.
	for x := 0; x < 3; x++ {
		f.Node(topo.Coord{X: x, Y: 3}).Table.Add(Entry{km, LinkRoute(topo.East)})
	}
	const n = 200
	for i := 0; i < n; i++ {
		f.InjectMC(topo.Coord{X: 0, Y: 3}, packet.NewMC(5))
	}
	eng.RunUntil(sim.Second)
	total := f.DeliveredMC() + f.DroppedPackets()
	if total != n {
		t.Errorf("delivered+dropped = %d, want %d (no packet may be stuck)", total, n)
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events pending after drain", eng.Pending())
	}
}

func TestLatencyScalesWithDistanceAndStaysUnderMillisecond(t *testing.T) {
	// E5 miniature: delivery latency grows with hop count but stays
	// well under 1 ms at any distance on a 16x16 machine.
	eng, f := newTestFabric(t, 16, 16)
	src := topo.Coord{X: 0, Y: 0}
	var lats []sim.Time
	f.OnDeliverMC = func(n *Node, core int, pkt packet.Packet, lat sim.Time) {
		lats = append(lats, lat)
	}
	for i, dx := range []int{1, 4, 8} {
		key := uint32(100 + i)
		dst := topo.Coord{X: dx, Y: 0}
		installLine(f, key, src, dst, 0)
		f.InjectMC(src, packet.NewMC(key))
	}
	eng.Run()
	if len(lats) != 3 {
		t.Fatalf("delivered %d, want 3", len(lats))
	}
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		t.Errorf("latencies not increasing with distance: %v", lats)
	}
	for _, l := range lats {
		if l >= sim.Millisecond {
			t.Errorf("latency %v exceeds the paper's 1 ms bound", l)
		}
	}
}

func TestFailLinkPair(t *testing.T) {
	_, f := newTestFabric(t, 4, 4)
	c := topo.Coord{X: 1, Y: 1}
	f.FailLinkPair(c, topo.North)
	if !f.LinkFailed(c, topo.North) {
		t.Error("forward direction not failed")
	}
	nb := f.Params().Torus.Neighbor(c, topo.North)
	if !f.LinkFailed(nb, topo.South) {
		t.Error("reverse direction not failed")
	}
}

func TestP2PRequiresConfiguration(t *testing.T) {
	// Section 5.2: p2p routing works only after the boot sequence has
	// configured the tables. An unbooted fabric drops p2p traffic.
	eng, f := newTestFabric(t, 4, 4)
	delivered := 0
	f.OnDeliverP2P = func(*Node, packet.Packet, sim.Time) { delivered++ }
	f.InjectP2P(topo.Coord{X: 0, Y: 0}, topo.Coord{X: 2, Y: 2}, 1)
	eng.Run()
	if delivered != 0 {
		t.Error("p2p delivered through unconfigured nodes")
	}
	if f.P2PUnroutable() != 1 {
		t.Errorf("P2PUnroutable = %d, want 1", f.P2PUnroutable())
	}
	// Configure and retry: now it works.
	f.ConfigureAllP2P()
	f.InjectP2P(topo.Coord{X: 0, Y: 0}, topo.Coord{X: 2, Y: 2}, 1)
	eng.Run()
	if delivered != 1 {
		t.Errorf("delivered = %d after configuration", delivered)
	}
}

func TestPartialP2PConfiguration(t *testing.T) {
	// A packet crossing an unconfigured intermediate node dies there.
	eng, f := newTestFabric(t, 6, 1)
	for x := 0; x < 6; x++ {
		if x != 2 {
			f.Node(topo.Coord{X: x, Y: 0}).ConfigureP2P()
		}
	}
	delivered := 0
	f.OnDeliverP2P = func(*Node, packet.Packet, sim.Time) { delivered++ }
	// (0,0) -> (3,0) routes east through the unconfigured (2,0); the
	// westward wrap would be 3 hops, so the east route wins.
	f.InjectP2P(topo.Coord{X: 0, Y: 0}, topo.Coord{X: 3, Y: 0}, 1)
	eng.Run()
	if delivered != 0 {
		t.Error("packet crossed an unconfigured node")
	}
	if !f.Node(topo.Coord{X: 3, Y: 0}).P2PConfigured() {
		t.Error("configuration state lost")
	}
}

func TestSystemTrafficPriorityOverMC(t *testing.T) {
	// QoS (section 4, ref [12]): p2p system traffic queued behind a
	// burst of mc packets on the same link must be served ahead of the
	// remaining mc backlog.
	eng := sim.New(1)
	p := DefaultParams(4, 4)
	p.LinkQueueDepth = 64
	f, err := NewFabric(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	f.ConfigureAllP2P()
	src := topo.Coord{X: 0, Y: 0}
	dst := topo.Coord{X: 1, Y: 0}
	installLine(f, 1, src, dst, 0)

	var mcDelivered int
	var p2pAt sim.Time
	var mcBefore int // mc packets delivered before the p2p arrived
	f.OnDeliverMC = func(*Node, int, packet.Packet, sim.Time) { mcDelivered++ }
	f.OnDeliverP2P = func(_ *Node, _ packet.Packet, _ sim.Time) {
		p2pAt = eng.Now()
		mcBefore = mcDelivered
	}
	// Fill the east link's queue with a 40-packet mc burst, then one
	// p2p packet behind them.
	for i := 0; i < 40; i++ {
		f.InjectMC(src, packet.NewMC(1))
	}
	f.InjectP2P(src, dst, 7)
	eng.Run()

	if mcDelivered != 40 || p2pAt == 0 {
		t.Fatalf("delivered mc=%d p2p=%v", mcDelivered, p2pAt)
	}
	if mcBefore > 5 {
		t.Errorf("p2p waited behind %d mc packets; priority arbitration should bound this", mcBefore)
	}
}

func TestMinHopLatencyWidensLookahead(t *testing.T) {
	p := DefaultParams(4, 4)
	frame := p.Levels[0].Link.SerialisationFloor(packet.MinWireSize)
	if frame <= 0 {
		t.Fatal("serialisation floor must be positive")
	}
	if got, want := p.MinHopLatency(), p.RouterLatency+frame; got != want {
		t.Errorf("MinHopLatency = %v, want router latency %v + min frame %v", got, p.RouterLatency, frame)
	}
	if p.MinHopLatency() <= p.RouterLatency {
		t.Error("folding frame serialisation must widen the bound beyond the router latency")
	}
	// Uniform link parameters: the bound is the same for any geometry's
	// cut set.
	bands := topo.NewBands(p.Torus, 2)
	blocks := tiled(t, p, 0, 4)
	if p.LookaheadFor(bands) != p.LookaheadFor(blocks) {
		t.Errorf("uniform links: lookahead differs by geometry (%v vs %v)",
			p.LookaheadFor(bands), p.LookaheadFor(blocks))
	}
}

// TestLookaheadForMixedCuts pins the per-link lookahead over every cut
// composition: a board-aligned cut of slow links alone widens the bound
// to the slow hop floor; a single fast on-board link in the cut
// tightens it back to the uniform floor; and the degenerate one-shard
// cut falls back to the machine-wide minimum.
func TestLookaheadForMixedCuts(t *testing.T) {
	p := withBoards(DefaultParams(8, 8), 8, 4) // two boards stacked vertically
	fast := p.hopLatency(p.Levels[0].Link)
	slow := p.hopLatency(p.Levels[1].Link)
	if slow <= fast {
		t.Fatalf("board hop floor %v should exceed on-board %v", slow, fast)
	}
	if got := p.MinHopLatency(); got != fast {
		t.Errorf("MinHopLatency = %v, want the fast floor %v", got, fast)
	}

	// Board-aligned cuts — boards geometry, and bands that happen to
	// fall on board edges — contain only slow links: wide bound.
	boards := tiled(t, p, 1, 2)
	alignedBands := topo.NewBands(p.Torus, 2) // boundaries at y=0, y=4
	for _, part := range []topo.Partition{boards, alignedBands} {
		if c := part.CutComposition(len(p.Levels), p.ClassOf); c[0] != 0 {
			t.Fatalf("level %d cut not board-aligned", part.Level())
		}
		if got := p.LookaheadFor(part); got != slow {
			t.Errorf("level %d: lookahead %v, want slow floor %v", part.Level(), got, slow)
		}
	}

	// A misaligned cut mixes classes: any fast link tightens the bound.
	misaligned := topo.NewBands(p.Torus, 4) // y=2 and y=6 cut board interiors
	if c := misaligned.CutComposition(len(p.Levels), p.ClassOf); c[0] == 0 || c[1] == 0 {
		t.Fatalf("bands/4 cut composition %v: want both levels", c)
	}
	if got := p.LookaheadFor(misaligned); got != fast {
		t.Errorf("mixed cut: lookahead %v, want fast floor %v", got, fast)
	}

	// One shard: empty cut, uniform floor for uniformity.
	if got := p.LookaheadFor(topo.NewBands(p.Torus, 1)); got != fast {
		t.Errorf("empty cut: lookahead %v, want uniform floor %v", got, fast)
	}

	// The uniform-fabric ablation: identical board link params mean the
	// hierarchy exists but buys no extra lookahead.
	p.Levels[1].Link = p.Levels[0].Link
	if got := p.LookaheadFor(boards); got != fast {
		t.Errorf("uniform ablation: lookahead %v, want %v", got, fast)
	}
}

// TestLinkForClassifies pins the per-link parameter source and the
// build-time resolution the transmit path uses.
func TestLinkForClassifies(t *testing.T) {
	p := withBoards(DefaultParams(8, 8), 4, 4)
	if p.LinkFor(topo.Coord{X: 1, Y: 1}, topo.East) != p.Levels[0].Link {
		t.Error("interior link should resolve to on-board params")
	}
	if p.LinkFor(topo.Coord{X: 3, Y: 1}, topo.East) != p.Levels[1].Link {
		t.Error("board-edge link should resolve to board params")
	}
	if p.LinkFor(topo.Coord{X: 7, Y: 7}, topo.NorthEast) != p.Levels[1].Link {
		t.Error("wrap link should resolve to board params")
	}
	uniform := DefaultParams(8, 8)
	if uniform.LinkFor(topo.Coord{X: 3, Y: 1}, topo.East) != uniform.Levels[0].Link {
		t.Error("uniform fabric must resolve every link to the chip level's link")
	}
}

// TestHeterogeneousFabricMatchesSingleEngine drives a packet over a
// slow board-to-board boundary on a board-aligned partition running at
// the widened lookahead, and checks the delivery time is exactly the
// single-engine one — the determinism contract under heterogeneity.
func TestHeterogeneousFabricMatchesSingleEngine(t *testing.T) {
	p := withBoards(DefaultParams(4, 4), 4, 2)
	part := tiled(t, p, 1, 2)
	pe := sim.NewParallel(1, part.Shards(), part.Shards())
	defer pe.Close()
	pe.SetLookahead(p.LookaheadFor(part))
	if pe.Lookahead() <= p.MinHopLatency() {
		t.Fatalf("board-aligned lookahead %v not widened beyond uniform %v",
			pe.Lookahead(), p.MinHopLatency())
	}
	f, err := NewShardedFabric(pe, part, p)
	if err != nil {
		t.Fatal(err)
	}
	src := topo.Coord{X: 1, Y: 1}
	dst := topo.Coord{X: 1, Y: 2} // one hop north, over the board edge
	if part.Shard(src) == part.Shard(dst) {
		t.Fatal("route does not cross the board boundary")
	}
	installNorth := func(fab *Fabric) {
		km := packet.KeyMask{Key: 0xb0, Mask: 0xffffffff}
		fab.Node(src).Table.Add(Entry{km, LinkRoute(topo.North)})
		fab.Node(dst).Table.Add(Entry{km, CoreRoute(0)})
	}
	installNorth(f)
	var deliveredAt sim.Time
	f.OnDeliverMC = func(n *Node, core int, pkt packet.Packet, lat sim.Time) {
		deliveredAt = n.Domain().Now()
	}
	f.InjectMC(src, packet.NewMC(0xb0))
	pe.RunUntil(sim.Millisecond)

	eng := sim.New(1)
	ref, err := NewFabric(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	installNorth(ref)
	var refAt sim.Time
	ref.OnDeliverMC = func(n *Node, core int, pkt packet.Packet, lat sim.Time) {
		refAt = n.Domain().Now()
	}
	ref.InjectMC(src, packet.NewMC(0xb0))
	eng.RunUntil(sim.Millisecond)
	if deliveredAt == 0 || deliveredAt != refAt {
		t.Errorf("sharded heterogeneous delivery at %v, single-engine at %v", deliveredAt, refAt)
	}
	// The slow hop must actually be slower than an on-board one would
	// be: the per-link frame cost reached the transmit path.
	uniformRef := DefaultParams(4, 4)
	eng2 := sim.New(1)
	fastFab, err := NewFabric(eng2, uniformRef)
	if err != nil {
		t.Fatal(err)
	}
	installNorth(fastFab)
	var fastAt sim.Time
	fastFab.OnDeliverMC = func(n *Node, core int, pkt packet.Packet, lat sim.Time) {
		fastAt = n.Domain().Now()
	}
	fastFab.InjectMC(src, packet.NewMC(0xb0))
	eng2.RunUntil(sim.Millisecond)
	if fastAt == 0 || deliveredAt <= fastAt {
		t.Errorf("board hop at %v should be slower than uniform hop at %v", deliveredAt, fastAt)
	}
}

func TestShardedFabricDeliversAcrossBlockBoundaries(t *testing.T) {
	// A 2x2 block partition of a 4x4 torus: a packet travelling east
	// from (1,1) to (3,1) crosses a vertical shard boundary. With the
	// engine's lookahead at the full hop floor (frame + router latency),
	// the delivery must still arrive, at the exact time a single engine
	// would produce.
	p := DefaultParams(4, 4)
	part := tiled(t, p, 0, 4)
	if r, c := part.Grid(); r != 2 || c != 2 {
		t.Fatalf("expected a 2x2 grid, got %dx%d", r, c)
	}
	pe := sim.NewParallel(1, part.Shards(), part.Shards())
	defer pe.Close()
	pe.SetLookahead(p.LookaheadFor(part))
	f, err := NewShardedFabric(pe, part, p)
	if err != nil {
		t.Fatal(err)
	}
	src := topo.Coord{X: 1, Y: 1}
	dst := topo.Coord{X: 3, Y: 1}
	if part.Shard(src) == part.Shard(dst) {
		t.Fatal("test route does not cross a shard boundary")
	}
	installLine(f, 0xc4, src, dst, 0)
	var deliveredAt sim.Time
	f.OnDeliverMC = func(n *Node, core int, pkt packet.Packet, lat sim.Time) {
		deliveredAt = n.Domain().Now()
	}
	f.InjectMC(src, packet.NewMC(0xc4))
	pe.RunUntil(sim.Millisecond)
	if deliveredAt == 0 {
		t.Fatal("packet never crossed the block boundary")
	}

	// Reference: identical fabric on a single engine.
	eng := sim.New(1)
	ref, err := NewFabric(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	installLine(ref, 0xc4, src, dst, 0)
	var refAt sim.Time
	ref.OnDeliverMC = func(n *Node, core int, pkt packet.Packet, lat sim.Time) {
		refAt = n.Domain().Now()
	}
	ref.InjectMC(src, packet.NewMC(0xc4))
	eng.RunUntil(sim.Millisecond)
	if deliveredAt != refAt {
		t.Errorf("sharded delivery at %v, single-engine at %v", deliveredAt, refAt)
	}
}

// AgedPackets counts packets killed by the timestamp-phase check.
func (f *Fabric) AgedPackets() uint64 { return f.sum(func(n *Node) uint64 { return n.aged }) }

// P2PUnroutable counts p2p packets that hit unconfigured nodes.
func (f *Fabric) P2PUnroutable() uint64 {
	return f.sum(func(n *Node) uint64 { return n.p2pUnroutable })
}

// ReinjectDropped reads the dropped-packet register and re-issues what
// it held, reporting how many packets (0 or 1) were re-issued.
func (n *Node) ReinjectDropped() int {
	if dp, ok := n.ReadDropped(); ok && n.Reinject(dp) {
		return 1
	}
	return 0
}
