package router

import (
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// cutFabric builds a 4x4 fabric on two shards and returns it with a
// chip on each side of the cut: b is a's neighbour over link d.
func cutFabric(t testing.TB) (pe *sim.ParallelEngine, f *Fabric, a, b topo.Coord, d topo.Dir) {
	t.Helper()
	p := DefaultParams(4, 4)
	part := tiled(t, p, 0, 2)
	pe = sim.NewParallel(1, part.Shards(), part.Shards())
	pe.SetLookahead(p.LookaheadFor(part))
	f, err := NewShardedFabric(pe, part, p)
	if err != nil {
		t.Fatal(err)
	}
	a = part.Chips(0)[0]
	for d = 0; int(d) < topo.NumDirs; d++ {
		if b = p.Torus.Neighbor(a, d); part.Shard(b) == 1 {
			return pe, f, a, b, d
		}
	}
	t.Fatal("shard 0's first chip has no link into shard 1")
	return
}

// stream injects left packets of key at chip c, one every period — far
// enough apart for the link to carry each without queueing.
type stream struct {
	f    *Fabric
	c    topo.Coord
	key  uint32
	left int
}

const streamPeriod = 500 * sim.Nanosecond

func (s *stream) Run() {
	s.f.InjectMC(s.c, packet.NewMC(s.key))
	if s.left--; s.left > 0 {
		s.f.DomainAt(s.c).AfterP(streamPeriod, s)
	}
}
func (s *stream) EventDesc() *sim.Desc { return nil }

// start arms the stream for n packets and returns the span they take.
func (s *stream) start(n int) sim.Time {
	s.left = n
	s.f.DomainAt(s.c).AfterP(1, s)
	return sim.Time(n)*streamPeriod + 10*sim.Microsecond
}

// route steers key from chip from over link d and delivers it to core 0
// of the neighbour there.
func route(f *Fabric, key uint32, from topo.Coord, d topo.Dir) {
	km := packet.KeyMask{Key: key, Mask: 0xffffffff}
	f.Node(from).Table.Add(Entry{km, LinkRoute(d)})
	f.Node(f.p.Torus.Neighbor(from, d)).Table.Add(Entry{km, CoreRoute(0)})
}

// TestOneWayCrossShardArrivalsStayBounded: arrival events that cross the
// cut end up on the receiving chip's free list, and with traffic flowing
// one way nothing ever takes them off it again — the list must be
// capped, or a boundary chip keeps every event it has ever been sent.
func TestOneWayCrossShardArrivalsStayBounded(t *testing.T) {
	pe, f, a, _, d := cutFabric(t)
	defer pe.Close()
	route(f, 0xa1, a, d)
	const packets = 100000
	s := &stream{f: f, c: a, key: 0xa1}
	pe.RunUntil(pe.Now() + s.start(packets))
	if got := f.DeliveredMC(); got != packets {
		t.Fatalf("delivered %d of %d packets", got, packets)
	}
	nodes, parked := 0, 0
	for _, n := range f.Nodes() {
		nodes++
		parked += len(n.arrivePool)
	}
	if parked > arrivePoolCap*nodes {
		t.Errorf("%d arrival events parked on %d chips' free lists after %d one-way packets, bound %d",
			parked, nodes, packets, arrivePoolCap*nodes)
	}
}
