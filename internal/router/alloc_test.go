//go:build !race

package router

import (
	"runtime"
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// burst is one handler's tick on chip c: n spikes injected back to back,
// keys key, key+1, ..., then — with split — one key drawn (the handler's
// completion) and n more.
type burst struct {
	f     *Fabric
	c     topo.Coord
	key   uint32
	n     int
	split bool
}

func (b *burst) Run() {
	for i := 0; i < b.n; i++ {
		b.f.InjectMC(b.c, packet.NewMC(b.key+uint32(i)))
	}
	if b.split {
		b.f.DomainAt(b.c).Reserve()
		for i := b.n; i < 2*b.n; i++ {
			b.f.InjectMC(b.c, packet.NewMC(b.key+uint32(i)))
		}
	}
}
func (b *burst) EventDesc() *sim.Desc { return nil }

// TestInjectionBurstIsOneEvent pins the batched injection: one core
// injecting N packets in one tick schedules one route event, the chip's
// domain still draws N keys, the packets reach their core in injection
// order, a key drawn in between starts a second batch, and steady-state
// bursts allocate nothing. (In this file so that its allocation count
// stays out of -race runs, like the gates.)
func TestInjectionBurstIsOneEvent(t *testing.T) {
	eng, f := newTestFabric(t, 4, 4)
	c := topo.Coord{X: 1, Y: 2}
	const n = 32
	f.Node(c).Table.Add(Entry{packet.KeyMask{Key: 0x400, Mask: ^uint32(2*n - 1)}, CoreRoute(0)})
	got := make([]uint32, 0, 2*n)
	f.OnDeliverMC = func(_ *Node, _ int, pkt packet.Packet, _ sim.Time) { got = append(got, pkt.Key) }
	dom := f.DomainAt(c)
	for _, split := range []bool{false, true} {
		b := &burst{f: f, c: c, key: 0x400, n: n, split: split}
		dom.AfterP(sim.Microsecond, b)
		at, keys := eng.Now()+sim.Microsecond, dom.Scheduled()
		eng.RunUntil(at)
		events, packets := 1, n
		if split {
			events, packets = 2, 2*n
		}
		if pending := eng.Pending(); pending != events {
			t.Fatalf("split %v: %d route events pending, want %d", split, pending, events)
		}
		if drawn := dom.Scheduled() - keys; drawn != uint64(packets+events-1) {
			t.Fatalf("split %v: the burst drew %d keys, want %d", split, drawn, packets+events-1)
		}
		got = got[:0]
		eng.RunUntil(at + sim.Microsecond)
		for i, key := range got {
			if key != 0x400+uint32(i) {
				t.Fatalf("split %v: delivery %d has key %#x, want %#x", split, i, key, 0x400+i)
			}
		}
		if len(got) != packets {
			t.Fatalf("split %v: delivered %d packets, want %d", split, len(got), packets)
		}
	}

	b := &burst{f: f, c: c, key: 0x400, n: n}
	cycle := func() {
		dom.AfterP(sim.Microsecond, b)
		eng.RunUntil(eng.Now() + 2*sim.Microsecond)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Fatalf("a %d-packet burst allocates %.1f times, want 0", n, allocs)
	}
}

// TestCrossShardHopZeroAlloc pins the cut links' share of the
// zero-allocation contract (the other gates live in internal/sim): a
// hop across the cut takes its arrival event from the sending chip's
// free list, and the traffic coming back over the same link refills it,
// so two opposed streams over one cut link allocate nothing per hop.
// Gated out of -race runs like the others.
func TestCrossShardHopZeroAlloc(t *testing.T) {
	pe, f, a, b, d := cutFabric(t)
	defer pe.Close()
	route(f, 0xa1, a, d)
	route(f, 0xb2, b, d.Opposite())
	there := &stream{f: f, c: a, key: 0xa1}
	back := &stream{f: f, c: b, key: 0xb2}
	const packets = 256
	cycle := func() {
		there.start(packets)
		pe.RunUntil(pe.Now() + back.start(packets))
	}
	cycle() // warm free lists, mail arenas and event heaps
	before := f.DeliveredMC()
	allocs := testing.AllocsPerRun(20, cycle)
	if got := f.DeliveredMC() - before; got != 21*2*packets {
		t.Fatalf("delivered %d packets, want %d", got, 21*2*packets)
	}
	if allocs > 0 {
		t.Fatalf("steady-state cross-shard traffic allocates %.1f times per %d hops, want 0", allocs, 2*packets)
	}
}

// TestBlockedLinkZeroAlloc pins the fault path's share: a packet bound
// for a failed link sleeps in the one retry event it took from the
// chip's free list when it blocked — to the first attempt in the
// emergency window, where it detours over the emergency triangle, or,
// with the detour's first leg failed too, to its drop — and the attempt
// that ends the wait puts the event back. A steady stream of blocked
// packets, several asleep at once, allocates nothing per packet either
// way: the node's list of sleepers reuses its capacity.
func TestBlockedLinkZeroAlloc(t *testing.T) {
	for _, detourFailed := range []bool{false, true} {
		eng, f, n := blockedLine(t, DefaultParams(8, 8), detourFailed)
		s := &stream{f: f, c: n.Coord, key: 0xaa}
		const packets = 256
		asleep := 0
		cycle := func() {
			s.start(packets)
			for eng.Step() {
				asleep = max(asleep, len(n.sleepers))
			}
		}
		cycle() // warm free lists, the sleepers' list and event heaps
		before := f.DeliveredMC() + f.DroppedPackets()
		allocs := testing.AllocsPerRun(20, cycle)
		delivered, dropped := f.DeliveredMC(), f.DroppedPackets()
		if got := delivered + dropped - before; got != 21*packets || (dropped != 0) != detourFailed {
			t.Fatalf("detour failed %v: delivered %d and dropped %d packets, want %d in all, dropped only behind a failed detour",
				detourFailed, delivered, dropped, 21*packets)
		}
		if !detourFailed && f.EmergencyInvocations() != 22*packets {
			t.Fatalf("%d emergency reroutes, want one per packet (%d)", f.EmergencyInvocations(), 22*packets)
		}
		if asleep < 2 {
			t.Fatalf("detour failed %v: at most %d packets asleep at once; the stream was meant to keep several waiting",
				detourFailed, asleep)
		}
		if allocs > 0 {
			t.Fatalf("detour failed %v: blocked-link traffic allocates %.1f times per %d packets, want 0",
				detourFailed, allocs, packets)
		}
	}
}

// TestDropRegisterBounded: a router that drops packets for ever holds
// one of them, so a hundred thousand drops on one node allocate nothing
// (the budget leaves room for runtime noise, not for a growing list).
func TestDropRegisterBounded(t *testing.T) {
	_, f := newTestFabric(t, 4, 4)
	n := f.Node(topo.Coord{X: 2, Y: 1})
	fl := flit{pkt: packet.NewMC(7)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100000; i++ {
		fl.pkt.Key = uint32(i)
		n.drop(fl, topo.Dir(i%int(topo.NumDirs)), i%3 == 0)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1024 {
		t.Errorf("100000 drops allocated %d bytes, want at most 1 KiB", grew)
	}
	if dp, ok := n.ReadDropped(); !ok || dp.Pkt.Key != 0 || f.DroppedPackets() != 100000 {
		t.Errorf("register holds key %d (full %v), fabric counts %d drops; want key 0 and 100000", dp.Pkt.Key, ok, f.DroppedPackets())
	}
}
