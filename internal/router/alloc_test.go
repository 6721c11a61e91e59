//go:build !race

package router

import (
	"testing"

	"spinngo/internal/topo"
)

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
// for a failed link polls it every RetryInterval until EmergencyWait has
// passed and then detours over the emergency triangle. The poll re-arms
// the one retry event the packet took from the chip's free list when it
// first blocked, and the attempt that ends the wait puts it back, so a
// steady stream of blocked packets — several waiting at once —
// allocates nothing per poll and nothing per packet.
func TestBlockedLinkZeroAlloc(t *testing.T) {
	eng, f := newTestFabric(t, 8, 8)
	src, dst := topo.Coord{X: 0, Y: 0}, topo.Coord{X: 3, Y: 0}
	installLine(f, 0xaa, src, dst, 0)
	blocked := topo.Coord{X: 1, Y: 0}
	f.FailLink(blocked, topo.East)
	s := &stream{f: f, c: src, key: 0xaa}
	const packets = 256
	cycle := func() { eng.RunUntil(eng.Now() + s.start(packets)) }
	cycle() // warm free lists and event heaps
	before, polls := f.DeliveredMC(), eng.Processed()
	allocs := testing.AllocsPerRun(20, cycle)
	if got := f.DeliveredMC() - before; got != 21*packets || f.DroppedPackets() != 0 {
		t.Fatalf("delivered %d packets and dropped %d, want %d and 0", got, f.DroppedPackets(), 21*packets)
	}
	if got := f.EmergencyInvocations(); got != 22*packets {
		t.Fatalf("%d emergency reroutes, want one per packet (%d)", got, 22*packets)
	}
	if len(f.Node(blocked).retryPool) < 2 {
		t.Fatalf("%d retry events on the blocked chip's free list; the stream was meant to keep several packets waiting at once",
			len(f.Node(blocked).retryPool))
	}
	if allocs > 0 {
		t.Fatalf("blocked-link traffic allocates %.1f times per %d packets (%d events), want 0",
			allocs, packets, (eng.Processed()-polls)/21)
	}
}
