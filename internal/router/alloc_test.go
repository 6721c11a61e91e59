//go:build !race

package router

import "testing"

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
