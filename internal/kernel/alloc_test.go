//go:build !race

package kernel_test

import (
	"math"
	"testing"

	"spinngo/internal/kernel"
	"spinngo/internal/sim"
)

// TestCoreDeliveryZeroAlloc pins the delivery path's share of the
// zero-allocation contract (the other gates live in internal/sim and
// internal/router and internal/chip): Post, the handler, the row's DMA
// and its completion interrupt allocate nothing in the steady state,
// whether the handler's
// own completion is elided (the core is asleep again before the next
// packet) or armed (the next packet arrives while it is busy). Gated out
// of -race runs like the others.
func TestCoreDeliveryZeroAlloc(t *testing.T) {
	// Events per packet: its arrival, plus for a hit the packet handler's
	// own completion, which the row's DMA completion always lands before
	// and so waits for (the fetch itself folds into that completion's
	// dispatch); a second packet arriving mid-handler arms one completion
	// more per pair.
	for name, tc := range map[string]struct {
		hit    bool
		gaps   [2]sim.Time
		events float64
	}{
		"elided, miss": {false, oneByOne, 1},
		"elided, hit":  {true, oneByOne, 2},
		"armed, miss":  {false, inPairs, 1.5},
		"armed, hit":   {true, inPairs, 2.5},
	} {
		t.Run(name, func(t *testing.T) {
			const packets = 256
			r := newDeliveryRig(200, tc.hit, tc.gaps)
			r.deliver(packets) // warm the event heap, the kernel and DMA queues
			events, handlers := r.eng.Processed(), r.core.EventCounts[kernel.EvPacket]
			allocs := testing.AllocsPerRun(20, func() { r.deliver(packets) })
			if got := r.core.EventCounts[kernel.EvPacket] - handlers; got != 21*packets {
				t.Fatalf("core ran %d packet handlers, want %d", got, 21*packets)
			}
			// (To a hundredth: a run's first and last packets have no partner.)
			if got := float64(r.eng.Processed()-events) / (21 * packets); math.Abs(got-tc.events) > 0.01 {
				t.Fatalf("%.3f events per packet, want %v", got, tc.events)
			}
			if allocs > 0 {
				t.Fatalf("delivery allocates %.1f times per %d packets, want 0", allocs, packets)
			}
		})
	}
}
