package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spinngo/internal/chip"
	"spinngo/internal/kernel"
	"spinngo/internal/neural"
	"spinngo/internal/packet"
	"spinngo/internal/sim"
)

// deliveryRig is the path a delivered multicast packet takes on one
// application core, with the real parts: the Fig-7 kernel, a synaptic
// matrix, and the DMA controller over the chip's SDRAM, attached to the
// core as the machine attaches it. The packet handler sizes the row
// fetch from the matrix index (or finds no row and drops the packet),
// and the DMA-done handler walks the row.
type deliveryRig struct {
	eng  *sim.Engine
	dom  *sim.Domain
	core *kernel.Core
	keys []uint32 // the packets to deliver, in order, cyclically
	next int
	gaps [2]sim.Time // time to the next packet, alternating
	left int
	seq  uint64

	synapses int
}

const rowSynapses = 16

func newDeliveryRig(rows int, hit bool, gaps [2]sim.Time) *deliveryRig {
	r := &deliveryRig{eng: sim.New(1), gaps: gaps}
	r.dom = r.eng.Domain(0)
	cfg := kernel.DefaultConfig()
	cfg.TimerPeriod = sim.Second // the benchmark is about packets
	r.core = kernel.NewCore(r.dom, cfg)
	dma := chip.NewDMAController(r.dom, chip.NewSDRAM(r.dom))
	dma.Attach(r.core)

	m := neural.NewMatrix()
	row := make(neural.Row, rowSynapses)
	for i := range row {
		row[i] = neural.MakeSynWord(64, 1+i%neural.MaxSynDelay, false, i)
	}
	r.keys = make([]uint32, rows)
	for i := range r.keys {
		key := uint32(i)<<11 | uint32(i*7)&0xff // fragment base | neuron, as routing keys are
		m.AddRow(key, row, false)
		if !hit {
			key |= 1 << 10 // a neuron of the same fragment with no synapse here
		}
		r.keys[i] = key
	}
	rand.New(rand.NewSource(1)).Shuffle(rows, func(i, j int) { r.keys[i], r.keys[j] = r.keys[j], r.keys[i] })

	r.core.On(kernel.EvPacket, func(ev kernel.Event) uint64 {
		size, ok := m.RowBytes(ev.Pkt.Key)
		if !ok {
			return 60
		}
		dma.Enqueue(chip.DMARequest{Size: size, Tag: ev.Pkt.Key})
		return 80
	})
	r.core.On(kernel.EvDMADone, func(ev kernel.Event) uint64 {
		row, _, _, _ := m.Lookup(ev.Tag)
		r.synapses += len(row)
		return 20 + 5*uint64(len(row))
	})
	return r
}

// Run delivers the next packet, as the fabric's arrival event would, and
// re-arms itself for the one after.
func (r *deliveryRig) Run() {
	r.core.PostPacket(packet.NewMC(r.keys[r.next]))
	if r.next++; r.next == len(r.keys) {
		r.next = 0
	}
	if r.left--; r.left > 0 {
		r.seq++
		r.dom.DeliverAtP(r.eng.Now()+r.gaps[r.left%2], 1, r.seq, r)
	}
}
func (r *deliveryRig) EventDesc() *sim.Desc { return nil }

// deliver runs n packets through the core and returns once it sleeps.
func (r *deliveryRig) deliver(n int) {
	r.left = n
	r.seq++
	r.dom.DeliverAtP(r.eng.Now()+r.gaps[0], 1, r.seq, r)
	r.eng.RunUntil(r.eng.Now() + sim.Time(n)*max(r.gaps[0], r.gaps[1]) + 100*sim.Microsecond)
}

// Packet spacings: one at a time, far enough apart that the core is
// asleep again before the next packet arrives and no arrival ever waits
// for a handler's completion; and in pairs, the second packet arriving
// while the first one's handler runs, which makes that handler's
// completion an event.
var (
	oneByOne = [2]sim.Time{5 * sim.Microsecond, 5 * sim.Microsecond}
	inPairs  = [2]sim.Time{300 * sim.Nanosecond, 5 * sim.Microsecond}
)

// BenchmarkCoreDelivery is the unit of work of every workload: ns per
// packet delivered to a core through Post — dispatch, matrix probe, and
// for a hit the row's DMA and its completion handler.
func BenchmarkCoreDelivery(b *testing.B) {
	for _, hit := range []bool{false, true} {
		for _, rows := range []int{200, 2000} {
			name := fmt.Sprintf("miss/rows=%d", rows)
			if hit {
				name = fmt.Sprintf("hit/rows=%d", rows)
			}
			b.Run(name, func(b *testing.B) {
				r := newDeliveryRig(rows, hit, oneByOne)
				r.deliver(rows) // warm the queues
				r.synapses = 0
				b.ResetTimer()
				r.deliver(b.N)
				if got := r.core.EventCounts[kernel.EvPacket]; got != uint64(rows+b.N) {
					b.Fatalf("core ran %d packet handlers, want %d", got, rows+b.N)
				}
				if want := b.N * rowSynapses; hit && r.synapses != want || !hit && r.synapses != 0 {
					b.Fatalf("DMA-done handlers walked %d synapses, want %d (hit %v)", r.synapses, want, hit)
				}
			})
		}
	}
}
