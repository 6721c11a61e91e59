//go:build !race

package chip

import (
	"math"
	"testing"

	"spinngo/internal/kernel"
	"spinngo/internal/packet"
	"spinngo/internal/sim"
)

// packetStream delivers left packets to a core, one every gap, as the
// fabric's arrival events would.
type packetStream struct {
	dom  *sim.Domain
	core *kernel.Core
	pkt  packet.Packet
	left int
	seq  uint64
}

const streamGap = 5 * sim.Microsecond

func (s *packetStream) Run() {
	s.core.PostPacket(s.pkt)
	if s.left--; s.left > 0 {
		s.seq++
		s.dom.DeliverAtP(s.dom.Now()+streamGap, 1, s.seq, s)
	}
}
func (s *packetStream) EventDesc() *sim.Desc { return nil }

// TestRowFetchZeroAlloc pins the fetch path's share of the
// zero-allocation contract (beside the gates in internal/sim,
// internal/router and internal/kernel): a core with its DMA controller
// attached takes a stream of packets that each fetch a row, and neither
// a fetch folded into the packet handler's dispatch nor one landing
// after the handler (its completion armed by Fold) allocates in the
// steady state. Both cost two events per packet: the arrival and, when
// folded, the handler's completion, else the fetch's own. Gated out of
// -race runs like the others.
func TestRowFetchZeroAlloc(t *testing.T) {
	for name, key := range map[string]uint32{"folded": 1, "armed": 7} {
		t.Run(name, func(t *testing.T) {
			eng := sim.New(1)
			dom := eng.Domain(0)
			core := kernel.NewCore(dom, fetchConfig)
			d := NewDMAController(dom, NewSDRAM(dom))
			d.Attach(core)
			rows := 0
			core.On(kernel.EvPacket, func(ev kernel.Event) uint64 {
				d.Enqueue(DMARequest{Size: fetchSize(ev.Pkt.Key), Tag: ev.Pkt.Key})
				return packetInstr
			})
			core.On(kernel.EvDMADone, func(kernel.Event) uint64 { rows++; return 20 })
			s := &packetStream{dom: dom, core: core, pkt: packet.NewMC(key)}
			const packets = 256
			deliver := func() {
				s.left = packets
				s.seq++
				dom.DeliverAtP(eng.Now()+streamGap, 1, s.seq, s)
				eng.RunUntil(eng.Now() + (packets+1)*streamGap)
			}
			deliver() // warm the event heap, the kernel and DMA queues
			events, before := eng.Processed(), rows
			allocs := testing.AllocsPerRun(20, deliver)
			if got := rows - before; got != 21*packets {
				t.Fatalf("core processed %d rows, want %d", got, 21*packets)
			}
			if got := float64(eng.Processed()-events) / (21 * packets); math.Abs(got-2) > 0.01 {
				t.Fatalf("%.3f events per packet, want 2", got)
			}
			if allocs > 0 {
				t.Fatalf("the fetch path allocates %.1f times per %d packets, want 0", allocs, packets)
			}
		})
	}
}
