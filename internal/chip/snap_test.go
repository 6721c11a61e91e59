package chip

import (
	"bytes"
	"testing"

	"spinngo/internal/sim"
	"spinngo/internal/snap"
	"spinngo/internal/topo"
)

type snapper interface{ Snap(*snap.Codec) }

// sdramSnap codes an SDRAM against the table of the entries it holds.
type sdramSnap struct{ *SDRAM }

func (s sdramSnap) Snap(c *snap.Codec) { s.SDRAM.Snap(c, s.Held(nil)) }

// TestMemorySnapRoundTrip pins the one-description contract for the
// chip's memory system: encode(x) decoded into a freshly built y
// re-encodes to the same bytes, consuming the image exactly; the image
// cut short is an error.
func TestMemorySnapRoundTrip(t *testing.T) {
	eng := sim.New(1)
	mem := New(eng, topo.Coord{}, 1, &Segments{}).SDRAM
	if err := mem.Store(0x7000, []byte("synaptic block")); err != nil {
		t.Fatal(err)
	}
	if err := mem.StoreShared(mem.table.Add(0x100, []byte("boot image"))); err != nil {
		t.Fatal(err)
	}
	if err := mem.Store(0x2000, nil); err != nil {
		t.Fatal(err)
	}
	dma := NewDMAController(eng, mem)
	for i := uint32(0); i < 4; i++ {
		dma.Enqueue(DMARequest{Size: 64 * int(i+1), Write: i%2 == 1, Tag: i})
	}
	eng.RunUntil(200 * sim.Nanosecond) // first transfer in flight, three queued, SDRAM busy

	for _, row := range []struct {
		name  string
		src   snapper
		fresh func() snapper
	}{
		{"sdram", sdramSnap{mem}, func() snapper { return sdramSnap{New(sim.New(1), topo.Coord{}, 1, mem.table).SDRAM} }},
		{"sdram empty", sdramSnap{NewSDRAM(eng)}, func() snapper {
			s := NewSDRAM(sim.New(1))
			_ = s.Store(1, []byte{1}) // replaced by the overlay
			return sdramSnap{s}
		}},
		{"dma", dma, func() snapper { return NewDMAController(sim.New(1), NewSDRAM(sim.New(1))) }},
		{"dma idle", NewDMAController(eng, mem), func() snapper { return NewDMAController(sim.New(1), NewSDRAM(sim.New(1))) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			enc := snap.NewEncoder()
			row.src.Snap(enc)
			dec := snap.NewDecoder(enc.Bytes())
			dst := row.fresh()
			dst.Snap(dec)
			if err := dec.Err(); err != nil {
				t.Fatal(err)
			}
			if dec.Remaining() != 0 {
				t.Fatalf("%d bytes left undecoded", dec.Remaining())
			}
			re := snap.NewEncoder()
			dst.Snap(re)
			if !bytes.Equal(re.Bytes(), enc.Bytes()) {
				t.Fatal("decoded state re-encodes differently")
			}
			cut := snap.NewDecoder(enc.Bytes()[:len(enc.Bytes())-1])
			row.fresh().Snap(cut)
			if cut.Err() == nil {
				t.Error("truncated image decoded without error")
			}
		})
	}
	if dma.QueueLen() != 4 || mem.Used() == 0 {
		t.Fatalf("source state too thin to be a test: queue %d, used %d", dma.QueueLen(), mem.Used())
	}
	enc := snap.NewEncoder()
	sdramSnap{mem}.Snap(enc)
	dst := New(sim.New(1), topo.Coord{}, 1, mem.table).SDRAM
	dst.Snap(snap.NewDecoder(enc.Bytes()), nil)
	if got, ok := dst.Load(0x7000); !ok || string(got) != "synaptic block" {
		t.Fatalf("restored segment = %q, %v", got, ok)
	}
}

// TestLazyDMASnap pins the DMA controller built on first use: a core
// that never used one codes the bytes of a fresh controller and decodes
// back to none, while one whose controller is busy, or has served a
// request, round-trips and materialises on the decoding side.
func TestLazyDMASnap(t *testing.T) {
	encode := func(c *Core) []byte {
		enc := snap.NewEncoder()
		c.SnapDMA(enc)
		return enc.Bytes()
	}
	decode := func(image []byte) *Core {
		t.Helper()
		c := New(sim.New(1), topo.Coord{}, 1, nil).Cores[0]
		dec := snap.NewDecoder(image)
		c.SnapDMA(dec)
		if err := dec.Err(); err != nil {
			t.Fatal(err)
		}
		if dec.Remaining() != 0 {
			t.Fatalf("%d bytes left undecoded", dec.Remaining())
		}
		return c
	}

	eng := sim.New(1)
	ch := New(eng, topo.Coord{}, 3, nil)
	idle, done, busy := ch.Cores[0], ch.Cores[1], ch.Cores[2]
	enc := snap.NewEncoder()
	NewDMAController(eng, ch.SDRAM).Snap(enc)
	fresh := enc.Bytes()
	if got := encode(idle); !bytes.Equal(got, fresh) {
		t.Errorf("an untouched controller codes %x, a fresh one %x", got, fresh)
	}
	if idle.dma != nil {
		t.Error("encoding built the idle core's controller")
	}
	if decode(fresh).dma != nil {
		t.Error("decoding a fresh controller's bytes kept a controller")
	}

	done.DMA().Enqueue(DMARequest{Size: 64, Tag: 1})
	eng.Run()
	busy.DMA().Enqueue(DMARequest{Size: 64, Tag: 2})
	busy.DMA().Enqueue(DMARequest{Size: 32, Write: true, Tag: 3})
	if done.dma.Completed == 0 || !busy.dma.busy {
		t.Fatalf("source state too thin to be a test: completed %d, busy %v", done.dma.Completed, busy.dma.busy)
	}
	for name, c := range map[string]*Core{"completed": done, "busy": busy} {
		image := encode(c)
		got := decode(image)
		if got.dma == nil {
			t.Errorf("%s: decoding kept no controller", name)
			continue
		}
		if !bytes.Equal(encode(got), image) {
			t.Errorf("%s: decoded controller re-encodes differently", name)
		}
	}
}
