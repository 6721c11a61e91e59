package kernel

import (
	"bytes"
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/sim"
	"spinngo/internal/snap"
)

// busyCore returns a core stopped mid-backlog: one event dispatched,
// the rest queued behind it, counters non-zero.
func busyCore(posts ...Event) *Core {
	eng := sim.New(1)
	cfg := DefaultConfig()
	cfg.TimerPeriod = sim.Second
	c := NewCore(eng, cfg)
	c.On(EvPacket, func(Event) uint64 { return 400 })
	c.Start()
	for _, ev := range posts {
		c.Post(ev)
	}
	eng.RunUntil(sim.Microsecond)
	return c
}

func freshCore() *Core { return NewCore(sim.New(1), DefaultConfig()) }

// TestCoreSnapRoundTrip pins the one-description contract for the core:
// encode(x) decoded into a freshly built y re-encodes to the same bytes,
// consuming the image exactly.
func TestCoreSnapRoundTrip(t *testing.T) {
	pkt := packet.NewMCPayload(0xbeef, 7)
	pkt.Hops, pkt.EmergencyHops, pkt.Emergency = 3, 1, packet.EmSecondLeg
	for name, src := range map[string]*Core{
		"idle": freshCore(),
		"backlog": busyCore(
			Event{Type: EvPacket, Pkt: pkt},
			Event{Type: EvPacket, Pkt: packet.NewP2P(0x0102, 0x0304, 9)},
			Event{Type: EvDMADone, Tag: 42},
			Event{Type: EvTimer, Tick: 17},
			Event{Type: EvDMADone, Tag: 43},
		),
	} {
		t.Run(name, func(t *testing.T) {
			if name == "backlog" && src.Backlog() < 3 {
				t.Fatalf("backlog case holds %d queued events", src.Backlog())
			}
			enc := snap.NewEncoder()
			src.Snap(enc)
			dec := snap.NewDecoder(enc.Bytes())
			dst := freshCore()
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
				t.Fatal("decoded core re-encodes differently")
			}
			if dst.Backlog() != src.Backlog() || dst.Instructions != src.Instructions {
				t.Fatalf("backlog %d/%d instructions %d/%d", dst.Backlog(), src.Backlog(), dst.Instructions, src.Instructions)
			}
		})
	}
}

// TestCoreSnapRejectsBadImage: an event type past the enumeration (it
// would index EventCounts at dispatch) and a truncated image are errors.
func TestCoreSnapRejectsBadImage(t *testing.T) {
	enc := snap.NewEncoder()
	busyCore(Event{Type: EvPacket}, Event{Type: EvPacket}).Snap(enc)
	image := enc.Bytes()
	// Byte 4 follows the packet queue's length prefix: the first queued
	// event's type.
	bad := bytes.Clone(image)
	bad[4] = uint8(numEventTypes)
	for name, b := range map[string][]byte{"event type": bad, "truncated": image[:len(image)-3]} {
		dec := snap.NewDecoder(b)
		freshCore().Snap(dec)
		if dec.Err() == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}
