package router

import (
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/topo"
)

// TestDropRegisterHoldsFirst pins the dropped-packet register: the first
// drop into an empty register is kept, later drops are counted (and
// interrupt the monitor) but not stored, ReadDropped clears the register,
// and the next drop fills it again.
func TestDropRegisterHoldsFirst(t *testing.T) {
	_, f := newTestFabric(t, 4, 4)
	interrupts := 0
	f.OnDrop = func(*Node) { interrupts++ }
	n := f.Node(topo.Coord{X: 1, Y: 1})
	if _, ok := n.ReadDropped(); ok {
		t.Fatal("a fresh register reads full")
	}
	n.drop(flit{pkt: packet.NewMC(1)}, topo.East, false)
	n.drop(flit{pkt: packet.NewMC(2)}, topo.North, false)
	n.drop(flit{pkt: packet.NewMC(3)}, 0, true)
	if n.dropped != 3 || n.DropNotices != 3 || interrupts != 3 || f.DroppedPackets() != 3 {
		t.Fatalf("dropped %d, notices %d, interrupts %d, fabric %d; want 3 each",
			n.dropped, n.DropNotices, interrupts, f.DroppedPackets())
	}
	want := DroppedPacket{Pkt: packet.NewMC(1), Dir: topo.East}
	if dp, ok := n.ReadDropped(); !ok || dp != want {
		t.Fatalf("register holds %+v (full %v), want the first drop %+v", dp, ok, want)
	}
	if dp, ok := n.ReadDropped(); ok {
		t.Fatalf("register still holds %+v after a read", dp)
	}
	n.drop(flit{pkt: packet.NewMC(4)}, 0, true)
	want = DroppedPacket{Pkt: packet.NewMC(4), Aged: true}
	if dp, ok := n.ReadDropped(); !ok || dp != want {
		t.Fatalf("register holds %+v (full %v) after a read and a drop, want %+v", dp, ok, want)
	}
	if n.dropped != 4 {
		t.Fatalf("dropped %d, want 4", n.dropped)
	}
}

// TestReinjectDropped: ReinjectDropped re-issues the register's packet
// onto its link, discards an aged one, and re-issues nothing from an
// empty register.
func TestReinjectDropped(t *testing.T) {
	eng, f := newTestFabric(t, 8, 8)
	src, dst := topo.Coord{X: 0, Y: 0}, topo.Coord{X: 2, Y: 0}
	installLine(f, 0xaa, src, dst, 0)
	n := f.Node(src)
	if got := n.ReinjectDropped(); got != 0 {
		t.Fatalf("an empty register re-issued %d packets", got)
	}
	n.drop(flit{pkt: packet.NewMC(0xaa)}, 0, true)
	if got := n.ReinjectDropped(); got != 0 {
		t.Fatalf("an aged packet was re-issued (%d)", got)
	}
	n.drop(flit{pkt: packet.NewMC(0xaa)}, topo.East, false)
	if got := n.ReinjectDropped(); got != 1 {
		t.Fatalf("ReinjectDropped = %d, want 1", got)
	}
	eng.Run()
	if f.DeliveredMC() != 1 {
		t.Fatalf("delivered %d re-issued packets, want 1", f.DeliveredMC())
	}
}
