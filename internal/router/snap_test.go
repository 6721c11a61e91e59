package router

import (
	"bytes"
	"fmt"
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/sim"
	"spinngo/internal/snap"
	"spinngo/internal/topo"
)

// congestedNode floods one link through two-deep queues behind a failed
// link and stops mid-storm: the returned node holds queued flits, a
// failed and a draining link, a full dropped-packet register and
// non-zero tallies.
func congestedNode(t *testing.T) *Node {
	t.Helper()
	eng := sim.New(1)
	p := DefaultParams(6, 6)
	p.LinkQueueDepth = 2
	f, err := NewFabric(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	km := packet.KeyMask{Key: 5, Mask: 0xffffffff}
	f.Node(topo.Coord{X: 3, Y: 3}).Table.Add(Entry{km, CoreRoute(0)})
	for x := 0; x < 3; x++ {
		f.Node(topo.Coord{X: x, Y: 3}).Table.Add(Entry{km, LinkRoute(topo.East)})
	}
	at := topo.Coord{X: 0, Y: 3}
	first, _ := topo.East.Emergency()
	f.FailLink(at, first)
	for i := 0; i < 200; i++ {
		f.InjectMC(at, packet.NewMC(5))
	}
	n := f.Node(at)
	for step := 0; !n.dropFull || len(n.out[topo.East].queue) == 0; step++ {
		if step == 10000 {
			t.Fatalf("no congestion: %d dropped, %d queued", n.dropped, len(n.out[topo.East].queue))
		}
		eng.RunUntil(eng.Now() + 100*sim.Nanosecond)
	}
	return n
}

func freshNode(t *testing.T) *Node {
	t.Helper()
	f, err := NewFabric(sim.New(1), DefaultParams(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	return f.Node(topo.Coord{X: 0, Y: 3})
}

// TestNodeSnapRoundTrip pins the one-description contract for the
// fabric: a node's encode(x) decoded into a freshly built y re-encodes
// to the same bytes, consuming the image exactly, and so does a flit
// through its event-descriptor blob.
func TestNodeSnapRoundTrip(t *testing.T) {
	for name, src := range map[string]*Node{"idle": freshNode(t), "congested": congestedNode(t)} {
		t.Run(name, func(t *testing.T) {
			enc := snap.NewEncoder()
			src.Snap(enc)
			dec := snap.NewDecoder(enc.Bytes())
			dst := freshNode(t)
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
				t.Fatal("decoded node re-encodes differently")
			}
		})
	}

	pkt := packet.NewMCPayload(0xfeed, 3)
	pkt.Hops, pkt.EmergencyHops, pkt.Emergency, pkt.Timestamp = 9, 2, packet.EmFirstLeg, 3
	fl := flit{pkt: pkt, injectedAt: 1234 * sim.Nanosecond}
	blob := flitBlob(fl)
	if got, err := flitFromBlob(blob); err != nil || got != fl {
		t.Fatalf("flit blob round trip = %+v, %v", got, err)
	}
	for name, b := range map[string][]byte{"truncated": blob[:len(blob)-1], "trailing": append(bytes.Clone(blob), 0)} {
		if _, err := flitFromBlob(b); err == nil {
			t.Errorf("%s flit blob decoded without error", name)
		}
	}
}

// TestNodeSnapRejectsBadImage: a dropped-packet direction past the six
// links (Reinject would index the output links by it) and an image cut
// short anywhere — inside the register included — are errors, never
// panics.
func TestNodeSnapRejectsBadImage(t *testing.T) {
	enc := snap.NewEncoder()
	congestedNode(t).Snap(enc)
	image := enc.Bytes()
	// Four 8-byte counters, the register's full flag and its 32-byte
	// packet precede the register's direction.
	const flag, dir = 4 * 8, 4*8 + 1 + 32
	if image[flag] != 1 {
		t.Fatalf("register flag byte reads %d, want a full register", image[flag])
	}
	bad := bytes.Clone(image)
	bad[dir] = uint8(topo.NumDirs)
	cases := map[string][]byte{"direction": bad}
	for _, cut := range []int{flag + 1, flag + 9, dir, dir + 1, len(image) - 5} {
		cases[fmt.Sprintf("cut at %d", cut)] = image[:cut:cut]
	}
	for name, b := range cases {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: decode panicked: %v", name, p)
				}
			}()
			dec := snap.NewDecoder(b)
			freshNode(t).Snap(dec)
			if dec.Err() == nil {
				t.Errorf("%s: decode succeeded", name)
			}
		}()
	}
}
