package router

import (
	"slices"
	"strings"
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// TestRetryParamsValidated: a retry grid with no spacing re-armed the
// attempt at the same instant for ever, and negative emergency windows
// or ones overflowing the clock make no grid at all; build rejects them,
// naming the field, on both constructors.
func TestRetryParamsValidated(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(p *Params)
	}{
		{"RetryInterval", func(p *Params) { p.RetryInterval = 0 }},
		{"RetryInterval", func(p *Params) { p.RetryInterval = -sim.Nanosecond }},
		{"EmergencyWait", func(p *Params) { p.EmergencyWait = -sim.Nanosecond }},
		{"EmergencyTry", func(p *Params) { p.EmergencyTry = -sim.Microsecond }},
		{"overflows", func(p *Params) { p.EmergencyWait, p.EmergencyTry = sim.Forever/2, sim.Forever/2 }},
	} {
		p := DefaultParams(4, 4)
		c.set(&p)
		if _, err := NewFabric(sim.New(1), p); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("NewFabric with %s broken: error %v, want one naming it", c.field, err)
		}
		part := tiled(t, p, 0, 2)
		pe := sim.NewParallel(1, part.Shards(), part.Shards())
		pe.SetLookahead(p.LookaheadFor(part))
		if _, err := NewShardedFabric(pe, part, p); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("NewShardedFabric with %s broken: error %v, want one naming it", c.field, err)
		}
		pe.Close()
	}
}

// blockedLine is the fabric of the wait tests: keys 0xaa and 0xab,
// injected at the returned node (1,0), run east to core 0 of (3,0), and
// the east link out of (1,0) has failed — with its detour's first leg
// too when detourFailed. Packets injected together block together.
func blockedLine(t testing.TB, p Params, detourFailed bool) (*sim.Engine, *Fabric, *Node) {
	t.Helper()
	eng := sim.New(1)
	f, err := NewFabric(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	blocked, dst := topo.Coord{X: 1, Y: 0}, topo.Coord{X: 3, Y: 0}
	installLine(f, 0xaa, blocked, dst, 0)
	installLine(f, 0xab, blocked, dst, 0)
	f.FailLink(blocked, topo.East)
	if detourFailed {
		first, _ := topo.East.Emergency()
		f.FailLink(blocked, first)
	}
	return eng, f, f.Node(blocked)
}

// untilAsleep steps eng until n holds want sleepers and returns the
// instant they blocked at.
func untilAsleep(t *testing.T, eng *sim.Engine, n *Node, want int) sim.Time {
	t.Helper()
	for len(n.sleepers) < want {
		if !eng.Step() {
			t.Fatalf("the engine drained with %d sleepers, want %d", len(n.sleepers), want)
		}
	}
	return eng.Now()
}

// TestFailedLinkWaitEvents pins what a packet blocked on a failed link
// costs: its wait is one retry event, due at the first attempt whose
// outcome can differ — the first grid point in the emergency window
// when the detour is open, the drop otherwise — where polling paid one
// every RetryInterval.
func TestFailedLinkWaitEvents(t *testing.T) {
	noEmergency := DefaultParams(8, 8)
	noEmergency.EmergencyEnabled = false
	offGrid := DefaultParams(8, 8)
	offGrid.EmergencyWait, offGrid.EmergencyTry = 1100*sim.Nanosecond, 3*sim.Microsecond
	for _, c := range []struct {
		name         string
		p            Params
		detourFailed bool
		wake         sim.Time // from the block
		delivered    bool
		events       uint64 // the route event, the one retry, the arrivals
	}{
		{"detour", DefaultParams(8, 8), false, sim.Microsecond, true, 5},
		{"detour failed", DefaultParams(8, 8), true, 5 * sim.Microsecond, false, 2},
		{"emergency routing off", noEmergency, false, 5 * sim.Microsecond, false, 2},
		{"detour off the grid", offGrid, false, 1250 * sim.Nanosecond, true, 5},
		{"drop off the grid", offGrid, true, 4250 * sim.Nanosecond, false, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, f, n := blockedLine(t, c.p, c.detourFailed)
			var doneAt sim.Time
			f.OnDeliverMC = func(*Node, int, packet.Packet, sim.Time) { doneAt = eng.Now() }
			f.OnDrop = func(*Node) { doneAt = eng.Now() }
			f.InjectMC(n.Coord, packet.NewMC(0xaa))
			t0 := untilAsleep(t, eng, n, 1)
			if p := n.sleepers[0]; p.t0 != t0 || p.at != t0+c.wake {
				t.Fatalf("blocked at %v, asleep until %v; want %v", p.t0, p.at, t0+c.wake)
			}
			eng.Run()
			if got := f.DeliveredMC() == 1; got != c.delivered || f.DroppedPackets()+f.DeliveredMC() != 1 {
				t.Fatalf("delivered %d, dropped %d", f.DeliveredMC(), f.DroppedPackets())
			}
			if !c.delivered && doneAt != t0+c.wake {
				t.Errorf("dropped at %v, want %v", doneAt, t0+c.wake)
			}
			if eng.Processed() != c.events {
				t.Errorf("the packet took %d events, want %d", eng.Processed(), c.events)
			}
			if len(n.sleepers) != 0 {
				t.Errorf("%d sleepers left after the wait", len(n.sleepers))
			}
		})
	}
}

// TestRepairWakesSleepers pins the wake: a repair of any of a chip's
// links, direct or committed, moves its sleepers to their first grid
// point strictly after the repair instant, in pending key order however
// the list lies; a repair that brings nothing back moves nobody; and a
// sleeper rebuilt by the kind constructor wakes like the one it was
// taken from.
func TestRepairWakesSleepers(t *testing.T) {
	first, _ := topo.East.Emergency()
	for _, c := range []struct {
		name   string
		after  sim.Time // from the block to the repair
		repair func(f *Fabric, at topo.Coord)
		wake   sim.Time // from the block
	}{
		{"off the grid", 1300 * sim.Nanosecond, func(f *Fabric, at topo.Coord) { f.RepairLink(at, topo.East) }, 1500 * sim.Nanosecond},
		{"on the grid", 2 * sim.Microsecond, func(f *Fabric, at topo.Coord) { f.RepairLink(at, topo.East) }, 2250 * sim.Nanosecond},
		{"committed", 300 * sim.Nanosecond, func(f *Fabric, at topo.Coord) {
			f.DeferRepairLink(at, topo.East)
			if !f.CommitRepairs() {
				t.Fatal("CommitRepairs brought no link back")
			}
		}, 500 * sim.Nanosecond},
		{"the detour's leg", 100 * sim.Nanosecond, func(f *Fabric, at topo.Coord) { f.RepairLink(at, first) }, 250 * sim.Nanosecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, f, n := blockedLine(t, DefaultParams(8, 8), true)
			var order []uint32
			f.OnDeliverMC = func(_ *Node, _ int, pkt packet.Packet, _ sim.Time) { order = append(order, pkt.Key) }
			f.InjectMC(n.Coord, packet.NewMC(0xaa))
			f.InjectMC(n.Coord, packet.NewMC(0xab))
			t0 := untilAsleep(t, eng, n, 2)
			eng.RunUntil(t0 + c.after)
			slices.Reverse(n.sleepers) // wake sorts by key, not by list position
			c.repair(f, n.Coord)
			for _, p := range n.sleepers {
				if p.at != t0+c.wake {
					t.Fatalf("sleeper woken to %v, want %v", p.at, t0+c.wake)
				}
			}
			eng.Run()
			if f.DeliveredMC() != 2 || !slices.Equal(order, []uint32{0xaa, 0xab}) {
				t.Fatalf("delivered %#x, want 0xaa then 0xab", order)
			}
		})
	}

	t.Run("nothing back", func(t *testing.T) {
		eng, f, n := blockedLine(t, DefaultParams(8, 8), true)
		f.InjectMC(n.Coord, packet.NewMC(0xaa))
		t0 := untilAsleep(t, eng, n, 1)
		p := n.sleepers[0]
		seq := p.seq
		f.RepairLink(n.Coord, topo.North) // never failed
		f.DeferRepairLink(n.Coord, topo.North)
		f.CommitRepairs()
		if p.at != t0+5*sim.Microsecond || p.seq != seq {
			t.Fatalf("a repair bringing nothing back moved a sleeper to %v (key %d, was %d)", p.at, p.seq, seq)
		}
	})

	t.Run("restored", func(t *testing.T) {
		eng, f, n := blockedLine(t, DefaultParams(8, 8), true)
		f.InjectMC(n.Coord, packet.NewMC(0xaa))
		t0 := untilAsleep(t, eng, n, 1)
		old := n.sleepers[0]
		rec := sim.EventRecord{At: old.at, Domain: int32(n.Index()), K1: old.seq, Desc: *old.EventDesc()}
		if !n.dom.Cancel(old) {
			t.Fatal("the sleeper was not pending")
		}
		ev, err := f.EventKinds()[KindRetry](&rec)
		if err != nil {
			t.Fatal(err)
		}
		n.dom.Inject(rec.At, 0, rec.K1, 0, ev)
		eng.RunUntil(t0 + 600*sim.Nanosecond)
		f.RepairLink(n.Coord, topo.East)
		// The cancelled original is no longer pending and leaves the list.
		if len(n.sleepers) != 1 || n.sleepers[0] != ev || n.sleepers[0].at != t0+750*sim.Nanosecond {
			t.Fatalf("after the repair %d sleepers, want the rebuilt one woken to %v", len(n.sleepers), t0+750*sim.Nanosecond)
		}
		eng.Run()
		if f.DeliveredMC() != 1 || f.DroppedPackets() != 0 {
			t.Fatalf("delivered %d, dropped %d; want the woken packet delivered", f.DeliveredMC(), f.DroppedPackets())
		}
	})
}

// BenchmarkFailedLinkWait drives a stream of packets into a failed link
// and reports the cost of each, in ns and in events (its route and
// arrival events included, the injecting stream event not): one case
// detours, the other waits out its drop behind a failed detour.
func BenchmarkFailedLinkWait(b *testing.B) {
	for _, c := range []struct {
		name         string
		detourFailed bool
	}{{"detour", false}, {"drop", true}} {
		b.Run(c.name, func(b *testing.B) {
			eng, f, n := blockedLine(b, DefaultParams(8, 8), c.detourFailed)
			s := &stream{f: f, c: n.Coord, key: 0xaa}
			b.ReportAllocs()
			b.ResetTimer()
			eng.RunUntil(eng.Now() + s.start(b.N))
			b.ReportMetric(float64(eng.Processed()-uint64(b.N))/float64(b.N), "events/packet")
			if f.DeliveredMC()+f.DroppedPackets() != uint64(b.N) {
				b.Fatalf("delivered %d and dropped %d of %d packets", f.DeliveredMC(), f.DroppedPackets(), b.N)
			}
		})
	}
}
