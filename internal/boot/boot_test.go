package boot

import (
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

func newBoot(t *testing.T, w, h int, cfg Config) (*sim.Engine, *Controller) {
	t.Helper()
	eng := sim.New(1)
	fab, err := router.NewFabric(eng, router.DefaultParams(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return eng, NewController(eng, fab, cfg)
}

func TestCleanBoot(t *testing.T) {
	_, c := newBoot(t, 6, 6, DefaultConfig())
	res := c.Run()
	if res.BootedLocally != 36 {
		t.Errorf("booted = %d, want 36", res.BootedLocally)
	}
	if !res.CoordCorrect {
		t.Error("coordinate flood produced wrong coordinates")
	}
	if res.P2PReady != 36 {
		t.Errorf("p2p ready = %d, want 36", res.P2PReady)
	}
	if len(res.Monitors) != 36 {
		t.Errorf("monitors = %d", len(res.Monitors))
	}
}

func TestDeadChipRescue(t *testing.T) {
	cfg := DefaultConfig()
	dead := topo.Coord{X: 2, Y: 2}
	cfg.DeadChips = map[topo.Coord]bool{dead: true}
	_, c := newBoot(t, 5, 5, cfg)
	res := c.Run()
	if !c.Alive(dead) {
		t.Fatal("dead chip was not rescued by its neighbours")
	}
	if !c.Rescued(dead) {
		t.Error("rescue not recorded")
	}
	if res.Rescued != 1 {
		t.Errorf("rescued = %d, want 1", res.Rescued)
	}
	if !res.CoordCorrect {
		t.Error("coordinates wrong after rescue")
	}
}

func TestHardDeadChipStaysDown(t *testing.T) {
	cfg := DefaultConfig()
	dead := topo.Coord{X: 1, Y: 1}
	cfg.HardDeadChips = map[topo.Coord]bool{dead: true}
	_, c := newBoot(t, 4, 4, cfg)
	res := c.Run()
	if c.Alive(dead) {
		t.Error("hard-dead chip came alive")
	}
	if res.DeadForever != 1 {
		t.Errorf("dead forever = %d, want 1", res.DeadForever)
	}
	// The rest of the machine still boots around the hole.
	if res.P2PReady != 15 {
		t.Errorf("p2p ready = %d, want 15", res.P2PReady)
	}
}

func TestCoreFaultsToleratedInElection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CoreFaultProb = 0.3
	_, c := newBoot(t, 6, 6, cfg)
	res := c.Run()
	// With p=0.3 and 20 cores, P(all fail) ~ 3e-11: all chips boot.
	if res.BootedLocally != 36 {
		t.Errorf("booted = %d, want 36", res.BootedLocally)
	}
	// Elected monitors must be healthy cores.
	for coord, id := range res.Monitors {
		ch := c.Chip(coord)
		if ch.Cores[id].InjectedFault {
			t.Errorf("chip %v elected faulty core %d", coord, id)
		}
	}
}

func TestNNTrafficAccounted(t *testing.T) {
	_, c := newBoot(t, 4, 4, DefaultConfig())
	res := c.Run()
	if res.NNPackets == 0 {
		t.Error("no nn packets counted")
	}
}

func TestBootConfiguresP2PTables(t *testing.T) {
	// After boot, every alive node routes p2p; before, none do.
	eng := sim.New(1)
	fab, err := router.NewFabric(eng, router.DefaultParams(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range fab.Nodes() {
		if n.P2PConfigured() {
			t.Fatal("node configured before boot")
		}
	}
	c := NewController(eng, fab, DefaultConfig())
	c.Run()
	for _, n := range fab.Nodes() {
		if !n.P2PConfigured() {
			t.Errorf("node %v not p2p-configured after boot", n.Coord)
		}
	}
	// And the host side genuinely works machine-wide.
	delivered := 0
	fab.OnDeliverP2P = func(*router.Node, packet.Packet, sim.Time) { delivered++ }
	fab.InjectP2P(topo.Coord{X: 0, Y: 0}, topo.Coord{X: 4, Y: 3}, 9)
	eng.Run()
	if delivered != 1 {
		t.Errorf("p2p delivered %d, want 1", delivered)
	}
}

// TestOffTorusChipPanics: per-chip state is indexed by torus index, so a
// coordinate off the torus must fail loudly, not read the chip it would
// wrap to.
func TestOffTorusChipPanics(t *testing.T) {
	_, c := newBoot(t, 3, 3, DefaultConfig())
	c.Run()
	for _, at := range []topo.Coord{{X: 3, Y: 0}, {X: 0, Y: 3}, {X: -1, Y: 1}, {X: 1, Y: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Alive(%v) on a 3x3 torus did not panic", at)
				}
			}()
			c.Alive(at)
		}()
	}
}
