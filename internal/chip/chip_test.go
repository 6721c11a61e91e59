package chip

import (
	"testing"
	"testing/quick"

	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

func TestArbiterGrantsExactlyOnce(t *testing.T) {
	var a ArbiterRegister
	grants := 0
	for i := 0; i < 100; i++ {
		if a.Read() {
			grants++
		}
	}
	if grants != 1 {
		t.Errorf("grants = %d, want exactly 1", grants)
	}
}

func TestElectMonitorUnique(t *testing.T) {
	eng := sim.New(1)
	rng := eng.RNG()
	for trial := 0; trial < 200; trial++ {
		ch := New(eng, topo.Coord{}, CoresPerChip, nil)
		id, err := ch.ElectMonitor(rng)
		if err != nil {
			t.Fatal(err)
		}
		monitors := 0
		for _, c := range ch.Cores {
			if c.State == CoreMonitor {
				monitors++
				if c.ID != id {
					t.Errorf("reported winner %d but core %d is monitor", id, c.ID)
				}
			}
		}
		if monitors != 1 {
			t.Fatalf("trial %d: %d monitors, want 1", trial, monitors)
		}
	}
}

func TestElectMonitorWithFailedCores(t *testing.T) {
	// E8: the monitor choice is not fixed in hardware precisely so that
	// failed cores never become monitor.
	eng := sim.New(7)
	rng := eng.RNG()
	for failed := 0; failed < CoresPerChip; failed++ {
		ch := New(eng, topo.Coord{}, CoresPerChip, nil)
		for i := 0; i < failed; i++ {
			ch.Cores[i].InjectedFault = true
		}
		id, err := ch.ElectMonitor(rng)
		if err != nil {
			t.Fatalf("failed=%d: %v", failed, err)
		}
		if id < failed {
			t.Errorf("failed=%d: faulty core %d elected monitor", failed, id)
		}
	}
}

func TestElectMonitorAllFailed(t *testing.T) {
	eng := sim.New(7)
	ch := New(eng, topo.Coord{}, 4, nil)
	for _, c := range ch.Cores {
		c.InjectedFault = true
	}
	if _, err := ch.ElectMonitor(eng.RNG()); err == nil {
		t.Error("election succeeded with all cores failed")
	}
}

func TestMonitorElectionIsUniform(t *testing.T) {
	// Any healthy core can win: over many trials every core should win
	// at least occasionally (fault-tolerance depends on this).
	eng := sim.New(3)
	rng := eng.RNG()
	wins := make([]int, 10)
	for trial := 0; trial < 2000; trial++ {
		ch := New(eng, topo.Coord{}, 10, nil)
		id, err := ch.ElectMonitor(rng)
		if err != nil {
			t.Fatal(err)
		}
		wins[id]++
	}
	for id, w := range wins {
		if w == 0 {
			t.Errorf("core %d never won the election in 2000 trials", id)
		}
	}
}

func TestAssignApplications(t *testing.T) {
	eng := sim.New(1)
	ch := New(eng, topo.Coord{}, CoresPerChip, nil)
	ch.Cores[3].InjectedFault = true
	if _, err := ch.ElectMonitor(eng.RNG()); err != nil {
		t.Fatal(err)
	}
	n := ch.AssignApplications()
	// 20 cores - 1 failed - 1 monitor = 18 application cores.
	if n != 18 {
		t.Errorf("application cores = %d, want 18", n)
	}
	if got := len(ch.ApplicationCores()); got != 18 {
		t.Errorf("ApplicationCores() = %d", got)
	}
}

func TestElectionUniquenessProperty(t *testing.T) {
	f := func(seed uint64, faultMask uint32) bool {
		eng := sim.New(seed)
		ch := New(eng, topo.Coord{}, CoresPerChip, nil)
		healthy := 0
		for i, c := range ch.Cores {
			if faultMask&(1<<uint(i)) != 0 {
				c.InjectedFault = true
			} else {
				healthy++
			}
		}
		id, err := ch.ElectMonitor(eng.RNG())
		if healthy == 0 {
			return err != nil
		}
		if err != nil {
			return false
		}
		monitors := 0
		for _, c := range ch.Cores {
			if c.State == CoreMonitor {
				monitors++
			}
		}
		return monitors == 1 && ch.Cores[id].State == CoreMonitor && !ch.Cores[id].InjectedFault
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with 0 cores did not panic")
		}
	}()
	New(sim.New(1), topo.Coord{}, 0, nil)
}
