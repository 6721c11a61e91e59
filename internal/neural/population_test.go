package neural

import (
	"bytes"
	"fmt"
	"testing"

	"spinngo/internal/sim"
	"spinngo/internal/snap"
)

func newLIFPopulation(n int) *Population {
	return NewPopulation(n, MaxSynDelay, func(int) Neuron { return NewLIF(DefaultLIF()) })
}

func TestPopulationBiasDrivesFiring(t *testing.T) {
	p := newLIFPopulation(10)
	p.Bias = F(1.0)
	var spikes int
	p.OnSpike = func(int) { spikes++ }
	for tick := 0; tick < 500; tick++ {
		p.StepTick()
	}
	if spikes == 0 {
		t.Fatal("no spikes with strong bias")
	}
	if p.Rec.Total() != spikes {
		t.Errorf("recorder total %d != callback count %d", p.Rec.Total(), spikes)
	}
}

func TestPopulationRowDelivery(t *testing.T) {
	// One strong row targeting neuron 3 with delay 2: neuron 3 must be
	// the only one influenced, exactly 2 ticks later.
	p := newLIFPopulation(8)
	row := Row{MakeSynWord(65535, 2, false, 3)} // huge weight
	p.Matrix.AddRow(0xabc, row, false)
	r, _, _, ok := p.Matrix.Lookup(0xabc)
	if !ok {
		t.Fatal("row missing")
	}
	p.ProcessRow(r)
	fired := map[int]bool{}
	p.OnSpike = func(i int) { fired[i] = true }
	p.StepTick() // tick 1: nothing yet
	if len(fired) != 0 {
		t.Fatal("input arrived a tick early")
	}
	p.StepTick() // tick 2: the deposit lands
	if !fired[3] {
		t.Error("neuron 3 did not fire on its delayed input")
	}
	for i := range fired {
		if i != 3 {
			t.Errorf("neuron %d fired spuriously", i)
		}
	}
}

func TestPopulationKillNeuron(t *testing.T) {
	p := newLIFPopulation(4)
	p.Bias = F(2)
	if err := p.KillNeuron(1); err != nil {
		t.Fatal(err)
	}
	if err := p.KillNeuron(99); err == nil {
		t.Error("killing nonexistent neuron succeeded")
	}
	fired := map[int]bool{}
	p.OnSpike = func(i int) { fired[i] = true }
	for tick := 0; tick < 200; tick++ {
		p.StepTick()
	}
	if fired[1] {
		t.Error("dead neuron fired")
	}
	if !fired[0] || !fired[2] || !fired[3] {
		t.Error("surviving neurons should fire")
	}
}

func TestPopulationCostAccounting(t *testing.T) {
	p := newLIFPopulation(100)
	quiet := p.StepTick()
	p.Bias = F(5)
	// Drive everything to fire; the busiest tick must exceed the quiet
	// tick (refractory periods make firing periodic, so take the max).
	var busy uint64
	for tick := 0; tick < 50; tick++ {
		if c := p.StepTick(); c > busy {
			busy = c
		}
	}
	if busy <= quiet {
		t.Errorf("busiest firing tick cost %d <= quiet cost %d", busy, quiet)
	}
}

func TestPoissonSourceRate(t *testing.T) {
	rng := sim.NewRNG(5)
	src := NewPoissonSource(rng, 100, 50) // 100 trains at 50 Hz
	total := 0
	const ticks = 2000
	for i := 0; i < ticks; i++ {
		total += len(src.Tick())
	}
	// Expect 100 * 50 Hz * 2 s = 10000 spikes, +/- 10%.
	if total < 9000 || total > 11000 {
		t.Errorf("Poisson total = %d, want ~10000", total)
	}
}

func TestRecorderRate(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 50; i++ {
		r.Record(uint64(i), 0)
	}
	if got := r.Rate(0, 1000); got != 50 {
		t.Errorf("rate = %g Hz, want 50", got)
	}
	if got := r.Rate(1, 1000); got != 0 {
		t.Errorf("silent neuron rate = %g", got)
	}
	if r.Count(0) != 50 {
		t.Errorf("Count = %d", r.Count(0))
	}
}

func TestPopulationTickCounter(t *testing.T) {
	p := newLIFPopulation(1)
	for i := 0; i < 7; i++ {
		p.StepTick()
	}
	if p.Tick() != 7 {
		t.Errorf("Tick = %d, want 7", p.Tick())
	}
	if p.Size() != 1 {
		t.Errorf("Size = %d", p.Size())
	}
}

// TestChunkedSoAMatchesInterfaceAcrossSizes pins the SIMD-width chunked
// stepping paths bit-exact against the interface models: population
// sizes off the 8-lane grid exercise the scalar tail, and a mid-run
// KillNeuron flips the population from the chunked path to the scalar
// dead-slot fallback at a tick boundary — costs, membrane trajectories
// and rasters must be identical throughout.
func TestChunkedSoAMatchesInterfaceAcrossSizes(t *testing.T) {
	const ticks = 240
	for _, n := range []int{1, 7, 8, 9, 16, 33} {
		build := []struct {
			name     string
			soa, ref *Population
		}{
			{"lif",
				NewLIFPopulation(n, MaxSynDelay, DefaultLIF()),
				NewPopulation(n, MaxSynDelay, func(int) Neuron { return NewLIF(DefaultLIF()) })},
			{"izh",
				NewIzhikevichPopulation(n, MaxSynDelay, RegularSpiking()),
				NewPopulation(n, MaxSynDelay, func(int) Neuron { return NewIzhikevich(RegularSpiking()) })},
		}
		for _, c := range build {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				c.soa.Bias = F(0.4)
				c.ref.Bias = F(0.4)
				if c.soa.Dead() != 0 {
					t.Fatalf("fresh SoA population reports %d dead slots", c.soa.Dead())
				}
				dead := -1
				rng := sim.NewRNG(7)
				for tick := 0; tick < ticks; tick++ {
					if tick == ticks/2 && n > 1 {
						// Kill one neuron mid-run: the chunked fast path
						// must hand over to the scalar fallback without a
						// trajectory blip on the survivors.
						dead = n / 2
						if err := c.soa.KillNeuron(dead); err != nil {
							t.Fatal(err)
						}
						if err := c.ref.KillNeuron(dead); err != nil {
							t.Fatal(err)
						}
						if c.soa.Dead() != 1 {
							t.Fatalf("Dead() = %d after one kill", c.soa.Dead())
						}
					}
					for dep := 0; dep < 4; dep++ {
						tgt := rng.Intn(n)
						delay := rng.Intn(MaxSynDelay)
						w := Fix(rng.Intn(1 << 18))
						c.soa.Ring.Deposit(delay, tgt, w)
						c.ref.Ring.Deposit(delay, tgt, w)
					}
					if cs, cr := c.soa.StepTick(), c.ref.StepTick(); cs != cr {
						t.Fatalf("tick %d: SoA cost %d != interface cost %d", tick, cs, cr)
					}
					for i := 0; i < n; i++ {
						if i == dead {
							continue
						}
						if vs, vr := c.soa.Neurons[i].V(), c.ref.Neurons[i].V(); vs != vr {
							t.Fatalf("tick %d neuron %d: SoA v=%v, interface v=%v", tick, i, vs, vr)
						}
					}
				}
				ss, rs := c.soa.Rec.Spikes(), c.ref.Rec.Spikes()
				if len(ss) != len(rs) {
					t.Fatalf("SoA recorded %d spikes, interface %d", len(ss), len(rs))
				}
				for i := range ss {
					if ss[i] != rs[i] {
						t.Fatalf("spike %d: SoA %+v, interface %+v", i, ss[i], rs[i])
					}
				}
			})
		}
	}
}

// TestSoAMatchesInterfaceStepping is the bit-exactness contract of the
// structure-of-arrays layout: a LIF and an Izhikevich population built
// through the SoA constructors must produce the identical spike raster,
// membrane trajectories and instruction costs as the same neurons
// stepped one by one through the Neuron interface, under a shared
// pseudo-random input drive. (The up-front kill keeps this case on the
// scalar dead-slot fallback; the chunked path has its own differential
// test above.)
func TestSoAMatchesInterfaceStepping(t *testing.T) {
	const n, ticks = 32, 400
	cases := []struct {
		name     string
		soa, ref *Population
	}{
		{"lif",
			NewLIFPopulation(n, MaxSynDelay, DefaultLIF()),
			NewPopulation(n, MaxSynDelay, func(int) Neuron { return NewLIF(DefaultLIF()) })},
		{"izh",
			NewIzhikevichPopulation(n, MaxSynDelay, RegularSpiking()),
			NewPopulation(n, MaxSynDelay, func(int) Neuron { return NewIzhikevich(RegularSpiking()) })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.soa.Bias = F(0.4)
			c.ref.Bias = F(0.4)
			// A killed neuron exercises the dead-slot path on both layouts.
			if err := c.soa.KillNeuron(5); err != nil {
				t.Fatal(err)
			}
			if err := c.ref.KillNeuron(5); err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(99)
			for tick := 0; tick < ticks; tick++ {
				for dep := 0; dep < 4; dep++ {
					tgt := rng.Intn(n)
					delay := rng.Intn(MaxSynDelay)
					w := Fix(rng.Intn(1 << 18))
					c.soa.Ring.Deposit(delay, tgt, w)
					c.ref.Ring.Deposit(delay, tgt, w)
				}
				if cs, cr := c.soa.StepTick(), c.ref.StepTick(); cs != cr {
					t.Fatalf("tick %d: SoA cost %d != interface cost %d", tick, cs, cr)
				}
				for i := 0; i < n; i++ {
					if i == 5 {
						continue
					}
					if vs, vr := c.soa.Neurons[i].V(), c.ref.Neurons[i].V(); vs != vr {
						t.Fatalf("tick %d neuron %d: SoA v=%v, interface v=%v", tick, i, vs, vr)
					}
				}
			}
			ss, rs := c.soa.Rec.Spikes(), c.ref.Rec.Spikes()
			if len(ss) != len(rs) {
				t.Fatalf("SoA recorded %d spikes, interface %d", len(ss), len(rs))
			}
			for i := range ss {
				if ss[i] != rs[i] {
					t.Fatalf("spike %d: SoA %+v, interface %+v", i, ss[i], rs[i])
				}
			}
			// The exported state words must be layout-blind too.
			for i := 0; i < n; i++ {
				sn, rn := c.soa.Neurons[i], c.ref.Neurons[i]
				if sn == nil || rn == nil {
					if (sn == nil) != (rn == nil) {
						t.Fatalf("neuron %d dead in one layout only", i)
					}
					continue
				}
				sw, rw := snap.NewEncoder(), snap.NewEncoder()
				snapNeuron(sw, sn)
				snapNeuron(rw, rn)
				if !bytes.Equal(sw.Bytes(), rw.Bytes()) {
					t.Fatalf("neuron %d state words: SoA % x, interface % x", i, sw.Bytes(), rw.Bytes())
				}
			}
		})
	}
}
