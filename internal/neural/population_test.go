package neural

import (
	"fmt"
	"testing"

	"spinngo/internal/sim"
)

func newLIFPopulation(n int) *Population {
	return NewLIFPopulation(n, MaxSynDelay, DefaultLIF())
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

// TestSourcePopulationIsStateless: a spike source's population never
// fires, whatever its input, and a tick costs the fixed 60 plus 2 a
// slot.
func TestSourcePopulationIsStateless(t *testing.T) {
	const n = 9
	p := NewSourcePopulation(n, MaxSynDelay)
	p.Bias = F(5)
	p.OnSpike = func(i int) { t.Fatalf("source slot %d fired", i) }
	p.Ring.Deposit(1, 3, F(100))
	for tick := 0; tick < 5; tick++ {
		if got := p.StepTick(); got != 60+2*n {
			t.Fatalf("tick %d costs %d, want %d", tick, got, 60+2*n)
		}
	}
	if p.Size() != n || p.dead != n {
		t.Errorf("Size %d, dead %d; want %d and %d", p.Size(), p.dead, n, n)
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

// differential is one population and its per-neuron oracle, built
// alike.
type differential struct {
	name string
	soa  *Population
	ref  *refPopulation
}

func differentials(n int) []differential {
	return []differential{
		{"lif", NewLIFPopulation(n, MaxSynDelay, DefaultLIF()),
			newRefPopulation(n, func() neuron { return NewLIF(DefaultLIF()) })},
		{"izh", NewIzhikevichPopulation(n, MaxSynDelay, RegularSpiking()),
			newRefPopulation(n, func() neuron { return NewIzhikevich(RegularSpiking()) })},
	}
}

// kill kills neuron i in both.
func (c differential) kill(t *testing.T, i int) {
	t.Helper()
	if err := c.soa.KillNeuron(i); err != nil {
		t.Fatal(err)
	}
	c.ref.neurons[i] = nil
}

// step deposits the same four pseudo-random inputs into both, steps
// both one tick and compares their costs and live state words.
func (c differential) step(t *testing.T, tick int, rng *sim.RNG) {
	t.Helper()
	n := c.soa.Size()
	for dep := 0; dep < 4; dep++ {
		tgt := rng.Intn(n)
		delay := rng.Intn(MaxSynDelay)
		w := Fix(rng.Intn(1 << 18))
		c.soa.Ring.Deposit(delay, tgt, w)
		c.ref.ring.Deposit(delay, tgt, w)
	}
	if cs, cr := c.soa.StepTick(), c.ref.stepTick(); cs != cr {
		t.Fatalf("tick %d: SoA cost %d != oracle cost %d", tick, cs, cr)
	}
	for i := 0; i < n; i++ {
		if c.soa.alive[i] != (c.ref.neurons[i] != nil) {
			t.Fatalf("tick %d: neuron %d dead in one layout only", tick, i)
		}
		if !c.soa.alive[i] {
			continue
		}
		if ws, wr := c.soa.stateWords(i), c.ref.stateWords(i); ws != wr {
			t.Fatalf("tick %d neuron %d: SoA state %v, oracle state %v", tick, i, ws, wr)
		}
	}
}

// sameRaster compares the two rasters spike by spike.
func (c differential) sameRaster(t *testing.T) {
	t.Helper()
	ss, rs := c.soa.Rec.Spikes(), c.ref.rec.Spikes()
	if len(ss) != len(rs) {
		t.Fatalf("SoA recorded %d spikes, oracle %d", len(ss), len(rs))
	}
	for i := range ss {
		if ss[i] != rs[i] {
			t.Fatalf("spike %d: SoA %+v, oracle %+v", i, ss[i], rs[i])
		}
	}
}

// TestChunkedSoAMatchesInterfaceAcrossSizes pins the SIMD-width chunked
// stepping paths bit-exact against the per-neuron oracle: population
// sizes off the 8-lane grid exercise the scalar tail, and a mid-run
// KillNeuron flips the population from the chunked path to the scalar
// dead-slot loop at a tick boundary — costs, membrane trajectories and
// rasters must be identical throughout.
func TestChunkedSoAMatchesInterfaceAcrossSizes(t *testing.T) {
	const ticks = 240
	for _, n := range []int{1, 7, 8, 9, 16, 33} {
		for _, c := range differentials(n) {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				c.soa.Bias = F(0.4)
				c.ref.bias = F(0.4)
				if c.soa.dead != 0 {
					t.Fatalf("fresh SoA population reports %d dead slots", c.soa.dead)
				}
				rng := sim.NewRNG(7)
				for tick := 0; tick < ticks; tick++ {
					if tick == ticks/2 && n > 1 {
						// Kill one neuron mid-run: the chunked fast path
						// must hand over to the scalar loop without a
						// trajectory blip on the survivors.
						c.kill(t, n/2)
						if c.soa.dead != 1 {
							t.Fatalf("%d dead slots after one kill", c.soa.dead)
						}
					}
					c.step(t, tick, rng)
				}
				c.sameRaster(t)
			})
		}
	}
}

// TestSoAMatchesInterfaceStepping is the bit-exactness contract of the
// structure-of-arrays layout: a LIF and an Izhikevich population must
// produce the identical spike raster, membrane trajectories, state
// words and instruction costs as the same neurons stepped one by one by
// the oracle, under a shared pseudo-random input drive. (The up-front
// kill keeps this case on the scalar dead-slot loop; the chunked path
// has its own differential test above.)
func TestSoAMatchesInterfaceStepping(t *testing.T) {
	const n, ticks = 32, 400
	for _, c := range differentials(n) {
		t.Run(c.name, func(t *testing.T) {
			c.soa.Bias = F(0.4)
			c.ref.bias = F(0.4)
			c.kill(t, 5)
			rng := sim.NewRNG(99)
			for tick := 0; tick < ticks; tick++ {
				c.step(t, tick, rng)
			}
			c.sameRaster(t)
		})
	}
}
