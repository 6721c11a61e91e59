package neural

import (
	"math"
	"testing"
)

func TestLIFQuiescentAtRest(t *testing.T) {
	n := NewLIF(DefaultLIF())
	for i := 0; i < 1000; i++ {
		if n.Step(0) {
			t.Fatal("LIF fired with no input")
		}
	}
	if math.Abs(n.V().Float()-(-65)) > 0.5 {
		t.Errorf("resting V = %g, want ~-65", n.V().Float())
	}
}

func TestLIFFiresAboveRheobase(t *testing.T) {
	p := DefaultLIF()
	n := NewLIF(p)
	// Rheobase: (VThresh - VRest)/RMem = 15/40 = 0.375 nA.
	spikes := 0
	for i := 0; i < 1000; i++ {
		if n.Step(F(1.0)) { // well above rheobase
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatal("LIF never fired at 1 nA")
	}
	// Below rheobase: silent.
	n.Reset()
	for i := 0; i < 1000; i++ {
		if n.Step(F(0.2)) {
			t.Fatal("LIF fired below rheobase")
		}
	}
}

func TestLIFRateMatchesTheory(t *testing.T) {
	// Inter-spike interval for LIF with exact integration:
	// T = refrac - tau * ln(1 - (Vth-Vrest)/(R*I)) approximately; use
	// the discrete recurrence directly as reference.
	p := DefaultLIF()
	n := NewLIF(p)
	const current = 0.6
	spikes := 0
	const ticks = 10000
	for i := 0; i < ticks; i++ {
		if n.Step(F(current)) {
			spikes++
		}
	}
	// Discrete-time float reference.
	refSpikes := 0
	v := p.VRest
	cooling := 0
	decay := 1 - math.Exp(-1.0/p.TauM)
	for i := 0; i < ticks; i++ {
		if cooling > 0 {
			cooling--
			continue
		}
		v += decay * (p.VRest + p.RMem*current - v)
		if v >= p.VThresh {
			v = p.VReset
			cooling = p.TRefrac
			refSpikes++
		}
	}
	if refSpikes == 0 {
		t.Fatal("reference model never fired; test broken")
	}
	ratio := float64(spikes) / float64(refSpikes)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("fixed-point rate %d vs float reference %d (ratio %.3f)", spikes, refSpikes, ratio)
	}
}

func TestLIFRefractoryEnforced(t *testing.T) {
	p := DefaultLIF()
	p.TRefrac = 5
	n := NewLIF(p)
	last := -100
	for i := 0; i < 2000; i++ {
		if n.Step(F(5)) { // huge drive
			if i-last <= p.TRefrac {
				t.Fatalf("spikes %d and %d violate %d-tick refractory period", last, i, p.TRefrac)
			}
			last = i
		}
	}
}

func TestIzhikevichRegularSpiking(t *testing.T) {
	n := NewIzhikevich(RegularSpiking())
	spikes := 0
	for i := 0; i < 1000; i++ {
		if n.Step(F(10)) {
			spikes++
		}
	}
	// RS cell at I=10 fires tonically in the tens of Hz: expect a
	// sensible band over 1000 ms.
	if spikes < 10 || spikes > 200 {
		t.Errorf("RS spikes in 1s = %d, want 10..200", spikes)
	}
}

func TestIzhikevichQuietWithoutInput(t *testing.T) {
	n := NewIzhikevich(RegularSpiking())
	for i := 0; i < 1000; i++ {
		if n.Step(0) {
			t.Fatal("Izhikevich fired with no input")
		}
	}
}

func TestIzhikevichFastSpikingFiresFaster(t *testing.T) {
	rs := NewIzhikevich(RegularSpiking())
	fs := NewIzhikevich(FastSpiking())
	rsSpikes, fsSpikes := 0, 0
	for i := 0; i < 1000; i++ {
		if rs.Step(F(10)) {
			rsSpikes++
		}
		if fs.Step(F(10)) {
			fsSpikes++
		}
	}
	if fsSpikes <= rsSpikes {
		t.Errorf("FS (%d) should out-fire RS (%d) at equal drive", fsSpikes, rsSpikes)
	}
}

func TestIzhikevichResetState(t *testing.T) {
	n := NewIzhikevich(RegularSpiking())
	for i := 0; i < 100; i++ {
		n.Step(F(10))
	}
	n.Reset()
	if n.V() != F(-65) {
		t.Errorf("post-reset V = %v, want -65", n.V())
	}
}

func TestIzhikevichRateIncreasesWithCurrent(t *testing.T) {
	rate := func(i float64) int {
		n := NewIzhikevich(RegularSpiking())
		s := 0
		for k := 0; k < 2000; k++ {
			if n.Step(F(i)) {
				s++
			}
		}
		return s
	}
	r5, r10, r20 := rate(5), rate(10), rate(20)
	if !(r5 <= r10 && r10 < r20) {
		t.Errorf("rates not monotone: %d, %d, %d", r5, r10, r20)
	}
}

// FastSpiking returns the canonical inhibitory fast-spiking cell.
func FastSpiking() IzhikevichParams { return IzhikevichParams{A: 0.1, B: 0.2, C: -65, D: 2} }
