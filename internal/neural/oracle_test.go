package neural

// The per-neuron models below are the differential oracle of a
// Population's structure-of-arrays stepping: each neuron is its own
// struct stepped through one interface, written from the model
// equations rather than from the population's arrays. The population
// tests drive both under the same input and require identical
// membranes, rasters and instruction costs.

import "math"

// neuron is a point-neuron model advanced once per millisecond timer
// tick. Input is the synaptic current for this tick in model units;
// Step reports whether the neuron fired.
type neuron interface {
	Step(input Fix) (spiked bool)
	// V reports the membrane potential.
	V() Fix
	// Reset restores the post-spike / initial state.
	Reset()
}

// LIF is a leaky integrate-and-fire neuron in fixed point using exact
// exponential integration per 1 ms step:
//
//	v <- v + (1 - exp(-dt/tau)) * (v_rest + R*I - v)
type LIF struct {
	v       Fix
	decay   Fix // 1 - exp(-dt/tau)
	vRest   Fix
	vReset  Fix
	vThresh Fix
	rMem    Fix
	refrac  int
	cooling int
}

// NewLIF builds a LIF neuron with 1 ms steps.
func NewLIF(p LIFParams) *LIF {
	return &LIF{
		v:       F(p.VRest),
		decay:   F(1 - math.Exp(-1.0/p.TauM)),
		vRest:   F(p.VRest),
		vReset:  F(p.VReset),
		vThresh: F(p.VThresh),
		rMem:    F(p.RMem),
		refrac:  p.TRefrac,
	}
}

// Step advances one 1 ms tick.
func (n *LIF) Step(input Fix) bool {
	if n.cooling > 0 {
		n.cooling--
		return false
	}
	target := n.vRest + n.rMem.Mul(input)
	n.v += n.decay.Mul(target - n.v)
	if n.v >= n.vThresh {
		n.v = n.vReset
		n.cooling = n.refrac
		return true
	}
	return false
}

// V reports the membrane potential.
func (n *LIF) V() Fix { return n.v }

// Reset restores the resting state.
func (n *LIF) Reset() { n.v = n.vRest; n.cooling = 0 }

// Izhikevich is the two-variable Izhikevich model in fixed point,
// integrating v with two 0.5 ms half-steps per tick:
//
//	v' = 0.04 v^2 + 5 v + 140 - u + I
//	u' = a (b v - u)
//	spike when v >= 30: v <- c, u <- u + d
type Izhikevich struct {
	v, u       Fix
	a, b, c, d Fix
}

// NewIzhikevich builds a neuron at its resting point.
func NewIzhikevich(p IzhikevichParams) *Izhikevich {
	n := &Izhikevich{
		a: F(p.A), b: F(p.B), c: F(p.C), d: F(p.D),
	}
	n.v = n.c
	n.u = n.b.Mul(n.v)
	return n
}

// Step advances one 1 ms tick.
func (n *Izhikevich) Step(input Fix) bool {
	for half := 0; half < 2; half++ {
		dv := iz004.Mul(n.v).Mul(n.v) + iz5.Mul(n.v) + iz140 - n.u + input
		n.v += izHalf.Mul(dv)
		if n.v >= iz30 {
			n.v = n.c
			n.u += n.d
			// u update for this tick still applies below.
			n.u += n.a.Mul(n.b.Mul(n.v) - n.u)
			return true
		}
	}
	n.u += n.a.Mul(n.b.Mul(n.v) - n.u)
	return false
}

// V reports the membrane potential.
func (n *Izhikevich) V() Fix { return n.v }

// Reset restores the resting state.
func (n *Izhikevich) Reset() { n.v = n.c; n.u = n.b.Mul(n.v) }

// refPopulation steps its neurons one by one through the interface,
// with StepTick's input, bias, cost and recording rules. A nil neuron is
// a dead slot.
type refPopulation struct {
	neurons []neuron
	ring    *InputRing
	rec     *Recorder
	bias    Fix
	tick    uint64
}

func newRefPopulation(n int, build func() neuron) *refPopulation {
	r := &refPopulation{ring: NewInputRing(n, MaxSynDelay), rec: NewRecorder(n)}
	for i := 0; i < n; i++ {
		r.neurons = append(r.neurons, build())
	}
	return r
}

func (r *refPopulation) stepTick() uint64 {
	inputs := r.ring.Advance()
	r.tick++
	var cost uint64 = 60
	for i, n := range r.neurons {
		switch {
		case n == nil:
			cost += 2
		case n.Step(inputs[i] + r.bias):
			r.rec.Record(r.tick, i)
			cost += 130
		default:
			cost += 30
		}
	}
	r.ring.ClearCurrent()
	return cost
}

// stateWords reports neuron i's two snapshot state words: v, then LIF's
// cooling or Izhikevich's u.
func (r *refPopulation) stateWords(i int) [2]int32 {
	switch n := r.neurons[i].(type) {
	case *LIF:
		return [2]int32{int32(n.v), int32(n.cooling)}
	case *Izhikevich:
		return [2]int32{int32(n.v), int32(n.u)}
	}
	panic("neural: dead reference neuron has no state")
}

// stateWords is refPopulation.stateWords for the population's arrays.
func (p *Population) stateWords(i int) [2]int32 {
	if p.model == modelLIF {
		return [2]int32{int32(p.v[i]), p.cooling[i]}
	}
	return [2]int32{int32(p.v[i]), int32(p.u[i])}
}
