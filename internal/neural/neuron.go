package neural

import (
	"fmt"
	"math"

	"spinngo/internal/snap"
)

// Neuron is a point-neuron model advanced once per millisecond timer
// tick (Fig 7 update_Neurons). Input is the synaptic current for this
// tick in model units; Step reports whether the neuron fired.
type Neuron interface {
	Step(input Fix) (spiked bool)
	// V reports the membrane potential (for recording).
	V() Fix
	// Reset restores the post-spike / initial state.
	Reset()
}

// LIFParams configures a leaky integrate-and-fire neuron.
type LIFParams struct {
	// TauM is the membrane time constant in ms.
	TauM float64
	// VRest is the resting potential (mV).
	VRest float64
	// VReset is the post-spike reset potential (mV).
	VReset float64
	// VThresh is the firing threshold (mV).
	VThresh float64
	// RMem is the membrane resistance (MOhm): input current in nA
	// contributes RMem*I mV at equilibrium.
	RMem float64
	// TRefrac is the refractory period in ticks (ms).
	TRefrac int
}

// DefaultLIF returns the standard PyNN-style parameters.
func DefaultLIF() LIFParams {
	return LIFParams{TauM: 20, VRest: -65, VReset: -70, VThresh: -50, RMem: 40, TRefrac: 2}
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

// IzhikevichParams configures an Izhikevich neuron. The four standard
// constants (a, b, c, d) select the firing regime.
type IzhikevichParams struct {
	A, B, C, D float64
}

// RegularSpiking returns the canonical cortical regular-spiking cell.
func RegularSpiking() IzhikevichParams { return IzhikevichParams{A: 0.02, B: 0.2, C: -65, D: 8} }

// FastSpiking returns the canonical inhibitory fast-spiking cell.
func FastSpiking() IzhikevichParams { return IzhikevichParams{A: 0.1, B: 0.2, C: -65, D: 2} }

// Chattering returns the bursting 'chattering' cell.
func Chattering() IzhikevichParams { return IzhikevichParams{A: 0.02, B: 0.2, C: -50, D: 2} }

// Izhikevich implements the two-variable Izhikevich model in fixed
// point, integrating v with two 0.5 ms half-steps per tick for stability
// — the same scheme as the SpiNNaker reference implementation:
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

var (
	iz004  = F(0.04)
	iz5    = F(5)
	iz140  = F(140)
	iz30   = F(30)
	izHalf = F(0.5)
)

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

// snapNeuron codes a live neuron's dynamic state words — the values that
// evolve during simulation, excluding the parameters a rebuild
// reproduces. The structure-of-arrays views code the identical words as
// their standalone counterparts, so the snapshot format is layout-blind.
func snapNeuron(c *snap.Codec, n Neuron) {
	if !c.FixedLen(2, "neuron state words") {
		return
	}
	switch m := n.(type) {
	case *LIF:
		c.I32((*int32)(&m.v))
		cooling := int32(m.cooling)
		c.I32(&cooling)
		m.cooling = int(cooling)
	case *Izhikevich:
		c.I32((*int32)(&m.v))
		c.I32((*int32)(&m.u))
	case *lifRef:
		c.I32((*int32)(&m.p.v[m.i]))
		c.I32(&m.p.cooling[m.i])
	case *izhRef:
		c.I32((*int32)(&m.p.v[m.i]))
		c.I32((*int32)(&m.p.u[m.i]))
	default:
		panic(fmt.Sprintf("neural: cannot snapshot neuron type %T", n))
	}
}
