// Package mapping implements the SpiNNaker "design automation problem"
// (paper section 5.3 and refs [18][19]): taking a neural network
// description and producing everything the machine needs to run it —
// neurons partitioned onto cores, fragments placed on chips, multicast
// routing keys assigned, routing trees constructed, and router tables
// generated and minimised to fit the 1024-entry CAM.
package mapping

import (
	"fmt"
	"math"

	"spinngo/internal/neural"
	"spinngo/internal/sim"
)

// ModelKind selects a neuron model for a population.
type ModelKind int

const (
	// ModelLIF is leaky integrate-and-fire.
	ModelLIF ModelKind = iota
	// ModelIzhikevich is the Izhikevich two-variable model.
	ModelIzhikevich
	// ModelPoisson is a stimulus source emitting Poisson spike trains.
	ModelPoisson
)

func (k ModelKind) String() string {
	switch k {
	case ModelLIF:
		return "lif"
	case ModelIzhikevich:
		return "izhikevich"
	case ModelPoisson:
		return "poisson"
	default:
		return fmt.Sprintf("model(%d)", int(k))
	}
}

// Population describes one homogeneous neuron group.
type Population struct {
	ID   int
	Name string
	N    int
	Kind ModelKind
	// LIF parameters (ModelLIF).
	LIF neural.LIFParams
	// Izh parameters (ModelIzhikevich).
	Izh neural.IzhikevichParams
	// RateHz is the source rate (ModelPoisson).
	RateHz float64
	// BiasNA is a constant background current in nA.
	BiasNA float64
	// Record enables spike recording.
	Record bool
}

// ConnectorKind selects a projection wiring rule.
type ConnectorKind int

const (
	// AllToAll connects every pre neuron to every post neuron.
	AllToAll ConnectorKind = iota
	// OneToOne connects index i to index i.
	OneToOne
	// FixedProbability connects each pair independently with
	// probability P.
	FixedProbability
	// FixedFanout connects each pre neuron to Fanout random post
	// neurons (the biologically-plausible ~1000-synapse pattern the
	// paper's communication load argument rests on).
	FixedFanout
	// Shift connects index i to (i+Offset) mod post size — ring and
	// chain topologies (synfire chains, locality ablations).
	Shift
)

func (k ConnectorKind) String() string {
	switch k {
	case AllToAll:
		return "all-to-all"
	case OneToOne:
		return "one-to-one"
	case FixedProbability:
		return "fixed-probability"
	case FixedFanout:
		return "fixed-fanout"
	case Shift:
		return "shift"
	default:
		return fmt.Sprintf("connector(%d)", int(k))
	}
}

// Projection connects two populations.
type Projection struct {
	Pre, Post *Population
	Kind      ConnectorKind
	// P is the connection probability (FixedProbability).
	P float64
	// Fanout is the per-source target count (FixedFanout).
	Fanout int
	// Offset is the index shift (Shift).
	Offset int
	// WeightNA is the synaptic weight in nA (stored at 1/256 nA
	// resolution).
	WeightNA float64
	// DelayMS is the axonal delay in whole milliseconds (1..15).
	DelayMS int
	// Inhibitory flips the weight sign.
	Inhibitory bool
	// Seed makes expansion deterministic per projection.
	Seed uint64
	// STDP enables spike-timing-dependent plasticity on this
	// projection's synapses; rows become mutable and are written back
	// to SDRAM when modified (Fig 7).
	STDP *neural.STDPConfig
}

// Network is a whole model: populations plus projections.
type Network struct {
	Pops  []*Population
	Projs []*Projection
}

// AddPopulation appends a population and assigns its ID.
func (n *Network) AddPopulation(p *Population) *Population {
	p.ID = len(n.Pops)
	n.Pops = append(n.Pops, p)
	return p
}

// Connect appends a projection and returns it.
func (n *Network) Connect(p *Projection) *Projection {
	n.Projs = append(n.Projs, p)
	return p
}

// Validate checks structural sanity.
func (n *Network) Validate() error {
	if len(n.Pops) == 0 {
		return fmt.Errorf("mapping: network has no populations")
	}
	for _, p := range n.Pops {
		if p.N <= 0 {
			return fmt.Errorf("mapping: population %q has %d neurons", p.Name, p.N)
		}
	}
	for _, pr := range n.Projs {
		if pr.Pre == nil || pr.Post == nil {
			return fmt.Errorf("mapping: projection with nil endpoint")
		}
		if pr.DelayMS < 1 || pr.DelayMS > neural.MaxSynDelay {
			return fmt.Errorf("mapping: projection delay %d out of range 1..%d",
				pr.DelayMS, neural.MaxSynDelay)
		}
		if pr.Kind == FixedProbability && !(pr.P >= 0 && pr.P <= 1) { // NaN too
			return fmt.Errorf("mapping: projection %s->%s: probability %g out of range",
				pr.Pre.Name, pr.Post.Name, pr.P)
		}
		if math.IsNaN(pr.WeightNA) || math.IsInf(pr.WeightNA, 0) {
			return fmt.Errorf("mapping: projection %s->%s: weight %g nA is not finite",
				pr.Pre.Name, pr.Post.Name, pr.WeightNA)
		}
		if pr.STDP != nil {
			if err := pr.STDP.Validate(); err != nil {
				return fmt.Errorf("mapping: projection %s->%s: %w", pr.Pre.Name, pr.Post.Name, err)
			}
		}
		if pr.Kind == FixedFanout && pr.Fanout <= 0 {
			return fmt.Errorf("mapping: fanout %d invalid", pr.Fanout)
		}
		if pr.Kind == OneToOne && pr.Pre.N != pr.Post.N {
			return fmt.Errorf("mapping: one-to-one between %d and %d neurons",
				pr.Pre.N, pr.Post.N)
		}
	}
	return nil
}

// weightUnits converts nA to stored units, saturating at the field.
func weightUnits(nA float64) uint16 {
	u := nA * 256
	if u < 0 {
		u = -u
	}
	if u > 65535 {
		u = 65535
	}
	return uint16(u + 0.5)
}

// each expands the projection deterministically, visiting every synapse
// as a pair of population-relative neuron indices. The outer loop runs
// over pre neurons in ascending order for every connector kind.
func (pr *Projection) each(visit func(pre, post int)) {
	rng := sim.NewRNG(pr.Seed ^ 0x9e3779b97f4a7c15)
	switch pr.Kind {
	case AllToAll:
		for i := 0; i < pr.Pre.N; i++ {
			for j := 0; j < pr.Post.N; j++ {
				visit(i, j)
			}
		}
	case OneToOne:
		for i := 0; i < pr.Pre.N; i++ {
			visit(i, i)
		}
	case FixedProbability:
		for i := 0; i < pr.Pre.N; i++ {
			rng.EachBool(pr.Post.N, pr.P, func(j int) { visit(i, j) })
		}
	case FixedFanout:
		perm := make([]int, pr.Post.N)
		for i := 0; i < pr.Pre.N; i++ {
			rng.PermInto(perm)
			for _, j := range perm[:min(pr.Fanout, pr.Post.N)] {
				visit(i, j)
			}
		}
	case Shift:
		for i := 0; i < pr.Pre.N; i++ {
			j := (i + pr.Offset) % pr.Post.N
			if j < 0 {
				j += pr.Post.N
			}
			visit(i, j)
		}
	}
}
