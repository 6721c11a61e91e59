// Package spinngo is a software model of the SpiNNaker
// biologically-inspired massively-parallel architecture (Furber & Brown,
// DATE 2011): a toroidal triangular mesh of chip multiprocessors with
// multicast AER packet routing, self-timed inter-chip links, and a
// real-time event-driven application model, built to simulate large
// systems of spiking neurons in biological real time.
//
// The public API covers the workflow a SpiNNaker user has: describe a
// spiking network (NewModel), configure a machine (NewMachine), boot it,
// load the network (mapping, routing and data generation happen here),
// run for a stretch of biological time, and inspect spikes, traffic and
// energy.
//
//	model := spinngo.NewModel()
//	exc := model.AddLIF("exc", 400, spinngo.DefaultLIFConfig())
//	model.Connect(exc, exc, spinngo.Conn{Rule: spinngo.RandomRule, P: 0.02,
//	    WeightNA: 0.3, DelayMS: 2})
//	mc, _ := spinngo.NewMachine(spinngo.MachineConfig{Width: 4, Height: 4})
//	mc.Boot()
//	mc.Load(model)
//	report, _ := mc.Run(1000) // one second of biological time
package spinngo

import (
	"fmt"

	"spinngo/internal/mapping"
	"spinngo/internal/neural"
)

// LIFConfig is the public leaky integrate-and-fire parameter set (mV,
// ms, MOhm).
type LIFConfig struct {
	TauM    float64 // membrane time constant, ms
	VRest   float64 // resting potential, mV
	VReset  float64 // post-spike reset, mV
	VThresh float64 // threshold, mV
	RMem    float64 // membrane resistance, MOhm
	TRefrac int     // refractory period, ms
	BiasNA  float64 // constant background current, nA
}

// DefaultLIFConfig mirrors the common PyNN defaults.
func DefaultLIFConfig() LIFConfig {
	return LIFConfig{TauM: 20, VRest: -65, VReset: -70, VThresh: -50, RMem: 40, TRefrac: 2}
}

// IzhikevichConfig is the public Izhikevich parameter set.
type IzhikevichConfig struct {
	A, B, C, D float64
	BiasNA     float64
}

// RegularSpikingConfig returns the canonical cortical regular-spiking
// cell.
func RegularSpikingConfig() IzhikevichConfig {
	return IzhikevichConfig{A: 0.02, B: 0.2, C: -65, D: 8}
}

// FastSpikingConfig returns the canonical fast-spiking interneuron.
func FastSpikingConfig() IzhikevichConfig {
	return IzhikevichConfig{A: 0.1, B: 0.2, C: -65, D: 2}
}

// ChatteringConfig returns the bursting 'chattering' cortical cell.
func ChatteringConfig() IzhikevichConfig {
	return IzhikevichConfig{A: 0.02, B: 0.2, C: -50, D: 2}
}

// Pop identifies a population within a Model.
type Pop struct {
	model *Model
	idx   int
}

// Name reports the population's name.
func (p Pop) Name() string { return p.model.net.Pops[p.idx].Name }

// Size reports the population's neuron count.
func (p Pop) Size() int { return p.model.net.Pops[p.idx].N }

// Rule selects a connection pattern for Connect.
type Rule int

const (
	// AllToAllRule connects every pre neuron to every post neuron.
	AllToAllRule Rule = iota
	// OneToOneRule connects equal indices (sizes must match).
	OneToOneRule
	// RandomRule connects each pair independently with probability P.
	RandomRule
	// FanoutRule connects each pre neuron to Fanout random targets —
	// the biologically-plausible ~10^3-synapse pattern.
	FanoutRule
)

// Conn describes one projection.
type Conn struct {
	Rule Rule
	// P is the pair probability (RandomRule).
	P float64
	// Fanout is the per-source target count (FanoutRule).
	Fanout int
	// WeightNA is the synaptic weight in nA (resolution 1/256 nA).
	WeightNA float64
	// DelayMS is the axonal delay in ms, 1..15 (section 3.2: delays are
	// re-inserted at the target by the deferred-event model).
	DelayMS int
	// Inhibitory flips the weight sign.
	Inhibitory bool
	// Seed makes the random expansion reproducible; 0 derives from the
	// projection order.
	Seed uint64
	// STDP enables spike-timing-dependent plasticity on this
	// projection. At most one rule may target any given population.
	STDP *STDPRule
}

// STDPRule is an asymmetric Hebbian plasticity rule: causal (pre before
// post) pairings potentiate, anti-causal pairings depress, with
// exponential timing windows. Modified synaptic rows are written back to
// SDRAM by DMA, as Fig 7 describes.
type STDPRule struct {
	// APlusNA and AMinusNA are the weight changes at zero time
	// difference, in nA.
	APlusNA, AMinusNA float64
	// TauPlusMS and TauMinusMS are the window time constants.
	TauPlusMS, TauMinusMS float64
	// WMaxNA caps the weight (0 means the field maximum, 256 nA).
	WMaxNA float64
}

// DefaultSTDPRule returns a conventional balanced rule.
func DefaultSTDPRule() *STDPRule {
	return &STDPRule{APlusNA: 0.06, AMinusNA: 0.066, TauPlusMS: 20, TauMinusMS: 20, WMaxNA: 16}
}

// toInternal converts the rule to stored weight units (1/256 nA).
func (r *STDPRule) toInternal() *neural.STDPConfig {
	wmax := uint16(65535)
	if r.WMaxNA > 0 {
		if u := r.WMaxNA * 256; u < 65535 {
			wmax = uint16(u)
		}
	}
	return &neural.STDPConfig{
		APlus:      r.APlusNA * 256,
		AMinus:     r.AMinusNA * 256,
		TauPlusMS:  r.TauPlusMS,
		TauMinusMS: r.TauMinusMS,
		WMin:       0,
		WMax:       wmax,
	}
}

// Model is a spiking network description under construction.
type Model struct {
	net *mapping.Network
}

// NewModel returns an empty network model.
func NewModel() *Model { return &Model{net: &mapping.Network{}} }

// AddLIF adds a population of leaky integrate-and-fire neurons.
func (m *Model) AddLIF(name string, n int, cfg LIFConfig) Pop {
	p := m.net.AddPopulation(&mapping.Population{
		Name: name, N: n, Kind: mapping.ModelLIF,
		LIF: neural.LIFParams{
			TauM: cfg.TauM, VRest: cfg.VRest, VReset: cfg.VReset,
			VThresh: cfg.VThresh, RMem: cfg.RMem, TRefrac: cfg.TRefrac,
		},
		BiasNA: cfg.BiasNA, Record: true,
	})
	return Pop{model: m, idx: p.ID}
}

// AddIzhikevich adds a population of Izhikevich neurons.
func (m *Model) AddIzhikevich(name string, n int, cfg IzhikevichConfig) Pop {
	p := m.net.AddPopulation(&mapping.Population{
		Name: name, N: n, Kind: mapping.ModelIzhikevich,
		Izh:    neural.IzhikevichParams{A: cfg.A, B: cfg.B, C: cfg.C, D: cfg.D},
		BiasNA: cfg.BiasNA, Record: true,
	})
	return Pop{model: m, idx: p.ID}
}

// AddPoisson adds a stimulus population emitting independent Poisson
// spike trains at rateHz.
func (m *Model) AddPoisson(name string, n int, rateHz float64) Pop {
	p := m.net.AddPopulation(&mapping.Population{
		Name: name, N: n, Kind: mapping.ModelPoisson, RateHz: rateHz, Record: true,
	})
	return Pop{model: m, idx: p.ID}
}

// Connect adds a projection from pre to post.
func (m *Model) Connect(pre, post Pop, c Conn) error {
	if pre.model != m || post.model != m {
		return fmt.Errorf("spinngo: populations belong to a different model")
	}
	var kind mapping.ConnectorKind
	switch c.Rule {
	case AllToAllRule:
		kind = mapping.AllToAll
	case OneToOneRule:
		kind = mapping.OneToOne
	case RandomRule:
		kind = mapping.FixedProbability
	case FanoutRule:
		kind = mapping.FixedFanout
	default:
		return fmt.Errorf("spinngo: unknown rule %d", c.Rule)
	}
	seed := c.Seed
	if seed == 0 {
		seed = uint64(len(m.net.Projs) + 1)
	}
	var stdp *neural.STDPConfig
	if c.STDP != nil {
		if c.Inhibitory {
			return fmt.Errorf("spinngo: STDP on inhibitory projections is not supported")
		}
		stdp = c.STDP.toInternal()
	}
	m.net.Connect(&mapping.Projection{
		Pre: m.net.Pops[pre.idx], Post: m.net.Pops[post.idx],
		Kind: kind, P: c.P, Fanout: c.Fanout,
		WeightNA: c.WeightNA, DelayMS: c.DelayMS,
		Inhibitory: c.Inhibitory, Seed: seed,
		STDP: stdp,
	})
	return m.net.Validate()
}
