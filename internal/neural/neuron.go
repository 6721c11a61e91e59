package neural

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

// IzhikevichParams configures an Izhikevich neuron. The four standard
// constants (a, b, c, d) select the firing regime.
type IzhikevichParams struct {
	A, B, C, D float64
}

// RegularSpiking returns the canonical cortical regular-spiking cell.
func RegularSpiking() IzhikevichParams { return IzhikevichParams{A: 0.02, B: 0.2, C: -65, D: 8} }

var (
	iz004  = F(0.04)
	iz5    = F(5)
	iz140  = F(140)
	iz30   = F(30)
	izHalf = F(0.5)
)
