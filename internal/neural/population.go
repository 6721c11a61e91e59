package neural

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"spinngo/internal/sim"
	"spinngo/internal/snap"
)

// Spike records one firing event.
type Spike struct {
	Tick   uint64
	Neuron int
}

// Recorder accumulates a spike raster. Like the paper's AER events — a
// spike is a key, its time is when it arrives — a recorded spike carries
// little: the raster is an append-only byte stream holding, per spike,
// the uvarint tick delta from the spike before it and then the uvarint
// neuron index. That is under three bytes a spike on a busy core, where
// a []Spike took sixteen, and the raster is the one structure that grows
// with the length of a run.
//
// The stream is held in blocks, each of whole spikes. The first grows by
// append, so a short raster costs what its bytes cost; once a block is
// within two uvarints of rasterBlock it is sealed, and every later block
// is allocated at rasterBlock and never copied again. A long run thus
// allocates the raster it keeps, not the copies a growing slice leaves
// behind.
type Recorder struct {
	blocks [][]byte
	size   int // the stream's bytes, over all blocks
	total  int
	last   uint64 // the tick of the last spike recorded
	counts []uint64
}

// rasterBlock is the size of a recorder's blocks after its first.
const rasterBlock = 64 << 10

// NewRecorder returns a recorder for n neurons.
func NewRecorder(n int) *Recorder { return &Recorder{counts: make([]uint64, n)} }

// Record adds one spike. Ticks must not decrease — a population records
// its spikes as its clock advances — and a spike recorded before the
// last one panics.
func (r *Recorder) Record(tick uint64, neuron int) {
	if tick < r.last {
		panic(fmt.Sprintf("neural: spike recorded at tick %d after tick %d", tick, r.last))
	}
	r.counts[neuron]++
	k := len(r.blocks) - 1
	if k < 0 {
		r.blocks, k = append(r.blocks, nil), 0
	} else if len(r.blocks[k]) > rasterBlock-2*binary.MaxVarintLen64 {
		r.blocks, k = append(r.blocks, make([]byte, 0, rasterBlock)), k+1
	}
	b := r.blocks[k]
	n := len(b)
	b = binary.AppendUvarint(binary.AppendUvarint(b, tick-r.last), uint64(neuron))
	r.blocks[k] = b
	r.size += len(b) - n
	r.last = tick
	r.total++
}

// Each calls f with every recorded spike, in the order recorded.
func (r *Recorder) Each(f func(Spike)) {
	var tick uint64
	for _, b := range r.blocks {
		for len(b) > 0 {
			delta, n := binary.Uvarint(b)
			neuron, m := binary.Uvarint(b[n:])
			b = b[n+m:]
			tick += delta
			f(Spike{tick, int(neuron)})
		}
	}
}

// Spikes returns the raster as a fresh slice, in the order recorded.
func (r *Recorder) Spikes() []Spike {
	out := make([]Spike, 0, r.total)
	r.Each(func(s Spike) { out = append(out, s) })
	return out
}

// Count reports spikes for one neuron.
func (r *Recorder) Count(neuron int) uint64 { return r.counts[neuron] }

// Total reports all spikes.
func (r *Recorder) Total() int { return r.total }

// Rate reports a neuron's mean firing rate in Hz over the given ticks
// (1 ms ticks).
func (r *Recorder) Rate(neuron int, ticks uint64) float64 {
	if ticks == 0 {
		return 0
	}
	return float64(r.counts[neuron]) / (float64(ticks) / 1000.0)
}

// Snap codes the recorded raster of a recorder of the same neuron count
// as it holds it: the spike count, the stream's length, then the packed
// stream as one span, its blocks copied end to end. The per-neuron
// counts are the raster's histogram and are not written. Decoding reads
// the stream in one pass and installs a copy of it as a single block,
// with the counts and last tick rebuilt, only if every uvarint is whole
// and minimal, every tick fits in 64 bits, every neuron is one of the
// recorder's and the spike count is the stream's; otherwise it fails the
// codec and leaves the recorder as it was.
func (r *Recorder) Snap(c *snap.Codec) {
	total := c.Len(r.total)
	stream := c.Span(c.Len(r.size))
	if c.Decoding() {
		r.decode(c, total, stream)
		return
	}
	for _, b := range r.blocks {
		stream = stream[copy(stream, b):]
	}
}

// decode is Snap's decoding half, given the image's spike count and
// stream. A spike whose delta takes one byte and whose neuron takes one,
// or two with a last byte that is not zero, is read in place; any other
// goes through readUvarint, which reports the faults.
func (r *Recorder) decode(c *snap.Codec, total int, stream []byte) {
	if c.Err() != nil {
		return
	}
	counts := make([]uint64, len(r.counts))
	var last uint64
	spikes := 0
	for at := 0; at < len(stream); spikes++ {
		var delta, neuron uint64
		end := -1
		if s := stream[at:]; len(s) > 2 && s[0] < 0x80 {
			delta = uint64(s[0])
			switch lo, hi := s[1], s[2]; {
			case lo < 0x80:
				neuron, end = uint64(lo), at+2
			case hi != 0 && hi < 0x80:
				neuron, end = uint64(lo&0x7f)|uint64(hi)<<7, at+3
			}
		}
		if end < 0 {
			var next int
			if delta, next = readUvarint(stream, at); next < 0 {
				c.Fail(fmt.Errorf("neural: recorder: spike %d: tick delta is not a whole minimal uvarint", spikes))
				return
			}
			if neuron, end = readUvarint(stream, next); end < 0 {
				c.Fail(fmt.Errorf("neural: recorder: spike %d: neuron is not a whole minimal uvarint", spikes))
				return
			}
		}
		if delta > math.MaxUint64-last {
			c.Fail(fmt.Errorf("neural: recorder: spike %d: tick %d plus %d passes 2^64", spikes, last, delta))
			return
		}
		if neuron >= uint64(len(counts)) {
			c.Fail(fmt.Errorf("neural: recorder: spike %d on neuron %d of %d", spikes, int64(neuron), len(counts)))
			return
		}
		counts[neuron]++
		last += delta
		at = end
	}
	if spikes != total {
		c.Fail(fmt.Errorf("neural: recorder: spike count %d, the stream holds %d", total, spikes))
		return
	}
	r.blocks, r.size = [][]byte{bytes.Clone(stream)}, len(stream)
	r.total, r.last, r.counts = total, last, counts
}

// readUvarint reads the minimal uvarint at b[at:] and returns it with
// the offset just past it, or an offset of -1 if the bytes there are
// not one. A single byte below 0x80, the common case, is one.
func readUvarint(b []byte, at int) (uint64, int) {
	if at < len(b) && b[at] < 0x80 {
		return uint64(b[at]), at + 1
	}
	x, n := binary.Uvarint(b[at:])
	if n <= 0 || n != uvarintLen(x) {
		return 0, -1
	}
	return x, at + n
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// popModel selects a population's stepping path.
type popModel uint8

const (
	// modelGeneric steps each neuron through the Neuron interface — the
	// fallback for factory-built (possibly heterogeneous) populations.
	modelGeneric popModel = iota
	// modelLIF and modelIzh step structure-of-arrays state inline.
	modelLIF
	modelIzh
)

// Population is the set of neurons simulated by one core: the neurons,
// their deferred-event input ring, the SDRAM synaptic matrix, and a
// recorder. It provides the three Fig-7 task bodies; the machine layer
// wires them to kernel events.
//
// Homogeneous populations built with NewLIFPopulation or
// NewIzhikevichPopulation hold their dynamic state as parallel slices
// (v/cooling for LIF, v/u for Izhikevich) and step them in one tight
// loop: no interface dispatch, no per-neuron pointer chase, and the
// shared parameters live once on the population. The Neurons slice is
// still populated — with per-index views over the arrays — so
// everything written against the Neuron interface (snapshot export,
// KillNeuron's nil marking, tests) works identically on both layouts.
type Population struct {
	Neurons []Neuron
	Ring    *InputRing
	Matrix  *Matrix
	Rec     *Recorder
	// Bias is a constant background current per neuron.
	Bias Fix
	// WeightScale converts SynWord weights to currents.
	WeightScale Fix

	// Structure-of-arrays state and shared parameters for the
	// homogeneous models. v is the membrane potential for both; cooling
	// is LIF's refractory countdown, u is Izhikevich's recovery
	// variable. A neuron is dead exactly when Neurons[i] is nil,
	// keeping liveness in one place for every layout.
	model   popModel
	v       []Fix
	cooling []int32
	u       []Fix
	decay   Fix // LIF: 1 - exp(-dt/tau)
	vRest   Fix
	vReset  Fix
	vThresh Fix
	rMem    Fix
	refrac  int32
	izhA    Fix
	izhB    Fix
	izhC    Fix
	izhD    Fix
	// dead counts nil Neurons entries (killed neurons and stateless
	// source slots). The chunked stepping paths are legal only when it
	// is zero — they skip the per-neuron liveness check entirely — so
	// every transition to nil must pass through KillNeuron to keep the
	// counter an invariant of the slice.
	dead int

	tick uint64
	// OnSpike is invoked for each local neuron that fires; the machine
	// layer turns this into a multicast packet (AER).
	OnSpike func(neuron int)
}

func newPopulation(n, maxDelay int) *Population {
	if n <= 0 {
		panic("neural: empty population")
	}
	return &Population{
		Ring:        NewInputRing(n, maxDelay),
		Matrix:      NewMatrix(),
		Rec:         NewRecorder(n),
		WeightScale: F(1.0 / 256), // weights stored as 1/256 nA units
	}
}

// NewPopulation builds a population of n neurons from a factory,
// stepping each through the Neuron interface. Homogeneous populations
// should prefer NewLIFPopulation / NewIzhikevichPopulation, whose
// structure-of-arrays stepping is substantially cheaper.
func NewPopulation(n, maxDelay int, factory func(i int) Neuron) *Population {
	p := newPopulation(n, maxDelay)
	for i := 0; i < n; i++ {
		nn := factory(i)
		if nn == nil {
			p.dead++ // stateless source slot
		}
		p.Neurons = append(p.Neurons, nn)
	}
	return p
}

// NewLIFPopulation builds n identical leaky integrate-and-fire neurons
// with their dynamic state in parallel slices.
func NewLIFPopulation(n, maxDelay int, params LIFParams) *Population {
	p := newPopulation(n, maxDelay)
	p.model = modelLIF
	p.v = make([]Fix, n)
	p.cooling = make([]int32, n)
	p.decay = F(1 - math.Exp(-1.0/params.TauM))
	p.vRest = F(params.VRest)
	p.vReset = F(params.VReset)
	p.vThresh = F(params.VThresh)
	p.rMem = F(params.RMem)
	p.refrac = int32(params.TRefrac)
	refs := make([]lifRef, n)
	p.Neurons = make([]Neuron, n)
	for i := range refs {
		p.v[i] = p.vRest
		refs[i] = lifRef{p: p, i: int32(i)}
		p.Neurons[i] = &refs[i]
	}
	return p
}

// NewIzhikevichPopulation builds n identical Izhikevich neurons with
// their dynamic state in parallel slices.
func NewIzhikevichPopulation(n, maxDelay int, params IzhikevichParams) *Population {
	p := newPopulation(n, maxDelay)
	p.model = modelIzh
	p.v = make([]Fix, n)
	p.u = make([]Fix, n)
	p.izhA, p.izhB, p.izhC, p.izhD = F(params.A), F(params.B), F(params.C), F(params.D)
	refs := make([]izhRef, n)
	p.Neurons = make([]Neuron, n)
	for i := range refs {
		p.v[i] = p.izhC
		p.u[i] = p.izhB.Mul(p.v[i])
		refs[i] = izhRef{p: p, i: int32(i)}
		p.Neurons[i] = &refs[i]
	}
	return p
}

// stepLIF advances neuron i one tick — the exact arithmetic of
// LIF.Step, operating on the population arrays. The scalar fallback
// loop and the interface view call it; stepLIFChunked repeats the same
// expressions on hoisted parameters (integer fixed-point, identical
// evaluation order, so bit-exact — pinned by the differential tests).
func (p *Population) stepLIF(i int, input Fix) bool {
	if p.cooling[i] > 0 {
		p.cooling[i]--
		return false
	}
	target := p.vRest + p.rMem.Mul(input)
	v := p.v[i] + p.decay.Mul(target-p.v[i])
	if v >= p.vThresh {
		p.v[i] = p.vReset
		p.cooling[i] = p.refrac
		return true
	}
	p.v[i] = v
	return false
}

// stepIzh advances neuron i one tick — the exact arithmetic of
// Izhikevich.Step (two 0.5 ms half-steps) on the population arrays.
func (p *Population) stepIzh(i int, input Fix) bool {
	v, u := p.v[i], p.u[i]
	for half := 0; half < 2; half++ {
		dv := iz004.Mul(v).Mul(v) + iz5.Mul(v) + iz140 - u + input
		v += izHalf.Mul(dv)
		if v >= iz30 {
			v = p.izhC
			u += p.izhD
			// u update for this tick still applies below.
			u += p.izhA.Mul(p.izhB.Mul(v) - u)
			p.v[i], p.u[i] = v, u
			return true
		}
	}
	u += p.izhA.Mul(p.izhB.Mul(v) - u)
	p.v[i], p.u[i] = v, u
	return false
}

// chunk is the SIMD-width block the homogeneous stepping loops advance
// per iteration: converting each 8-lane block to an array pointer
// proves every lane index in range once, so the inner loop runs with no
// bounds checks and all shared parameters in registers.
const chunk = 8

// stepLIFChunked advances the whole LIF population one tick in 8-wide
// blocks. Legal only with no dead neurons (p.dead == 0): the per-lane
// liveness check is gone, which — with the hoisted parameters and
// bounds-check-free lane access — is what the fast path buys. The
// arithmetic is stepLIF's, expression for expression; a KillNeuron from
// inside an OnSpike callback takes effect at the next tick (the scalar
// path is re-selected then), never mid-block.
func (p *Population) stepLIFChunked(inputs []Fix) (cost uint64) {
	decay, vRest, vReset, vThresh := p.decay, p.vRest, p.vReset, p.vThresh
	rMem, refrac, bias := p.rMem, p.refrac, p.Bias
	n := len(p.v)
	i := 0
	for ; i+chunk <= n; i += chunk {
		vv := (*[chunk]Fix)(p.v[i:])
		cc := (*[chunk]int32)(p.cooling[i:])
		in := (*[chunk]Fix)(inputs[i:])
		for j := 0; j < chunk; j++ {
			if cc[j] > 0 {
				cc[j]--
				cost += 30
				continue
			}
			target := vRest + rMem.Mul(in[j]+bias)
			v := vv[j] + decay.Mul(target-vv[j])
			if v >= vThresh {
				vv[j] = vReset
				cc[j] = refrac
				cost += p.fired(true, i+j)
			} else {
				vv[j] = v
				cost += 30
			}
		}
	}
	for ; i < n; i++ { // tail lanes (population size not a multiple of 8)
		cost += p.fired(p.stepLIF(i, inputs[i]+p.Bias), i)
	}
	return cost
}

// stepIzhChunked advances the whole Izhikevich population one tick in
// 8-wide blocks — stepIzh's two-half-step arithmetic with parameters
// hoisted and lane access bounds-check-free. Same legality rule as
// stepLIFChunked: no dead neurons.
func (p *Population) stepIzhChunked(inputs []Fix) (cost uint64) {
	a, b, c, d, bias := p.izhA, p.izhB, p.izhC, p.izhD, p.Bias
	n := len(p.v)
	i := 0
	for ; i+chunk <= n; i += chunk {
		vv := (*[chunk]Fix)(p.v[i:])
		uu := (*[chunk]Fix)(p.u[i:])
		in := (*[chunk]Fix)(inputs[i:])
		for j := 0; j < chunk; j++ {
			input := in[j] + bias
			v, u := vv[j], uu[j]
			spiked := false
			for half := 0; half < 2; half++ {
				dv := iz004.Mul(v).Mul(v) + iz5.Mul(v) + iz140 - u + input
				v += izHalf.Mul(dv)
				if v >= iz30 {
					v = c
					u += d
					// u update for this tick still applies below.
					u += a.Mul(b.Mul(v) - u)
					spiked = true
					break
				}
			}
			if !spiked {
				u += a.Mul(b.Mul(v) - u)
			}
			vv[j], uu[j] = v, u
			cost += p.fired(spiked, i+j)
		}
	}
	for ; i < n; i++ { // tail lanes
		cost += p.fired(p.stepIzh(i, inputs[i]+p.Bias), i)
	}
	return cost
}

// lifRef is the Neuron-interface view of one slot of a LIF
// structure-of-arrays population.
type lifRef struct {
	p *Population
	i int32
}

func (n *lifRef) Step(input Fix) bool { return n.p.stepLIF(int(n.i), input) }
func (n *lifRef) V() Fix              { return n.p.v[n.i] }
func (n *lifRef) Reset()              { n.p.v[n.i] = n.p.vRest; n.p.cooling[n.i] = 0 }

// izhRef is the Neuron-interface view of one slot of an Izhikevich
// structure-of-arrays population.
type izhRef struct {
	p *Population
	i int32
}

func (n *izhRef) Step(input Fix) bool { return n.p.stepIzh(int(n.i), input) }
func (n *izhRef) V() Fix              { return n.p.v[n.i] }
func (n *izhRef) Reset() {
	n.p.v[n.i] = n.p.izhC
	n.p.u[n.i] = n.p.izhB.Mul(n.p.v[n.i])
}

// Size reports the neuron count.
func (p *Population) Size() int { return len(p.Neurons) }

// Tick reports the current tick number.
func (p *Population) Tick() uint64 { return p.tick }

// SeedTick sets the tick counter, aligning a freshly built population
// with machine time — used when a migrated core resumes a fragment.
func (p *Population) SeedTick(t uint64) { p.tick = t }

// Snap codes the population's dynamic state — tick, per-neuron liveness
// and state words, input ring, recorder — overlaying it onto a freshly
// built population of the same shape when decoding.
func (p *Population) Snap(c *snap.Codec) {
	c.U64(&p.tick)
	if !c.FixedLen(len(p.Neurons), "population neurons") {
		return
	}
	for i, nn := range p.Neurons {
		alive := nn != nil
		c.Bool(&alive)
		switch {
		case alive && nn == nil:
			c.Fail(fmt.Errorf("neural: neuron %d alive in image but stateless in rebuild", i))
			return
		case alive:
			snapNeuron(c, nn)
		case nn != nil:
			// Killed before the snapshot. Routing through KillNeuron keeps
			// the dead-slot counter — which gates the chunked stepping
			// path — consistent.
			_ = p.KillNeuron(i)
		}
	}
	p.Ring.Snap(c)
	p.Rec.Snap(c)
}

// ProcessRow applies one DMA-fetched synaptic row: each synapse deposits
// its weight into the ring slot its delay selects (the deferred-event
// model, section 3.2). It reports the instruction cost for the kernel's
// time accounting (~10 instructions per synapse on the ARM).
func (p *Population) ProcessRow(row Row) (instructions uint64) {
	for _, w := range row {
		p.Ring.Deposit(w.Delay(), w.Target(), w.WeightFix(p.WeightScale))
	}
	return uint64(10*len(row) + 40)
}

// StepTick advances all neurons one millisecond (Fig 7 update_Neurons):
// consume the ring slot due now, integrate, fire. It reports the
// instruction cost (~30 instructions per quiet neuron, ~100 extra per
// spike, matching published SpiNNaker kernel budgets). Homogeneous
// populations with every neuron alive step their state arrays in
// SIMD-width chunks; populations carrying dead neurons fall back to the
// scalar per-lane loop, and factory-built ones go through the Neuron
// interface. All orders, costs and spike streams are identical.
func (p *Population) StepTick() (instructions uint64) {
	inputs := p.Ring.Advance()
	p.tick++
	var cost uint64 = 60
	switch p.model {
	case modelLIF:
		if p.dead == 0 {
			cost += p.stepLIFChunked(inputs)
			break
		}
		for i := range p.v {
			if p.Neurons[i] == nil { // dead neuron (fault-injection experiments)
				cost += 2
				continue
			}
			cost += p.fired(p.stepLIF(i, inputs[i]+p.Bias), i)
		}
	case modelIzh:
		if p.dead == 0 {
			cost += p.stepIzhChunked(inputs)
			break
		}
		for i := range p.v {
			if p.Neurons[i] == nil {
				cost += 2
				continue
			}
			cost += p.fired(p.stepIzh(i, inputs[i]+p.Bias), i)
		}
	default:
		for i, n := range p.Neurons {
			if n == nil {
				cost += 2
				continue
			}
			cost += p.fired(n.Step(inputs[i]+p.Bias), i)
		}
	}
	p.Ring.ClearCurrent()
	return cost
}

// fired records and fans out a spike, returning the per-neuron
// instruction cost of the step.
func (p *Population) fired(spiked bool, i int) uint64 {
	if !spiked {
		return 30
	}
	p.Rec.Record(p.tick, i)
	if p.OnSpike != nil {
		p.OnSpike(i)
	}
	return 130
}

// KillNeuron removes a neuron (the biological fault-tolerance
// experiments of section 5.4: "the average adult human loses a neuron
// every second").
func (p *Population) KillNeuron(i int) error {
	if i < 0 || i >= len(p.Neurons) {
		return fmt.Errorf("neural: no neuron %d", i)
	}
	if p.Neurons[i] != nil {
		p.Neurons[i] = nil
		p.dead++
	}
	return nil
}

// Dead reports how many neuron slots are nil (killed or stateless);
// while it is zero the homogeneous models step in bounds-check-free
// chunks.
func (p *Population) Dead() int { return p.dead }

// PoissonSource emits independent Poisson spike trains for n virtual
// neurons at the given rate; used as stimulus (Fig 7 update_Stimulus).
type PoissonSource struct {
	rng  *sim.RNG
	n    int
	prob float64 // per-tick spike probability
	buf  []int   // Tick's result, reused
}

// NewPoissonSource builds a source of n trains at rateHz (1 ms ticks).
func NewPoissonSource(rng *sim.RNG, n int, rateHz float64) *PoissonSource {
	return &PoissonSource{rng: rng, n: n, prob: rateHz / 1000.0}
}

// Snap codes the source's dynamic state: its generator stream.
func (s *PoissonSource) Snap(c *snap.Codec) { s.rng.Snap(c) }

// Tick returns the indices that spike this tick. The slice is the
// source's own buffer, reused by every call: it is valid until the next
// Tick.
func (s *PoissonSource) Tick() []int {
	out := s.buf[:0]
	s.rng.EachBool(s.n, s.prob, func(i int) { out = append(out, i) })
	s.buf = out
	return out
}
