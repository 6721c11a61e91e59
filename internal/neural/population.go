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
	n      int    // the neurons it records
}

// rasterBlock is the size of a recorder's blocks after its first.
const rasterBlock = 64 << 10

// NewRecorder returns a recorder for n neurons.
func NewRecorder(n int) *Recorder { return &Recorder{n: n} }

// Record adds one spike. Ticks must not decrease — a population records
// its spikes as its clock advances — and a spike recorded before the
// last one panics.
func (r *Recorder) Record(tick uint64, neuron int) {
	if tick < r.last {
		panic(fmt.Sprintf("neural: spike recorded at tick %d after tick %d", tick, r.last))
	}
	if uint(neuron) >= uint(r.n) {
		panic(fmt.Sprintf("neural: spike recorded on neuron %d of %d", neuron, r.n))
	}
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

// Total reports all spikes.
func (r *Recorder) Total() int { return r.total }

// Snap codes the recorded raster of a recorder of the same neuron count
// as it holds it: the spike count, the stream's length, then the packed
// stream as one span, its blocks copied end to end. Decoding reads
// the stream in one pass and installs a copy of it as a single block,
// with the last tick rebuilt, only if every uvarint is whole
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
		if neuron >= uint64(r.n) {
			c.Fail(fmt.Errorf("neural: recorder: spike %d on neuron %d of %d", spikes, int64(neuron), r.n))
			return
		}
		last += delta
		at = end
	}
	if spikes != total {
		c.Fail(fmt.Errorf("neural: recorder: spike count %d, the stream holds %d", total, spikes))
		return
	}
	r.blocks, r.size = [][]byte{bytes.Clone(stream)}, len(stream)
	r.total, r.last = total, last
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
	// modelSource is a spike source's population: every slot is
	// stateless, so stepping only pays the per-slot check.
	modelSource popModel = iota
	modelLIF
	modelIzh
)

// Population is the set of neurons simulated by one core: the neurons,
// their deferred-event input ring, the SDRAM synaptic matrix, and a
// recorder. It provides the three Fig-7 task bodies; the machine layer
// wires them to kernel events.
//
// A population is homogeneous and holds its dynamic state as parallel
// slices (v/cooling for LIF, v/u for Izhikevich), stepped in one tight
// loop with the shared parameters held once on the population.
type Population struct {
	Ring   *InputRing
	Matrix *Matrix
	Rec    *Recorder
	// Bias is a constant background current per neuron.
	Bias Fix
	// WeightScale converts SynWord weights to currents.
	WeightScale Fix

	// v is the membrane potential for both models; cooling is LIF's
	// refractory countdown, u is Izhikevich's recovery variable.
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
	// alive marks the slots that step; dead counts the others (killed
	// neurons and a source's stateless slots). The chunked stepping
	// paths are legal only when dead is zero — they skip the per-neuron
	// liveness check entirely — so every slot leaves alive through
	// KillNeuron, which keeps the count.
	alive []bool
	dead  int

	tick uint64
	// OnSpike is invoked for each local neuron that fires; the machine
	// layer turns this into a multicast packet (AER).
	OnSpike func(neuron int)
}

func newPopulation(n, maxDelay int, model popModel) *Population {
	if n <= 0 {
		panic("neural: empty population")
	}
	p := &Population{
		Ring:        NewInputRing(n, maxDelay),
		Matrix:      NewMatrix(),
		Rec:         NewRecorder(n),
		WeightScale: F(1.0 / 256), // weights stored as 1/256 nA units
		model:       model,
		alive:       make([]bool, n),
	}
	if model == modelSource {
		p.dead = n
		return p
	}
	for i := range p.alive {
		p.alive[i] = true
	}
	p.v = make([]Fix, n)
	return p
}

// NewSourcePopulation builds the population of a spike source's n
// virtual neurons: every slot is stateless and never steps, and the
// population only carries the ring, matrix and recorder its core
// wiring expects.
func NewSourcePopulation(n, maxDelay int) *Population {
	return newPopulation(n, maxDelay, modelSource)
}

// NewLIFPopulation builds n identical leaky integrate-and-fire neurons
// using exact exponential integration per 1 ms step:
//
//	v <- v + (1 - exp(-dt/tau)) * (v_rest + R*I - v)
func NewLIFPopulation(n, maxDelay int, params LIFParams) *Population {
	p := newPopulation(n, maxDelay, modelLIF)
	p.cooling = make([]int32, n)
	p.decay = F(1 - math.Exp(-1.0/params.TauM))
	p.vRest = F(params.VRest)
	p.vReset = F(params.VReset)
	p.vThresh = F(params.VThresh)
	p.rMem = F(params.RMem)
	p.refrac = int32(params.TRefrac)
	for i := range p.v {
		p.v[i] = p.vRest
	}
	return p
}

// NewIzhikevichPopulation builds n identical Izhikevich neurons at
// their resting point. Each tick integrates v with two 0.5 ms
// half-steps for stability — the same scheme as the SpiNNaker reference
// implementation:
//
//	v' = 0.04 v^2 + 5 v + 140 - u + I
//	u' = a (b v - u)
//	spike when v >= 30: v <- c, u <- u + d
func NewIzhikevichPopulation(n, maxDelay int, params IzhikevichParams) *Population {
	p := newPopulation(n, maxDelay, modelIzh)
	p.u = make([]Fix, n)
	p.izhA, p.izhB, p.izhC, p.izhD = F(params.A), F(params.B), F(params.C), F(params.D)
	for i := range p.v {
		p.v[i] = p.izhC
		p.u[i] = p.izhB.Mul(p.v[i])
	}
	return p
}

// stepLIF advances neuron i one tick. The scalar loop calls it;
// stepLIFChunked repeats the same expressions on hoisted parameters
// (integer fixed-point, identical evaluation order, so bit-exact —
// pinned by the differential tests against a per-neuron oracle).
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

// stepIzh advances neuron i one tick: two 0.5 ms half-steps.
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

// Size reports the neuron count.
func (p *Population) Size() int { return len(p.alive) }

// Tick reports the current tick number.
func (p *Population) Tick() uint64 { return p.tick }

// SeedTick sets the tick counter, aligning a freshly built population
// with machine time — used when a migrated core resumes a fragment.
func (p *Population) SeedTick(t uint64) { p.tick = t }

// Snap codes the population's dynamic state — tick, per-neuron liveness
// and state words, input ring, recorder — overlaying it onto a freshly
// built population of the same shape when decoding. A live neuron's
// state is two words: v, then LIF's cooling or Izhikevich's u.
func (p *Population) Snap(c *snap.Codec) {
	c.U64(&p.tick)
	if !c.FixedLen(len(p.alive), "population neurons") {
		return
	}
	for i, was := range p.alive {
		alive := was
		c.Bool(&alive)
		switch {
		case alive && !was:
			c.Fail(fmt.Errorf("neural: neuron %d alive in image but stateless in rebuild", i))
			return
		case alive:
			if !c.FixedLen(2, "neuron state words") {
				return
			}
			c.I32((*int32)(&p.v[i]))
			if p.model == modelLIF {
				c.I32(&p.cooling[i])
			} else {
				c.I32((*int32)(&p.u[i]))
			}
		case was:
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
// spike, matching published SpiNNaker kernel budgets, 2 per dead slot).
// With every neuron alive the state arrays step in SIMD-width chunks;
// otherwise a scalar per-lane loop checks liveness. Orders, costs and
// spike streams are identical.
func (p *Population) StepTick() (instructions uint64) {
	inputs := p.Ring.Advance()
	p.tick++
	var cost uint64 = 60
	switch {
	case p.dead == 0 && p.model == modelLIF:
		cost += p.stepLIFChunked(inputs)
	case p.dead == 0 && p.model == modelIzh:
		cost += p.stepIzhChunked(inputs)
	default:
		for i, alive := range p.alive {
			switch {
			case !alive: // dead neuron (fault-injection experiments) or source slot
				cost += 2
			case p.model == modelLIF:
				cost += p.fired(p.stepLIF(i, inputs[i]+p.Bias), i)
			default:
				cost += p.fired(p.stepIzh(i, inputs[i]+p.Bias), i)
			}
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
	if i < 0 || i >= len(p.alive) {
		return fmt.Errorf("neural: no neuron %d", i)
	}
	if p.alive[i] {
		p.alive[i] = false
		p.dead++
	}
	return nil
}

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
