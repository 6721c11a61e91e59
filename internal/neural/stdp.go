package neural

import (
	"fmt"
	"math"
	"sync"

	"spinngo/internal/snap"
)

// Spike-timing-dependent plasticity. Fig 7's DMA-complete task notes
// that "if the connectivity data is modified, a DMA must be scheduled to
// write the changes back into SDRAM" — synaptic rows are mutable state.
// This file implements the standard SpiNNaker-style deferred STDP rule:
// all weight updates happen when a presynaptic row is fetched (there is
// no per-post-spike access to the row, which lives in SDRAM), using
//
//   - a record of each postsynaptic neuron's recent spike times, kept in
//     DTCM by the timer task, and
//   - the row's stored time of its previous presynaptic spike.
//
// With nearest-neighbour pairing:
//
//	depression:   pre at t_pre after post at t_post:  dw = -A- * exp(-(t_pre-t_post)/tau-)
//	potentiation: post at t_post after pre at t_prev: dw = +A+ * exp(-(t_post-t_prev)/tau+)
//
// Weights are clamped to [WMin, WMax] in the packed 16-bit field.
type STDPConfig struct {
	// APlus and AMinus are the weight changes (in weight units) at
	// zero time difference.
	APlus, AMinus float64
	// TauPlusMS and TauMinusMS are the exponential window constants.
	TauPlusMS, TauMinusMS float64
	// WMin and WMax clamp the weight field.
	WMin, WMax uint16
}

// DefaultSTDP returns a conventional asymmetric Hebbian rule.
func DefaultSTDP() STDPConfig {
	return STDPConfig{APlus: 16, AMinus: 17, TauPlusMS: 20, TauMinusMS: 20, WMin: 0, WMax: 65535}
}

// Validate rejects a rule whose weight changes are not finite, whose
// windows are not finite and positive, or whose clamp is empty: any of
// them turns a decay term or a weight into NaN, and a NaN weight's
// conversion to the 16-bit field depends on the platform.
func (cfg *STDPConfig) Validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case !finite(cfg.APlus) || !finite(cfg.AMinus):
		return fmt.Errorf("STDP weight changes %g, %g are not finite", cfg.APlus, cfg.AMinus)
	case !(finite(cfg.TauPlusMS) && cfg.TauPlusMS > 0) || !(finite(cfg.TauMinusMS) && cfg.TauMinusMS > 0):
		return fmt.Errorf("STDP windows %g, %g ms are not finite and positive", cfg.TauPlusMS, cfg.TauMinusMS)
	case cfg.WMin > cfg.WMax:
		return fmt.Errorf("STDP clamp [%d, %d] is empty", cfg.WMin, cfg.WMax)
	}
	return nil
}

// postHistory is a small ring of a neuron's recent spike ticks, newest
// first — the DTCM post-spike record.
type postHistory struct {
	ticks [4]uint64
	n     int
}

func (h *postHistory) add(t uint64) {
	copy(h.ticks[1:], h.ticks[:len(h.ticks)-1])
	h.ticks[0] = t
	if h.n < len(h.ticks) {
		h.n++
	}
}

// latest returns the most recent post spike at or before t.
func (h *postHistory) latest(t uint64) (uint64, bool) {
	for i := 0; i < h.n; i++ {
		if h.ticks[i] <= t {
			return h.ticks[i], true
		}
	}
	return 0, false
}

// firstAfter returns the earliest recorded post spike strictly after t.
func (h *postHistory) firstAfter(t uint64) (uint64, bool) {
	best := uint64(0)
	found := false
	for i := 0; i < h.n; i++ {
		if h.ticks[i] > t && (!found || h.ticks[i] < best) {
			best = h.ticks[i]
			found = true
		}
	}
	return best, found
}

// decayTicks bounds the pairing intervals whose decay terms the shared
// table holds; a longer interval evaluates its term as the rule states.
// Past 256 ticks the default rule's terms are below 1e-4 weight units.
const decayTicks = 256

// decayTable holds, for every whole-tick interval k below decayTicks, the
// two terms of the rule, each filled by the very expression ProcessRow
// evaluates past the table: reading one is bit-identical to computing it.
type decayTable struct {
	plus, minus [decayTicks]float64
}

// decayTables shares one table between every population of a rule: a
// machine has a rule or two and hundreds of plastic cores. Tables are
// keyed by the bits of the four parameters they depend on and never
// change once built, so machines and tests sharing one cannot see each
// other; the cache starts over if a process ever sees more than a few
// dozen rules.
var decayTables struct {
	sync.Mutex
	byRule map[[4]uint64]*decayTable
}

// decayFor returns the shared table of cfg's rule.
func decayFor(cfg STDPConfig) *decayTable {
	key := [4]uint64{math.Float64bits(cfg.APlus), math.Float64bits(cfg.AMinus),
		math.Float64bits(cfg.TauPlusMS), math.Float64bits(cfg.TauMinusMS)}
	decayTables.Lock()
	defer decayTables.Unlock()
	if t := decayTables.byRule[key]; t != nil {
		return t
	}
	if len(decayTables.byRule) >= 64 || decayTables.byRule == nil {
		decayTables.byRule = make(map[[4]uint64]*decayTable)
	}
	t := new(decayTable)
	for k := range t.plus {
		t.plus[k] = cfg.plus(uint64(k))
		t.minus[k] = cfg.minus(uint64(k))
	}
	decayTables.byRule[key] = t
	return t
}

// plus is the potentiation of a pair dt ticks apart.
func (cfg *STDPConfig) plus(dt uint64) float64 {
	return cfg.APlus * math.Exp(-float64(dt)/cfg.TauPlusMS)
}

// minus is the (negative) depression of a pair dt ticks apart.
func (cfg *STDPConfig) minus(dt uint64) float64 {
	return -cfg.AMinus * math.Exp(-float64(dt)/cfg.TauMinusMS)
}

// STDPState is the plasticity machinery of one population (the post
// side of its incoming plastic projections).
type STDPState struct {
	cfg   STDPConfig
	decay *decayTable // shared by every population of the rule
	// post spike records, one per neuron.
	hist []postHistory
	// lastPre holds, by the row's rank in the population's Matrix, the
	// tick of the row's previous pre spike plus one; 0 means none yet.
	// It is the row-header field of the real machine, and grows to the
	// highest rank processed.
	lastPre []uint64
	// Potentiations and Depressions count applied updates.
	Potentiations uint64
	Depressions   uint64
}

// NewSTDPState builds the state for n neurons under rule cfg.
func NewSTDPState(n int, cfg STDPConfig) *STDPState {
	return &STDPState{cfg: cfg, decay: decayFor(cfg), hist: make([]postHistory, n)}
}

// RecordPost notes a postsynaptic spike (called from the timer task).
func (s *STDPState) RecordPost(neuron int, tick uint64) { s.hist[neuron].add(tick) }

// clampAdd applies a signed delta to a weight with saturation.
func (s *STDPState) clampAdd(w uint16, dw float64) uint16 {
	v := float64(w) + dw
	if v < float64(s.cfg.WMin) {
		v = float64(s.cfg.WMin)
	}
	if v > float64(s.cfg.WMax) {
		v = float64(s.cfg.WMax)
	}
	return uint16(v + 0.5)
}

// ProcessRow applies deferred STDP to a plastic row on its presynaptic
// spike at tick now; rank is the row's rank in the population's Matrix
// (Matrix.Lookup reports it). It mutates the row in place and reports
// whether any weight changed (the caller then schedules the SDRAM
// write-back DMA of Fig 7) plus the extra instruction cost.
func (s *STDPState) ProcessRow(rank uint32, row Row, now uint64) (dirty bool, instructions uint64) {
	if int(rank) >= len(s.lastPre) {
		s.lastPre = append(s.lastPre, make([]uint64, int(rank)+1-len(s.lastPre))...)
	}
	prev, hadPrev := s.lastPre[rank]-1, s.lastPre[rank] != 0
	s.lastPre[rank] = now + 1
	cost := uint64(20)
	for i, syn := range row {
		j := syn.Target()
		w := syn.Weight()
		orig := w
		// Potentiation: the first post spike after the previous pre
		// spike of this row pairs with that pre spike.
		if hadPrev {
			if tPost, ok := s.hist[j].firstAfter(prev); ok && tPost <= now {
				dw := 0.0
				if dt := tPost - prev; dt < decayTicks {
					dw = s.decay.plus[dt]
				} else {
					dw = s.cfg.plus(dt)
				}
				w = s.clampAdd(w, dw)
				s.Potentiations++
			}
		}
		// Depression: the most recent post spike before this pre spike.
		if tPost, ok := s.hist[j].latest(now); ok {
			dw := 0.0
			if dt := now - tPost; dt < decayTicks {
				dw = s.decay.minus[dt]
			} else {
				dw = s.cfg.minus(dt)
			}
			w = s.clampAdd(w, dw)
			s.Depressions++
		}
		if w != orig {
			row[i] = MakeSynWord(w, syn.Delay(), syn.Inhibitory(), j)
			dirty = true
		}
		cost += 25
	}
	return dirty, cost
}

// Snap codes the plasticity machinery's dynamic state — the post-spike
// histories of a population of the same neuron count, then the last
// pre-spike ticks as (count, key, tick) records in ascending key order,
// which is rank order in m, the population's synaptic store. Decoding a
// record whose key has no row in m, or keys that do not strictly ascend,
// is an error.
func (s *STDPState) Snap(c *snap.Codec, m *Matrix) {
	if !c.FixedLen(len(s.hist), "STDP post-spike histories") {
		return
	}
	for i := range s.hist {
		h := &s.hist[i]
		for j := range h.ticks {
			c.U64(&h.ticks[j])
		}
		c.Int(&h.n)
		if c.Decoding() && (h.n < 0 || h.n > len(h.ticks)) {
			c.Fail(fmt.Errorf("neural: neuron %d post-spike history length %d", i, h.n))
			h.n = 0
		}
	}
	if c.Decoding() {
		s.decodeLastPre(c, m)
	} else {
		keys := m.Keys()
		n := 0
		for _, t := range s.lastPre {
			if t != 0 {
				n++
			}
		}
		c.Len(n)
		for r, t := range s.lastPre {
			if t != 0 {
				key, tick := keys[r], t-1
				c.U32(&key)
				c.U64(&tick)
			}
		}
	}
	c.U64(&s.Potentiations)
	c.U64(&s.Depressions)
}

// decodeLastPre is the decoding half of Snap's last pre-spike records.
// Rank order is key order, so strictly ascending keys have strictly
// ascending ranks.
func (s *STDPState) decodeLastPre(c *snap.Codec, m *Matrix) {
	s.lastPre = make([]uint64, m.NumRows())
	n := c.Len(0)
	last := -1 // the previous record's rank
	for i := 0; i < n && c.Err() == nil; i++ {
		var key uint32
		var tick uint64
		c.U32(&key)
		c.U64(&tick)
		r, ok := m.rank(key)
		switch {
		case c.Err() != nil:
		case !ok:
			c.Fail(fmt.Errorf("neural: last pre-spike recorded for row %#x, which the store does not hold", key))
		case int(r) <= last:
			c.Fail(fmt.Errorf("neural: last pre-spike of row %#x follows a later row's", key))
		case tick == math.MaxUint64:
			c.Fail(fmt.Errorf("neural: row %#x last pre-spike tick %d out of range", key, tick))
		default:
			s.lastPre[r] = tick + 1
			last = int(r)
		}
	}
}
