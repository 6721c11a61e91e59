package neural

import (
	"fmt"
	"math"

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

// STDPState is the plasticity machinery of one population (the post
// side of its incoming plastic projections).
type STDPState struct {
	Cfg STDPConfig
	// post spike records, one per neuron.
	hist []postHistory
	// lastPre maps row key -> tick of the row's previous pre spike.
	lastPre map[uint32]uint64
	// Potentiations and Depressions count applied updates.
	Potentiations uint64
	Depressions   uint64
}

// NewSTDPState builds the state for n neurons.
func NewSTDPState(n int, cfg STDPConfig) *STDPState {
	return &STDPState{Cfg: cfg, hist: make([]postHistory, n), lastPre: make(map[uint32]uint64)}
}

// RecordPost notes a postsynaptic spike (called from the timer task).
func (s *STDPState) RecordPost(neuron int, tick uint64) { s.hist[neuron].add(tick) }

// clampAdd applies a signed delta to a weight with saturation.
func (s *STDPState) clampAdd(w uint16, dw float64) uint16 {
	v := float64(w) + dw
	if v < float64(s.Cfg.WMin) {
		v = float64(s.Cfg.WMin)
	}
	if v > float64(s.Cfg.WMax) {
		v = float64(s.Cfg.WMax)
	}
	return uint16(v + 0.5)
}

// ProcessRow applies deferred STDP to a plastic row on its presynaptic
// spike at tick now. It mutates the row in place and reports whether any
// weight changed (the caller then schedules the SDRAM write-back DMA of
// Fig 7) plus the extra instruction cost.
func (s *STDPState) ProcessRow(key uint32, row Row, now uint64) (dirty bool, instructions uint64) {
	prev, hadPrev := s.lastPre[key]
	s.lastPre[key] = now
	cost := uint64(20)
	for i, syn := range row {
		j := syn.Target()
		w := syn.Weight()
		orig := w
		// Potentiation: the first post spike after the previous pre
		// spike of this row pairs with that pre spike.
		if hadPrev {
			if tPost, ok := s.hist[j].firstAfter(prev); ok && tPost <= now {
				dt := float64(tPost - prev)
				w = s.clampAdd(w, s.Cfg.APlus*math.Exp(-dt/s.Cfg.TauPlusMS))
				s.Potentiations++
			}
		}
		// Depression: the most recent post spike before this pre spike.
		if tPost, ok := s.hist[j].latest(now); ok {
			dt := float64(now - tPost)
			w = s.clampAdd(w, -s.Cfg.AMinus*math.Exp(-dt/s.Cfg.TauMinusMS))
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
// pre-spike ticks in ascending key order.
func (s *STDPState) Snap(c *snap.Codec) {
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
	snap.Map(c, &s.lastPre, func(tick *uint64) { c.U64(tick) })
	c.U64(&s.Potentiations)
	c.U64(&s.Depressions)
}
