package neural

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spinngo/internal/snap"
)

func plasticRow(weight uint16) Row {
	return Row{MakeSynWord(weight, 1, false, 0)}
}

func TestSTDPPotentiationPrePost(t *testing.T) {
	// Pre at 10, post at 15, next pre at 30: the pairing pre(10)->
	// post(15) must potentiate when the row is next fetched.
	s := NewSTDPState(1, DefaultSTDP())
	row := plasticRow(1000)
	s.ProcessRow(1, row, 10) // establishes lastPre = 10
	s.RecordPost(0, 15)
	dirty, _ := s.ProcessRow(1, row, 30)
	if !dirty {
		t.Fatal("row not marked dirty")
	}
	// Expected: +APlus*exp(-5/20) then depression -AMinus*exp(-15/20).
	cfg := DefaultSTDP()
	want := 1000.0 + cfg.APlus*math.Exp(-5.0/20) - cfg.AMinus*math.Exp(-15.0/20)
	got := float64(row[0].Weight())
	if math.Abs(got-want) > 1.0 {
		t.Errorf("weight = %g, want ~%g", got, want)
	}
	if s.Potentiations != 1 || s.Depressions != 1 {
		t.Errorf("pot/dep = %d/%d, want 1/1", s.Potentiations, s.Depressions)
	}
}

func TestSTDPDepressionPostPre(t *testing.T) {
	// Post at 5, pre at 10: depression only.
	s := NewSTDPState(1, DefaultSTDP())
	row := plasticRow(1000)
	s.RecordPost(0, 5)
	dirty, _ := s.ProcessRow(1, row, 10)
	if !dirty {
		t.Fatal("row not dirty after depression")
	}
	cfg := DefaultSTDP()
	want := 1000 - cfg.AMinus*math.Exp(-5.0/20)
	if got := float64(row[0].Weight()); math.Abs(got-want) > 1.0 {
		t.Errorf("weight = %g, want ~%g", got, want)
	}
	if s.Potentiations != 0 {
		t.Errorf("unexpected potentiation")
	}
}

func TestSTDPCausalOrderingNetEffect(t *testing.T) {
	// Repeated pre->post pairing at +5 ms must strengthen; repeated
	// post->pre pairing at -5 ms must weaken.
	run := func(postOffset int64) uint16 {
		s := NewSTDPState(1, DefaultSTDP())
		row := plasticRow(30000)
		tick := uint64(100)
		for i := 0; i < 50; i++ {
			// Events apply in time order: a post spike preceding the
			// pre spike is already in the history when the row is
			// fetched.
			if postOffset < 0 {
				s.RecordPost(0, uint64(int64(tick)+postOffset))
				s.ProcessRow(1, row, tick)
			} else {
				s.ProcessRow(1, row, tick)
				s.RecordPost(0, uint64(int64(tick)+postOffset))
			}
			tick += 100 // well beyond both windows
		}
		return row[0].Weight()
	}
	strengthened := run(+5)
	weakened := run(-5)
	if strengthened <= 30000 {
		t.Errorf("causal pairing did not strengthen: %d", strengthened)
	}
	if weakened >= 30000 {
		t.Errorf("anti-causal pairing did not weaken: %d", weakened)
	}
}

func TestSTDPClamping(t *testing.T) {
	cfg := DefaultSTDP()
	cfg.WMax = 1005
	s := NewSTDPState(1, cfg)
	row := plasticRow(1000)
	tick := uint64(10)
	for i := 0; i < 100; i++ {
		s.ProcessRow(1, row, tick)
		s.RecordPost(0, tick+1)
		tick += 100
	}
	if w := row[0].Weight(); w > 1005 {
		t.Errorf("weight %d exceeded WMax", w)
	}
	// Drive to the floor.
	cfg = DefaultSTDP()
	cfg.WMin = 995
	s = NewSTDPState(1, cfg)
	row = plasticRow(1000)
	tick = uint64(10)
	for i := 0; i < 100; i++ {
		s.RecordPost(0, tick-1)
		s.ProcessRow(1, row, tick)
		tick += 100
	}
	if w := row[0].Weight(); w < 995 {
		t.Errorf("weight %d fell below WMin", w)
	}
}

func TestSTDPWindowDecay(t *testing.T) {
	// A +2 ms pairing must potentiate more than a +15 ms pairing.
	gain := func(dt uint64) float64 {
		s := NewSTDPState(1, DefaultSTDP())
		row := plasticRow(1000)
		s.ProcessRow(1, row, 10)
		s.RecordPost(0, 10+dt)
		s.ProcessRow(1, row, 200) // far away: negligible depression
		return float64(row[0].Weight()) - 1000
	}
	if gain(2) <= gain(15) {
		t.Errorf("gain(2ms)=%g not above gain(15ms)=%g", gain(2), gain(15))
	}
}

func TestSTDPCleanRowNotDirty(t *testing.T) {
	s := NewSTDPState(1, DefaultSTDP())
	row := plasticRow(1000)
	// No post activity at all: nothing to update.
	dirty, _ := s.ProcessRow(1, row, 10)
	if dirty {
		t.Error("row dirty with no post spikes")
	}
	if row[0].Weight() != 1000 {
		t.Error("weight changed with no post spikes")
	}
}

func TestPostHistoryRing(t *testing.T) {
	var h postHistory
	for _, tk := range []uint64{10, 20, 30, 40, 50} {
		h.add(tk)
	}
	if got, ok := h.latest(45); !ok || got != 40 {
		t.Errorf("latest(45) = %d, %v", got, ok)
	}
	if got, ok := h.firstAfter(25); !ok || got != 30 {
		t.Errorf("firstAfter(25) = %d, %v", got, ok)
	}
	if _, ok := h.firstAfter(60); ok {
		t.Error("firstAfter beyond newest should fail")
	}
	// Oldest entry (10) fell off the 4-deep ring.
	if _, ok := h.latest(15); ok {
		t.Error("evicted entry still visible")
	}
}

// stdpOracle is the rule as first written: each row's last pre spike in a
// map by key, and every decay term from math.Exp. ProcessRow, with its
// rank-indexed ticks and shared decay table, must agree with it bit for
// bit.
type stdpOracle struct {
	cfg      STDPConfig
	hist     []postHistory
	lastPre  map[uint32]uint64
	pot, dep uint64
}

func (s *stdpOracle) clampAdd(w uint16, dw float64) uint16 {
	v := float64(w) + dw
	if v < float64(s.cfg.WMin) {
		v = float64(s.cfg.WMin)
	}
	if v > float64(s.cfg.WMax) {
		v = float64(s.cfg.WMax)
	}
	return uint16(v + 0.5)
}

func (s *stdpOracle) processRow(key uint32, row Row, now uint64) (dirty bool, instructions uint64) {
	prev, hadPrev := s.lastPre[key]
	s.lastPre[key] = now
	cost := uint64(20)
	for i, syn := range row {
		j := syn.Target()
		w := syn.Weight()
		orig := w
		if hadPrev {
			if tPost, ok := s.hist[j].firstAfter(prev); ok && tPost <= now {
				dt := float64(tPost - prev)
				w = s.clampAdd(w, s.cfg.APlus*math.Exp(-dt/s.cfg.TauPlusMS))
				s.pot++
			}
		}
		if tPost, ok := s.hist[j].latest(now); ok {
			dt := float64(now - tPost)
			w = s.clampAdd(w, -s.cfg.AMinus*math.Exp(-dt/s.cfg.TauMinusMS))
			s.dep++
		}
		if w != orig {
			row[i] = MakeSynWord(w, syn.Delay(), syn.Inhibitory(), j)
			dirty = true
		}
		cost += 25
	}
	return dirty, cost
}

// TestSTDPMatchesOracle drives ProcessRow and the oracle with the same
// random rows, post-spike histories and pre spikes, under the default rule
// and two with other windows and clamps, and requires the same rows,
// dirty flags, costs and counters. Gaps between ticks reach past the
// decay table, so both of its sides are compared.
func TestSTDPMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rules := []STDPConfig{DefaultSTDP(),
		{APlus: 3.3, AMinus: 41.7, TauPlusMS: 7.25, TauMinusMS: 61, WMin: 100, WMax: 60000},
		{APlus: 900, AMinus: 0.5, TauPlusMS: 130, TauMinusMS: 1.5, WMin: 0, WMax: 2000}}
	for r, cfg := range rules {
		const neurons = 24
		m := NewMatrix()
		key := uint32(0)
		for i := 0; i < 40; i++ {
			key += 1 + uint32(rng.Intn(90))
			row := make(Row, 1+rng.Intn(30))
			for j := range row {
				row[j] = MakeSynWord(uint16(rng.Intn(65536)), 1+rng.Intn(MaxSynDelay), rng.Intn(4) == 0, rng.Intn(neurons))
			}
			m.AddRow(key, row, true)
		}
		keys := m.Keys()
		ref := NewMatrix()
		for _, k := range keys {
			row, _, _, _ := m.Lookup(k)
			ref.AddRow(k, row, true)
		}
		s := NewSTDPState(neurons, cfg)
		o := &stdpOracle{cfg: cfg, hist: make([]postHistory, neurons), lastPre: make(map[uint32]uint64)}
		tick := uint64(1)
		for step := 0; step < 3000; step++ {
			if rng.Intn(8) == 0 {
				tick += uint64(rng.Intn(600)) // past the table
			} else {
				tick += uint64(rng.Intn(4))
			}
			for n := rng.Intn(4); n > 0; n-- {
				j := rng.Intn(neurons)
				s.RecordPost(j, tick)
				o.hist[j].add(tick)
			}
			k := keys[rng.Intn(len(keys))]
			row, rank, _, _ := m.Lookup(k)
			want, _, _, _ := ref.Lookup(k)
			dirty, cost := s.ProcessRow(rank, row, tick)
			wantDirty, wantCost := o.processRow(k, want, tick)
			if dirty != wantDirty || cost != wantCost || !slices.Equal(row, want) {
				t.Fatalf("rule %d step %d row %#x at tick %d: dirty %v cost %d row %v; oracle %v, %d, %v",
					r, step, k, tick, dirty, cost, row, wantDirty, wantCost, want)
			}
			if s.Potentiations != o.pot || s.Depressions != o.dep {
				t.Fatalf("rule %d step %d: potentiations/depressions %d/%d, oracle %d/%d",
					r, step, s.Potentiations, s.Depressions, o.pot, o.dep)
			}
		}
		if o.pot == 0 || o.dep == 0 {
			t.Fatalf("rule %d: %d potentiations, %d depressions; want both", r, o.pot, o.dep)
		}
	}
}

// TestSTDPDecayTable: each entry carries the bits of the rule's
// expression at its interval, the populations of one rule share one
// table, and another rule gets its own.
func TestSTDPDecayTable(t *testing.T) {
	cfg := STDPConfig{APlus: 3.3, AMinus: 41.7, TauPlusMS: 7.25, TauMinusMS: 61, WMax: 65535}
	a, b := NewSTDPState(4, cfg), NewSTDPState(9, cfg)
	for k := range decayTicks {
		dt := float64(k)
		plus, minus := cfg.APlus*math.Exp(-dt/cfg.TauPlusMS), -cfg.AMinus*math.Exp(-dt/cfg.TauMinusMS)
		if math.Float64bits(a.decay.plus[k]) != math.Float64bits(plus) || math.Float64bits(a.decay.minus[k]) != math.Float64bits(minus) {
			t.Fatalf("interval %d: table holds %v, %v; the rule gives %v, %v", k, a.decay.plus[k], a.decay.minus[k], plus, minus)
		}
	}
	other := cfg
	other.TauMinusMS++
	if a.decay != b.decay || a.decay == NewSTDPState(4, other).decay {
		t.Error("one rule's populations do not share a table, or two rules do")
	}
}

// TestSTDPLastPreImage pins the image of the last pre-spike ticks to the
// (count, key, tick) records in ascending key order that a map by key
// coded with snap.Map writes, round-trips it, and rejects a record for a
// key with no row or keys out of order.
func TestSTDPLastPreImage(t *testing.T) {
	s, m := plasticState(4)
	enc := snap.NewEncoder()
	s.Snap(enc, m)
	image := enc.Bytes()

	want := snap.NewEncoder()
	NewSTDPState(4, DefaultSTDP()).Snap(want, NewMatrix()) // histories left empty
	byKey := map[uint32]uint64{0x08: 20, 0x40: 25}
	ref := snap.NewEncoder()
	snap.Map(ref, &byKey, func(tick *uint64) { ref.U64(tick) })
	histories := len(want.Bytes()) - 4 - 16 // the empty map's count and the two counters
	tail := image[histories : len(image)-16]
	if !bytes.Equal(tail, ref.Bytes()) {
		t.Fatalf("last pre-spike records % x, want the map's % x", tail, ref.Bytes())
	}

	into := NewSTDPState(4, DefaultSTDP())
	dec := snap.NewDecoder(image)
	into.Snap(dec, m)
	if err := dec.Err(); err != nil || dec.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, dec.Remaining())
	}
	if !slices.Equal(into.lastPre, []uint64{21, 0, 26}) {
		t.Fatalf("decoded last pre-spike slots %v, want [21 0 26]", into.lastPre)
	}

	for _, c := range []struct {
		name string
		keys [2]uint32
		err  string
	}{
		{"key with no row", [2]uint32{0x08, 0x41}, "does not hold"},
		{"keys out of order", [2]uint32{0x40, 0x08}, "follows"},
	} {
		bad := bytes.Clone(image)
		recs := histories + 4
		for i, k := range c.keys {
			copy(bad[recs+12*i:], []byte{byte(k), byte(k >> 8), byte(k >> 16), byte(k >> 24)})
		}
		dec := snap.NewDecoder(bad)
		NewSTDPState(4, DefaultSTDP()).Snap(dec, m)
		if err := dec.Err(); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: decode error %v, want one saying %q", c.name, err, c.err)
		}
	}
}

// BenchmarkSTDPProcessRow applies the rule to a 128-synapse row of a
// 64-row store once a tick while every fourth target neuron fires every
// eighth tick, so both pairings occur; ns/synapse is the figure.
func BenchmarkSTDPProcessRow(b *testing.B) {
	m := NewMatrix()
	for key := uint32(0); key < 64; key++ {
		row := make(Row, 128)
		for i := range row {
			row[i] = MakeSynWord(uint16(64+i), 1+i%MaxSynDelay, false, i%256)
		}
		m.AddRow(key, row, true)
	}
	s := NewSTDPState(256, DefaultSTDP())
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		now := uint64(i + 1)
		if i%8 == 0 {
			for n := 0; n < 256; n += 4 {
				s.RecordPost(n, now)
			}
		}
		row, rank, _, _ := m.Lookup(uint32(i % 64))
		s.ProcessRow(rank, row, now)
		i++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/128, "ns/synapse")
}
