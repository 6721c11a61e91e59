package neural

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"spinngo/internal/snap"
)

func TestSynWordRoundTrip(t *testing.T) {
	f := func(weight uint16, delay uint8, inhib bool, target uint8) bool {
		d := int(delay%MaxSynDelay) + 1
		w := MakeSynWord(weight, d, inhib, int(target))
		return w.Weight() == weight && w.Delay() == d &&
			w.Inhibitory() == inhib && w.Target() == int(target)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSynWordRejectsBadDelay(t *testing.T) {
	for _, d := range []int{0, 16, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("delay %d accepted", d)
				}
			}()
			MakeSynWord(1, d, false, 0)
		}()
	}
}

func TestSynWordWeightSign(t *testing.T) {
	scale := F(1.0 / 256)
	exc := MakeSynWord(256, 1, false, 0)
	inh := MakeSynWord(256, 1, true, 0)
	if got := exc.WeightFix(scale).Float(); got <= 0 {
		t.Errorf("excitatory weight %g, want positive", got)
	}
	if got := inh.WeightFix(scale).Float(); got >= 0 {
		t.Errorf("inhibitory weight %g, want negative", got)
	}
	if exc.WeightFix(scale) != -inh.WeightFix(scale) {
		t.Error("magnitudes differ between exc and inh")
	}
}

func TestMatrixStore(t *testing.T) {
	m := NewMatrix()
	row := Row{MakeSynWord(100, 2, false, 1), MakeSynWord(50, 3, true, 2)}
	m.AddRow(0x10, row)
	if m.Bytes != 8 {
		t.Errorf("Bytes = %d, want 8", m.Bytes)
	}
	got, ok := m.Row(0x10)
	if !ok || len(got) != 2 {
		t.Fatalf("Row lookup failed")
	}
	if _, ok := m.Row(0x11); ok {
		t.Error("missing row found")
	}
	// Replacing a row must not leak byte accounting.
	m.AddRow(0x10, Row{MakeSynWord(1, 1, false, 0)})
	if m.Bytes != 4 {
		t.Errorf("Bytes after replace = %d, want 4", m.Bytes)
	}
	if m.NumRows() != 1 {
		t.Errorf("NumRows = %d", m.NumRows())
	}
}

// TestMatrixMatchesMap holds the packed row table and its arena to a
// plain map over random key sets: hits, misses, rows replaced by
// shorter, equal and longer ones (which must leave every neighbour in
// the arena alone), plastic marks that outlive replacement and table
// growth, exact Bytes, ascending Keys, and a snapshot restored (in
// ascending order) over both an empty matrix and one rebuilt with stale
// rows of other lengths — whose plastic marks, a property of the rebuild
// and not of the image, must come through the overlay.
func TestMatrixMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		space := uint32(1) << (2 + rng.Intn(14)) // dense to sparse key sets
		m, oracle, plastic := NewMatrix(), make(map[uint32]Row), make(map[uint32]bool)
		for n := rng.Intn(300); n > 0; n-- {
			key := rng.Uint32() % space
			if rng.Intn(8) == 0 {
				key |= 0xffff0000 // both ends of the key range
			}
			row := make(Row, rng.Intn(5))
			for i := range row {
				row[i] = MakeSynWord(uint16(rng.Intn(1<<16)), 1+rng.Intn(MaxSynDelay), rng.Intn(2) == 0, rng.Intn(4))
			}
			m.AddRow(key, row) // replaces when the key repeats
			oracle[key] = row
			if rng.Intn(4) == 0 {
				m.SetPlastic(key)
				plastic[key] = true
			}
		}
		check := func(m *Matrix, what string, plastic map[uint32]bool) {
			t.Helper()
			size := 0
			for key, want := range oracle {
				size += want.SizeBytes()
				got, marked, ok := m.Lookup(key)
				if n, _ := m.RowBytes(key); !ok || !slices.Equal(got, want) || marked != plastic[key] || n != want.SizeBytes() {
					t.Fatalf("trial %d %s: Lookup(%#x) = %v, plastic %v, %v (%d bytes); want %v, plastic %v",
						trial, what, key, got, marked, ok, n, want, plastic[key])
				}
			}
			for probe := 0; probe < 200; probe++ {
				key := rng.Uint32() % (2 * space)
				if _, want := oracle[key]; !want {
					if row, ok := m.Row(key); ok || row != nil {
						t.Fatalf("trial %d %s: Row(%#x) found a row never added", trial, what, key)
					}
					if n, ok := m.RowBytes(key); ok || n != 0 {
						t.Fatalf("trial %d %s: RowBytes(%#x) = %d, %v for a row never added", trial, what, key, n, ok)
					}
				}
			}
			keys := m.Keys()
			if m.NumRows() != len(oracle) || len(keys) != len(oracle) || !slices.IsSorted(keys) || m.Bytes != size {
				t.Fatalf("trial %d %s: %d rows, %d keys (sorted %v), %d bytes; want %d rows, %d bytes",
					trial, what, m.NumRows(), len(keys), slices.IsSorted(keys), m.Bytes, len(oracle), size)
			}
		}
		check(m, "built", plastic)

		enc := snap.NewEncoder()
		m.Snap(enc, 4)
		image := enc.Bytes()
		stale, stalePlastic := NewMatrix(), make(map[uint32]bool)
		for key := range oracle {
			if rng.Intn(2) == 0 {
				stale.AddRow(key, make(Row, rng.Intn(5)))
				if rng.Intn(2) == 0 {
					stale.SetPlastic(key)
					stalePlastic[key] = true
				}
			}
		}
		for what, into := range map[string]*Matrix{"restored": NewMatrix(), "restored over stale rows": stale} {
			marks := map[uint32]bool{}
			if into == stale {
				marks = stalePlastic
			}
			dec := snap.NewDecoder(image)
			into.Snap(dec, 4)
			if err := dec.Err(); err != nil || dec.Remaining() != 0 {
				t.Fatalf("trial %d %s: err %v, %d bytes left", trial, what, err, dec.Remaining())
			}
			check(into, what, marks)
			again := snap.NewEncoder()
			into.Snap(again, 4)
			if !bytes.Equal(again.Bytes(), image) {
				t.Fatalf("trial %d %s: re-encoded image differs", trial, what)
			}
		}
	}
}

// BenchmarkMatrixRow is the per-packet lookup pair in a core-sized
// index, keys drawn in an order the branch predictor cannot learn: the
// packet handler's size-only probe of the table slot, then the DMA-done
// handler's slot-to-words fetch.
func BenchmarkMatrixRow(b *testing.B) {
	const rows = 1024
	m := NewMatrix()
	probe := make([]uint32, rows)
	for i := range probe {
		probe[i] = uint32(i)<<11 | uint32(i*7)&0xff // fragment base | neuron, as routing keys are
		m.AddRow(probe[i], Row{MakeSynWord(1, 1, false, 0)})
	}
	rand.New(rand.NewSource(1)).Shuffle(rows, func(i, j int) { probe[i], probe[j] = probe[j], probe[i] })
	b.ResetTimer()
	bytes, synapses := 0, 0
	for i := 0; i < b.N; i++ {
		n, _ := m.RowBytes(probe[i%rows])
		row, _, _ := m.Lookup(probe[i%rows])
		bytes += n
		synapses += len(row)
	}
	if synapses != b.N || bytes != 4*b.N {
		b.Fatalf("%d lookups hit %d synapses in %d bytes", b.N, synapses, bytes)
	}
}

func TestInputRingExactDelays(t *testing.T) {
	// E13 core property: a deposit with delay d arrives exactly d
	// Advances later, never early, never late.
	r := NewInputRing(4, MaxSynDelay)
	for d := 1; d <= MaxSynDelay; d++ {
		r.Deposit(d, 0, F(float64(d)))
	}
	for tick := 1; tick <= MaxSynDelay; tick++ {
		in := r.Advance()
		if got := in[0].Float(); got != float64(tick) {
			t.Errorf("tick %d received %g, want %g", tick, got, float64(tick))
		}
		r.ClearCurrent()
	}
}

func TestInputRingAccumulates(t *testing.T) {
	r := NewInputRing(2, 8)
	r.Deposit(3, 1, F(0.5))
	r.Deposit(3, 1, F(0.25))
	r.Advance()
	r.ClearCurrent()
	r.Advance()
	r.ClearCurrent()
	in := r.Advance()
	if got := in[1].Float(); got != 0.75 {
		t.Errorf("accumulated input = %g, want 0.75", got)
	}
}

func TestInputRingDropsOutOfRange(t *testing.T) {
	r := NewInputRing(1, 4)
	r.Deposit(5, 0, One)  // beyond ring
	r.Deposit(0, 0, One)  // delay 0 is not allowed (future ticks only)
	r.Deposit(-1, 0, One) // nonsense
	if r.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", r.Dropped)
	}
	for i := 0; i < 8; i++ {
		in := r.Advance()
		if in[0] != 0 {
			t.Error("dropped deposit appeared in a slot")
		}
		r.ClearCurrent()
	}
}

func TestInputRingSlotReuse(t *testing.T) {
	// After the ring wraps, old slots must be clean.
	r := NewInputRing(1, 3)
	r.Deposit(1, 0, One)
	in := r.Advance()
	if in[0] != One {
		t.Fatal("deposit missing")
	}
	r.ClearCurrent()
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < r.Slots(); i++ {
			in := r.Advance()
			if in[0] != 0 {
				t.Fatalf("stale value %v after wrap", in[0])
			}
			r.ClearCurrent()
		}
	}
}

func TestInputRingDelayPropertyQuick(t *testing.T) {
	f := func(delays []uint8) bool {
		r := NewInputRing(1, MaxSynDelay)
		// Deposit a distinguishable weight per delay; check arrival.
		pending := map[int]Fix{}
		for _, raw := range delays {
			d := int(raw%MaxSynDelay) + 1
			w := Fix(1) << 8
			r.Deposit(d, 0, w)
			pending[d] += w
		}
		for tick := 1; tick <= MaxSynDelay; tick++ {
			in := r.Advance()
			if in[0] != pending[tick] {
				return false
			}
			r.ClearCurrent()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
