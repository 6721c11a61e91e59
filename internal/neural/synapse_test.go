package neural

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
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
	m.AddRow(0x10, row, false)
	m.AddRow(0x11, Row{MakeSynWord(1, 1, false, 0)}, true)
	if m.Bytes() != 12 {
		t.Errorf("Bytes = %d, want 12", m.Bytes())
	}
	if got, _, plastic, ok := m.Lookup(0x10); !ok || plastic || !slices.Equal(got, row) {
		t.Fatalf("Lookup(0x10) = %v, plastic %v, %v", got, plastic, ok)
	}
	if _, _, plastic, ok := m.Lookup(0x11); !ok || !plastic {
		t.Error("plastic row lost its mark")
	}
	if _, _, _, ok := m.Lookup(0x12); ok {
		t.Error("missing row found")
	}
	if m.NumRows() != 2 {
		t.Errorf("NumRows = %d", m.NumRows())
	}
	// Rows go in in ascending key order; anything else is a toolchain bug.
	for _, key := range []uint32{0x11, 0x10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("row %#x added after row 0x11 without a panic", key)
				}
			}()
			m.AddRow(key, row, false)
		}()
	}
}

// matrixNeurons is the population the test matrices' rows target.
const matrixNeurons = 4

// synRow derives a row of n synapses from its key, so a test case names a
// row by its length alone.
func synRow(key uint32, n int, salt uint32) Row {
	row := make(Row, n)
	for j := range row {
		v := key*0x9E3779B1 + uint32(j)*7 + salt
		row[j] = MakeSynWord(uint16(v>>8), 1+int(v%MaxSynDelay), v&1 != 0, j%matrixNeurons)
	}
	return row
}

// rowSet is the oracle a Matrix is held to: a plain map of rows, and the
// plastic marks.
type rowSet struct {
	rows    map[uint32]Row
	plastic map[uint32]bool
}

func newRowSet() rowSet { return rowSet{make(map[uint32]Row), make(map[uint32]bool)} }

// matrix builds the store holding s.
func (s rowSet) matrix() *Matrix {
	m := NewMatrix()
	for _, key := range slices.Sorted(maps.Keys(s.rows)) {
		m.AddRow(key, s.rows[key], s.plastic[key])
	}
	return m
}

// The flag byte of a matrixCase record.
const (
	casePlastic      = 1 << 0 // the built row is plastic
	caseStale        = 1 << 1 // the stale rebuild holds the key too
	caseStalePlastic = 1 << 2 // ... marked plastic
	caseStaleShift   = 3      // bits 3..5: the stale row's length
	caseStaleOnly    = 1 << 6 // only the stale rebuild holds the key
)

// matrixCase reads 6-byte records — a key (little-endian), a row length
// (mod 8) and a flag byte — into the rows a built store (and so its
// image) holds and a stale rebuild to restore that image over. A
// repeated key takes its last record.
func matrixCase(data []byte) (built, stale rowSet) {
	built, stale = newRowSet(), newRowSet()
	for ; len(data) >= 6; data = data[6:] {
		key, n, flags := binary.LittleEndian.Uint32(data), int(data[4]%8), data[5]
		for _, s := range []rowSet{built, stale} {
			delete(s.rows, key)
			delete(s.plastic, key)
		}
		if flags&caseStaleOnly == 0 {
			built.rows[key] = synRow(key, n, 0)
			built.plastic[key] = flags&casePlastic != 0
		}
		if flags&(caseStale|caseStaleOnly) != 0 {
			stale.rows[key] = synRow(key, int(flags>>caseStaleShift&7), 1)
			stale.plastic[key] = flags&caseStalePlastic != 0
		}
	}
	return built, stale
}

// checkMatrix holds m to want: every row, its size and plastic mark on a
// hit; nothing for the keys beside each row, within its block and across
// the block edges, nor for either end of the key range; and Keys,
// NumRows and Bytes.
func checkMatrix(t *testing.T, m *Matrix, want rowSet, what string) {
	t.Helper()
	keys := slices.Sorted(maps.Keys(want.rows))
	size := 0
	probes := []uint32{0, 0xffffffff}
	for i, key := range keys {
		row := want.rows[key]
		size += row.SizeBytes()
		got, rank, plastic, ok := m.Lookup(key)
		if n, hit := m.RowBytes(key); !ok || !hit || !slices.Equal(got, row) || plastic != want.plastic[key] || n != row.SizeBytes() {
			t.Fatalf("%s: Lookup(%#x) = %v, plastic %v, %v; RowBytes %d, %v; want %v, plastic %v",
				what, key, got, plastic, ok, n, hit, row, want.plastic[key])
		}
		if int(rank) != i {
			t.Fatalf("%s: Lookup(%#x) reports rank %d, want %d", what, key, rank, i)
		}
		probes = append(probes, key-1, key+1, key^32, key-64, key+64)
	}
	for _, key := range probes {
		if _, in := want.rows[key]; in {
			continue
		}
		if row, _, plastic, ok := m.Lookup(key); ok || plastic || row != nil {
			t.Fatalf("%s: Lookup(%#x) found a row never added", what, key)
		}
		if n, ok := m.RowBytes(key); ok || n != 0 {
			t.Fatalf("%s: RowBytes(%#x) = %d, %v for a row never added", what, key, n, ok)
		}
	}
	if got := m.Keys(); !slices.Equal(got, keys) || m.NumRows() != len(keys) || m.Bytes() != size {
		t.Fatalf("%s: keys %x, %d rows, %d bytes; want keys %x, %d bytes", what, got, m.NumRows(), m.Bytes(), keys, size)
	}
}

// encodeMatrix returns m's image.
func encodeMatrix(m *Matrix) []byte {
	enc := snap.NewEncoder()
	m.Snap(enc, matrixNeurons)
	return enc.Bytes()
}

// matrixMatchesMap builds the store a case describes and holds it to its
// map; then restores its image over an empty store (the image's rows,
// no plastic marks) and over the stale rebuild (the image's rows replace
// the rebuild's, rows only the rebuild holds stay, the marks are the
// rebuild's), holding each to its map and its re-encoding to the image
// of that map; and checks that a truncated image is an error that leaves
// the rebuild as it was.
func matrixMatchesMap(t *testing.T, data []byte) {
	built, stale := matrixCase(data)
	m := built.matrix()
	checkMatrix(t, m, built, "built")
	image := encodeMatrix(m)

	merged := rowSet{maps.Clone(stale.rows), stale.plastic}
	maps.Copy(merged.rows, built.rows)
	for _, c := range []struct {
		what string
		into *Matrix
		want rowSet
	}{
		{"restored", NewMatrix(), rowSet{built.rows, nil}},
		{"restored over a stale rebuild", stale.matrix(), merged},
	} {
		dec := snap.NewDecoder(image)
		c.into.Snap(dec, matrixNeurons)
		if err := dec.Err(); err != nil || dec.Remaining() != 0 {
			t.Fatalf("%s: err %v, %d bytes left", c.what, err, dec.Remaining())
		}
		checkMatrix(t, c.into, c.want, c.what)
		if !bytes.Equal(encodeMatrix(c.into), encodeMatrix(c.want.matrix())) {
			t.Fatalf("%s: re-encoded image differs", c.what)
		}
	}

	into := stale.matrix()
	dec := snap.NewDecoder(image[:len(image)-1])
	into.Snap(dec, matrixNeurons)
	if dec.Err() == nil {
		t.Fatal("truncated image restored without error")
	}
	checkMatrix(t, into, stale, "after a truncated restore")
}

// TestMatrixMatchesMap runs matrixMatchesMap over random key sets, dense
// to sparse, at both ends of the key range, with empty rows, plastic
// marks and stale rebuilds of other shapes.
func TestMatrixMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		space := uint32(1) << (2 + rng.Intn(14))
		var data []byte
		for n := rng.Intn(300); n > 0; n-- {
			key := rng.Uint32() % space
			if rng.Intn(8) == 0 {
				key |= 0xffff0000
			}
			data = binary.LittleEndian.AppendUint32(data, key)
			data = append(data, byte(rng.Intn(5)), byte(rng.Intn(256)))
		}
		t.Run(fmt.Sprint(trial), func(t *testing.T) { matrixMatchesMap(t, data) })
	}
}

// FuzzMatrix is matrixMatchesMap over arbitrary cases; the seeds in
// testdata/fuzz/FuzzMatrix cover the block edges (keys 63, 64, 65), both
// ends of the key range, a full 64-key block, empty rows, plastic marks
// and stale rebuilds.
func FuzzMatrix(f *testing.F) {
	f.Fuzz(matrixMatchesMap)
}

// BenchmarkMatrixRow is the per-packet lookup pair in one core's index,
// keys drawn in an order the branch predictor cannot learn: the packet
// handler's size-only probe, then on a hit the DMA-done handler's fetch.
// The core hears 256 sixteen-neuron fragments (fragment base | neuron, as
// routing keys are) and holds rows for 39 % of their neurons; /hit
// probes only those, /miss every neuron, so 61 % of probes find no row,
// as on the spread workload. One core's index is small and the loop keeps
// it hot, so this measures the lookup's instructions, not the cache
// misses a machine of many cores takes: those show only end to end, in
// bench/.
func BenchmarkMatrixRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix()
	var hits, all []uint32
	for frag := uint32(0); frag < 256; frag++ {
		for neuron := uint32(0); neuron < 16; neuron++ {
			key := frag<<11 | neuron
			all = append(all, key)
			if rng.Intn(100) < 39 {
				m.AddRow(key, Row{MakeSynWord(1, 1, false, 0)}, false)
				hits = append(hits, key)
			}
		}
	}
	for _, c := range []struct {
		name  string
		probe []uint32
	}{{"hit", hits}, {"miss", all}} {
		b.Run(c.name, func(b *testing.B) {
			probe := slices.Clone(c.probe)
			rng.Shuffle(len(probe), func(i, j int) { probe[i], probe[j] = probe[j], probe[i] })
			found, synapses := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := probe[i%len(probe)]
				if n, ok := m.RowBytes(key); ok {
					row, _, _, _ := m.Lookup(key)
					found += n
					synapses += len(row)
				}
			}
			b.StopTimer()
			want := 0
			for i := 0; i < b.N; i++ {
				if _, ok := slices.BinarySearch(hits, probe[i%len(probe)]); ok {
					want++
				}
			}
			if synapses != want || found != 4*want {
				b.Fatalf("%d lookups hit %d synapses in %d bytes, want %d", b.N, synapses, found, want)
			}
		})
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

// Slots reports the ring depth.
func (r *InputRing) Slots() int { return len(r.slots) }
