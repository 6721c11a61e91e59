package neural

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"spinngo/internal/sim"
	"spinngo/internal/snap"
)

// steppedPop drives a population for a few ticks so every part of its
// state — membrane words, ring accumulators, raster, counts — is
// non-trivial, and kills one neuron.
func steppedPop(p *Population) *Population {
	p.Bias = F(3)
	row := Row{MakeSynWord(900, 3, false, 1), MakeSynWord(400, 15, true, 2), MakeSynWord(700, 1, false, 0)}
	for tick := 0; tick < 40; tick++ {
		p.ProcessRow(row)
		p.StepTick()
	}
	p.Ring.Deposit(MaxSynDelay+5, 0, F(1)) // a dropped deposit
	_ = p.KillNeuron(2)
	return p
}

// plasticState returns STDP state for n neurons over a store of three
// plastic rows, two of which have seen pre spikes, and that store.
func plasticState(n int) (*STDPState, *Matrix) {
	m := NewMatrix()
	for _, key := range []uint32{0x08, 0x20, 0x40} {
		m.AddRow(key, plasticRow(500), true)
	}
	s := NewSTDPState(n, DefaultSTDP())
	for tick := uint64(1); tick < 9; tick++ {
		s.RecordPost(int(tick)%n, tick*3)
	}
	spike := func(key uint32, tick uint64) {
		row, rank, _, _ := m.Lookup(key)
		s.ProcessRow(rank, row, tick)
	}
	spike(0x40, 11)
	spike(0x08, 20)
	spike(0x40, 25)
	return s, m
}

func plasticMatrix() *Matrix {
	m := NewMatrix()
	m.AddRow(0x100, Row{}, false)
	m.AddRow(0x500, plasticRow(777), true)
	m.AddRow(0x900, Row{MakeSynWord(1, 1, false, 0), MakeSynWord(65535, 15, true, 3)}, false)
	return m
}

// TestSnapRoundTrip pins the one-description contract for every neural
// component: encode(x) decoded into a freshly built y re-encodes to the
// same bytes, consuming the image exactly — and decoded into a y of the
// wrong shape, or from a truncated image, it is an error, not a panic.
func TestSnapRoundTrip(t *testing.T) {
	lif := func(n int) *Population { return NewLIFPopulation(n, MaxSynDelay, DefaultLIF()) }
	izh := func(n int) *Population { return NewIzhikevichPopulation(n, MaxSynDelay, RegularSpiking()) }
	source := func(n int) *Population { return NewSourcePopulation(n, MaxSynDelay) }
	type codes = func(*snap.Codec)
	matrix := func(m *Matrix, neurons int) codes { return func(c *snap.Codec) { m.Snap(c, neurons) } }
	stdp := func(s *STDPState, m *Matrix) codes { return func(c *snap.Codec) { s.Snap(c, m) } }
	plastic, plasticRows := plasticState(4)
	for _, row := range []struct {
		name         string
		src          codes
		fresh, wrong func() codes // wrong: a rebuild of another shape (nil: shapeless)
	}{
		{"ring", steppedPop(lif(5)).Ring.Snap,
			func() codes { return NewInputRing(5, MaxSynDelay).Snap },
			func() codes { return NewInputRing(5, 2).Snap }},
		{"ring neurons", steppedPop(lif(5)).Ring.Snap,
			func() codes { return NewInputRing(5, MaxSynDelay).Snap },
			func() codes { return NewInputRing(16, MaxSynDelay).Snap }},
		{"recorder", steppedPop(lif(5)).Rec.Snap,
			func() codes { return NewRecorder(5).Snap },
			func() codes { return NewRecorder(1).Snap }}, // the raster has spikes past neuron 0
		{"stdp", stdp(plastic, plasticRows),
			func() codes { return stdp(NewSTDPState(4, DefaultSTDP()), plasticRows) },
			func() codes { return stdp(NewSTDPState(3, DefaultSTDP()), plasticRows) }},
		{"matrix", matrix(plasticMatrix(), 4),
			func() codes { return matrix(NewMatrix(), 4) },
			func() codes { return matrix(NewMatrix(), 3) }}, // a row targets neuron 3
		{"source", NewPoissonSource(sim.NewRNG(9), 4, 50).Snap,
			func() codes { return NewPoissonSource(sim.NewRNG(1), 4, 50).Snap }, nil},
		{"population lif", steppedPop(lif(11)).Snap,
			func() codes { return lif(11).Snap },
			func() codes { return lif(12).Snap }},
		{"population izhikevich", steppedPop(izh(9)).Snap,
			func() codes { return izh(9).Snap },
			func() codes { return izh(8).Snap }},
		{"population source", steppedPop(source(7)).Snap,
			func() codes { return source(7).Snap },
			func() codes { return source(8).Snap }},
		{"population lif into source", steppedPop(lif(7)).Snap,
			func() codes { return lif(7).Snap },
			func() codes { return source(7).Snap }}, // a live neuron where the rebuild has a stateless slot
	} {
		t.Run(row.name, func(t *testing.T) {
			enc := snap.NewEncoder()
			row.src(enc)
			image := enc.Bytes()
			dec := snap.NewDecoder(image)
			dst := row.fresh()
			dst(dec)
			if err := dec.Err(); err != nil {
				t.Fatal(err)
			}
			if dec.Remaining() != 0 {
				t.Fatalf("%d bytes left undecoded", dec.Remaining())
			}
			re := snap.NewEncoder()
			dst(re)
			if !bytes.Equal(re.Bytes(), image) {
				t.Fatal("decoded state re-encodes differently")
			}
			cut := snap.NewDecoder(image[:len(image)-1])
			row.fresh()(cut)
			if cut.Err() == nil {
				t.Error("truncated image decoded without error")
			}
			if row.wrong != nil {
				bad := snap.NewDecoder(image)
				row.wrong()(bad)
				if bad.Err() == nil {
					t.Error("image decoded into a rebuild of another shape without error")
				}
			}
		})
	}
}

// TestSnapRejectsCorruptValues: values that would index out of range
// once the run resumes — the ring cursor, a post-spike history length —
// fail at decode.
func TestSnapRejectsCorruptValues(t *testing.T) {
	enc := snap.NewEncoder()
	NewInputRing(3, 4).Snap(enc)
	ring := bytes.Clone(enc.Bytes())
	ring[0] = 5 // cursor: the first field, an int64; the ring has 5 slots
	dec := snap.NewDecoder(ring)
	NewInputRing(3, 4).Snap(dec)
	if dec.Err() == nil {
		t.Error("ring cursor past the last slot decoded without error")
	}

	enc = snap.NewEncoder()
	NewSTDPState(1, DefaultSTDP()).Snap(enc, NewMatrix())
	hist := bytes.Clone(enc.Bytes())
	hist[4+4*8] = 5 // after the length prefix and four ticks: the history length
	dec = snap.NewDecoder(hist)
	NewSTDPState(1, DefaultSTDP()).Snap(dec, NewMatrix())
	if dec.Err() == nil {
		t.Error("post-spike history length 5 of 4 decoded without error")
	}

	// A matrix image's keys must strictly ascend; a rejected image leaves
	// the rebuilt store as it was.
	matrixImage := func(keys ...uint32) []byte {
		enc := snap.NewEncoder()
		enc.Len(len(keys))
		for _, key := range keys {
			word := uint32(MakeSynWord(1, 1, false, 0))
			enc.U32(&key)
			enc.Len(1)
			enc.U32(&word)
		}
		return enc.Bytes()
	}
	want := encodeMatrix(plasticMatrix())
	for _, row := range []struct {
		name string
		keys []uint32
		ok   bool
	}{
		{"ascending", []uint32{0x100, 0x140, 0x900}, true},
		{"swapped", []uint32{0x140, 0x100, 0x900}, false},
		{"swapped at the end", []uint32{0x100, 0x900, 0x500}, false},
		{"duplicate", []uint32{0x100, 0x100}, false},
	} {
		m := plasticMatrix()
		dec := snap.NewDecoder(matrixImage(row.keys...))
		m.Snap(dec, 4)
		if (dec.Err() == nil) != row.ok {
			t.Errorf("matrix keys %s %x: decode error %v", row.name, row.keys, dec.Err())
		}
		if !row.ok && !bytes.Equal(encodeMatrix(m), want) {
			t.Errorf("matrix keys %s: the rejected image changed the store", row.name)
		}
	}

	// A raster no run can produce — a stream cut short, opening with a
	// gap, or ending mid-record; an overlong uvarint in either field; a
	// gap or an opener outside the population; a tick opened twice; a
	// spike count the stream does not hold; a tick past 2^64 — is an
	// error naming the spike, and leaves the recorder as it was. The
	// good raster is {2, 1} opening tick 2 (bytes 3, 2), {2, 3} a gap of
	// +2 (byte 8) and {9, 0} opening tick 9 (bytes 1, 7).
	spikes := []Spike{{2, 1}, {2, 3}, {9, 0}}
	good := packRaster(spikes)
	if !bytes.Equal(good, []byte{3, 2, 8, 1, 7}) {
		t.Fatalf("the good raster packs as %v", good)
	}
	truncated := rasterImage(3, good)
	for _, row := range []struct {
		name  string
		image []byte
		err   string
	}{
		{"a truncated stream", truncated[:len(truncated)-1], "exceeds the"},
		{"a stream opening with a gap", rasterImage(3, []byte{8, 1, 7, 1, 2}), "spike 0: the stream opens with a gap"},
		{"a gap below neuron 0", rasterImage(3, packRaster([]Spike{{2, 1}, {2, -1}, {9, 0}})), "spike 1 on neuron -1 of 4"},
		{"a gap to the population size", rasterImage(3, packRaster([]Spike{{2, 1}, {2, 4}, {9, 0}})), "spike 1 on neuron 4 of 4"},
		{"a two-byte gap past the population", rasterImage(3, packRaster([]Spike{{2, 1}, {2, 200}, {9, 0}})), "spike 1 on neuron 200 of 4"},
		{"an opener at the population size", rasterImage(3, packRaster([]Spike{{2, 1}, {2, 3}, {9, 4}})), "spike 2 on neuron 4 of 4"},
		{"a later tick opened with delta 0", rasterImage(3, []byte{3, 2, 8, 1, 0}), "spike 2 opens tick 2 again"},
		{"an overlong gap", rasterImage(3, []byte{3, 2, 0x88, 0, 1, 7}), "spike 1: neuron is not a whole minimal uvarint"},
		{"an overlong opener", rasterImage(3, []byte{3, 2, 8, 0x81, 0, 7}), "spike 2: neuron is not a whole minimal uvarint"},
		{"an overlong tick delta", rasterImage(3, []byte{3, 2, 8, 1, 0x87, 0}), "spike 2: tick delta is not a whole minimal uvarint"},
		{"a stream ending mid-uvarint", rasterImage(3, []byte{3, 2, 8, 0x81}), "spike 2: neuron is not a whole minimal uvarint"},
		{"an opener without its tick delta", rasterImage(3, []byte{3, 2, 8, 1}), "spike 2: tick delta is not a whole minimal uvarint"},
		{"a spike count one high", rasterImage(4, good), "spike count 4, the stream holds 3"},
		{"a spike count one low", rasterImage(2, good), "spike count 2, the stream holds 3"},
		{"a tick past 2^64", rasterImage(4, binary.AppendUvarint(append(bytes.Clone(good), 1), math.MaxUint64-8)), "spike 3: tick 9 plus"},
		{"the good raster", rasterImage(3, good), ""},
	} {
		decodeRaster(t, row.name, row.image, spikes, row.err)
	}

	// Each fault again, after a prefix that sends decode down each of its
	// fast loops: the good raster (1.67 bytes a spike: skim) and a dense
	// one, every tick neurons 0 to 3 and then neuron 3 four times more
	// (1.125 bytes a spike: skimRuns). A good opener follows the fault,
	// so the fault is not the stream's last byte, which both loops leave
	// to the general step.
	var dense []Spike
	for tick := uint64(1); tick <= 50; tick++ {
		for _, i := range []int{0, 1, 2, 3, 3, 3, 3, 3} {
			dense = append(dense, Spike{tick, i})
		}
	}
	decodeRaster(t, "a dense raster", rasterImage(len(dense), packRaster(dense)), dense, "")
	for _, prefix := range [][]Spike{spikes, dense} {
		last := prefix[len(prefix)-1]
		at := fmt.Sprintf("spike %d", len(prefix))
		for _, row := range []struct {
			name  string
			fault []byte
			err   string
		}{
			{"a gap below neuron 0", binary.AppendUvarint(nil, 2*zigzag(-last.Neuron-1)), at + " on neuron -1 of 4"},
			{"a gap to the population size", binary.AppendUvarint(nil, 2*zigzag(4-last.Neuron)), at + " on neuron 4 of 4"},
			{"an opener at the population size", []byte{9, 1}, at + " on neuron 4 of 4"},
			{"a tick opened again", []byte{1, 0}, at + " opens tick"},
			{"an overlong gap", []byte{0x80, 0}, at + ": neuron is not a whole minimal uvarint"},
			{"an overlong opener", []byte{0x81, 0, 1}, at + ": neuron is not a whole minimal uvarint"},
			{"an overlong tick delta", []byte{1, 0x81, 0}, at + ": tick delta is not a whole minimal uvarint"},
		} {
			stream := slices.Concat(packRaster(prefix), row.fault, []byte{1, 1})
			decodeRaster(t, fmt.Sprintf("%s after %d spikes", row.name, len(prefix)), rasterImage(len(prefix)+2, stream), nil, row.err)
		}
	}
}

// decodeRaster decodes image into a recorder of 4 neurons holding one
// spike, and holds it to want if err is empty, or else to an error
// containing err that leaves the recorder as it was.
func decodeRaster(t *testing.T, name string, image []byte, want []Spike, err string) {
	t.Helper()
	r := NewRecorder(4)
	r.Record(1, 2)
	dec := snap.NewDecoder(image)
	r.Snap(dec)
	if err == "" {
		if got := dec.Err(); got != nil {
			t.Errorf("raster with %s: error %v", name, got)
		}
		checkRecorder(t, r, 4, want, "after a raster with "+name)
		return
	}
	if got := dec.Err(); got == nil || !strings.Contains(got.Error(), err) {
		t.Errorf("raster with %s: error %v, want one containing %q", name, got, err)
	}
	checkRecorder(t, r, 4, []Spike{{1, 2}}, "after a raster with "+name)
}
