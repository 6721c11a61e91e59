package neural

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spinngo/internal/snap"
)

// packRaster is the byte oracle's stream: per spike of a []Spike raster
// the uvarint tick delta from the spike before it, then the uvarint
// neuron (a negative one as its two's complement).
func packRaster(spikes []Spike) []byte {
	var stream []byte
	var last uint64
	for _, s := range spikes {
		stream = binary.AppendUvarint(stream, s.Tick-last)
		stream = binary.AppendUvarint(stream, uint64(s.Neuron))
		last = s.Tick
	}
	return stream
}

// rasterImage is the byte oracle for Recorder.Snap: the image of a
// raster of total spikes packed as stream, coded field by field — the
// spike count, the stream's length, then the stream.
func rasterImage(total int, stream []byte) []byte {
	c := snap.NewEncoder()
	c.Len(total)
	c.Bytes32(&stream)
	return c.Bytes()
}

// encodeRecorder returns r's image.
func encodeRecorder(r *Recorder) []byte {
	enc := snap.NewEncoder()
	r.Snap(enc)
	return enc.Bytes()
}

// recorderCase decodes a fuzz input into a population size and a
// recording. The first two bytes pick the size (1 to 600 neurons, so
// indices past 255 take two-byte varints); every three bytes after them
// are one spike: a gap selector (the same tick, the next, a short gap or
// a long one) and a neuron selector (neuron 0, neuron n-1 or any).
func recorderCase(data []byte) (int, []Spike) {
	if len(data) < 2 {
		return 1, nil
	}
	n := 1 + int(binary.LittleEndian.Uint16(data))%600
	var spikes []Spike
	var tick uint64
	for b := data[2:]; len(b) >= 3; b = b[3:] {
		switch gap := uint64(b[0]); gap % 4 {
		case 1:
			tick++
		case 2:
			tick += gap >> 2
		case 3:
			tick += gap << 30
		}
		neuron := int(binary.LittleEndian.Uint16(b[1:]))
		switch neuron % 8 {
		case 0:
			neuron = 0
		case 1:
			neuron = n - 1
		default:
			neuron = (neuron >> 3) % n
		}
		spikes = append(spikes, Spike{tick, neuron})
	}
	return n, spikes
}

// checkRecorder holds r to the raster want over n neurons: Each, Spikes,
// Total, every Count, and the image, byte for byte the oracle's.
func checkRecorder(t *testing.T, r *Recorder, n int, want []Spike, what string) {
	t.Helper()
	counts := make([]uint64, n)
	for _, s := range want {
		counts[s.Neuron]++
	}
	var each []Spike
	r.Each(func(s Spike) { each = append(each, s) })
	if !slices.Equal(each, want) {
		t.Fatalf("%s: Each gave %v, want %v", what, each, want)
	}
	if got := r.Spikes(); !slices.Equal(got, want) || r.Total() != len(want) {
		t.Fatalf("%s: Spikes %v, Total %d; want %v", what, got, r.Total(), want)
	}
	for i, k := range counts {
		if r.Count(i) != k {
			t.Fatalf("%s: Count(%d) = %d, want %d", what, i, r.Count(i), k)
		}
	}
	if !bytes.Equal(encodeRecorder(r), rasterImage(len(want), packRaster(want))) {
		t.Fatalf("%s: image differs from the field-by-field encoding", what)
	}
}

// recorderMatchesOracle records a case and holds the recorder to the
// []Spike it describes; restores its image into a fresh recorder and
// holds that to the same raster, and to the raster one spike longer once
// both record again at the last tick; and checks that a truncated image
// and each corruption of the raster are errors that leave the recorder
// they were decoded into as it was.
func recorderMatchesOracle(t *testing.T, data []byte) {
	n, want := recorderCase(data)
	r := NewRecorder(n)
	for _, s := range want {
		r.Record(s.Tick, s.Neuron)
	}
	checkRecorder(t, r, n, want, "recorded")
	image := encodeRecorder(r)

	restored := NewRecorder(n)
	dec := snap.NewDecoder(image)
	restored.Snap(dec)
	if err := dec.Err(); err != nil || dec.Remaining() != 0 {
		t.Fatalf("restore: err %v, %d bytes left", err, dec.Remaining())
	}
	checkRecorder(t, restored, n, want, "restored")

	// A recorder restored mid-raster records the rest as the one that
	// recorded it all, across whatever block boundaries the rest crosses.
	mid := NewRecorder(n)
	for _, s := range want[:len(want)/2] {
		mid.Record(s.Tick, s.Neuron)
	}
	resumed := NewRecorder(n)
	dec = snap.NewDecoder(encodeRecorder(mid))
	resumed.Snap(dec)
	if err := dec.Err(); err != nil {
		t.Fatalf("restore mid-raster: %v", err)
	}
	for _, s := range want[len(want)/2:] {
		resumed.Record(s.Tick, s.Neuron)
	}
	checkRecorder(t, resumed, n, want, "recorded on after a restore mid-raster")

	// Each bad image is decoded over a recorder holding another raster.
	stream := packRaster(want)
	more := func(b ...byte) []byte { return append(bytes.Clone(stream), b...) }
	spike := func(b []byte, delta, neuron uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(b, delta), neuron)
	}
	bad := map[string][]byte{
		"truncated":                    image[:len(image)-1],
		"a spike count one high":       rasterImage(len(want)+1, stream),
		"a stream ending mid-spike":    rasterImage(len(want)+1, more(0)),
		"an overlong uvarint":          rasterImage(len(want)+1, more(0x80, 0, 0)),
		"a neuron past the population": rasterImage(len(want)+1, spike(more(), 0, uint64(n))),
		"a tick past 2^64":             rasterImage(len(want)+2, spike(spike(more(), 1, 0), math.MaxUint64, 0)),
	}
	var last uint64
	if len(want) > 0 {
		last = want[len(want)-1].Tick
		neg := slices.Clone(want)
		neg[0].Neuron = -1
		bad["a negative neuron"] = rasterImage(len(neg), packRaster(neg))
		if len(want) > 1 {
			bad["a spike count one low"] = rasterImage(len(want)-1, stream)
		}
	}
	stale := []Spike{{3, 0}, {3, n - 1}, {7, 0}}
	for what, b := range bad {
		into := NewRecorder(n)
		for _, s := range stale {
			into.Record(s.Tick, s.Neuron)
		}
		dec := snap.NewDecoder(b)
		into.Snap(dec)
		if dec.Err() == nil {
			t.Fatalf("image with %s decoded without error", what)
		}
		checkRecorder(t, into, n, stale, "after decoding an image with "+what)
	}

	r.Record(last, n-1)
	restored.Record(last, n-1)
	want = append(want, Spike{last, n - 1})
	checkRecorder(t, r, n, want, "recorded on")
	checkRecorder(t, restored, n, want, "recorded on after a restore")
}

// longRecording is a recorderCase input of 60 000 random spikes, whose
// stream spans at least three of the recorder's blocks.
func longRecording() []byte {
	data := make([]byte, 2+3*60000)
	rand.New(rand.NewSource(11)).Read(data)
	return data
}

// TestRecorderMatchesOracle runs recorderMatchesOracle over random
// recordings, small populations to wide ones, dense ticks to long gaps,
// and over one long enough to span several blocks.
func TestRecorderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		data := make([]byte, 2+3*rng.Intn(400))
		rng.Read(data)
		t.Run(fmt.Sprint(trial), func(t *testing.T) { recorderMatchesOracle(t, data) })
	}
	data := longRecording()
	n, spikes := recorderCase(data)
	r := NewRecorder(n)
	for _, s := range spikes {
		r.Record(s.Tick, s.Neuron)
	}
	if len(r.blocks) < 3 {
		t.Fatalf("the long recording's %d bytes fill %d blocks; want at least 3", r.size, len(r.blocks))
	}
	t.Run("blocks", func(t *testing.T) { recorderMatchesOracle(t, data) })
}

// FuzzRecorder is recorderMatchesOracle over arbitrary recordings; the
// seeds in testdata/fuzz/FuzzRecorder cover the empty raster, repeated
// ticks, long gaps, neurons 0 and n-1, and a population wider than 256,
// and the long recording adds a raster of several blocks.
func FuzzRecorder(f *testing.F) {
	f.Add(longRecording())
	f.Fuzz(recorderMatchesOracle)
}

func TestRecorderRejectsOutOfOrderTicks(t *testing.T) {
	r := NewRecorder(2)
	r.Record(5, 0)
	r.Record(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("a spike recorded before the last one did not panic")
		}
		checkRecorder(t, r, 2, []Spike{{5, 0}, {5, 1}}, "after the rejected spike")
	}()
	r.Record(4, 0)
}

// recorderShape records a run of the given length in which, every tick,
// each of n neurons fires with probability perTick/n, in index order as
// a population steps them.
func recorderShape(n int, perTick float64, ticks int, seed int64) *Recorder {
	rng := rand.New(rand.NewSource(seed))
	r := NewRecorder(n)
	for tick := uint64(1); tick <= uint64(ticks); tick++ {
		for i := 0; i < n; i++ {
			if rng.Float64() < perTick/float64(n) {
				r.Record(tick, i)
			}
		}
	}
	return r
}

// TestRecorderBytesPerSpike pins the raster's footprint: under three
// bytes a spike on a dense core (256 neurons, ~50 spikes a tick: most
// deltas are zero, half the neuron indices take two bytes) and on a
// sparse one (16 neurons, ~1 spike a tick).
func TestRecorderBytesPerSpike(t *testing.T) {
	for _, c := range []struct {
		name    string
		n       int
		perTick float64
	}{{"dense", 256, 50}, {"sparse", 16, 1}} {
		r := recorderShape(c.n, c.perTick, 2000, 1)
		perSpike := float64(r.size) / float64(r.Total())
		t.Logf("%s: %d spikes, %.2f bytes a spike", c.name, r.Total(), perSpike)
		if r.Total() < 1000 || perSpike > 3 {
			t.Errorf("%s: %d spikes in %d bytes, %.2f a spike; want at most 3", c.name, r.Total(), r.size, perSpike)
		}
	}
}

// BenchmarkRecord is one spike recorded on a dense core (256 neurons,
// ~50 spikes a tick). The recorder is replaced every 2^20 spikes so a
// long run does not hold an unbounded raster; the allocations a spike
// reports are its share of the stream's growth.
func BenchmarkRecord(b *testing.B) {
	shape := recorderShape(256, 50, 2000, 1).Spikes()
	b.ReportAllocs()
	b.ResetTimer()
	var r *Recorder
	next, base := len(shape), uint64(0)
	for i := 0; i < b.N; i++ {
		if i&(1<<20-1) == 0 {
			r = NewRecorder(256)
		}
		if next == len(shape) {
			next, base = 0, base+2000
		}
		s := shape[next]
		next++
		r.Record(base+s.Tick, s.Neuron)
	}
}

// BenchmarkRecorderDecode is the restore of a dense core's raster (256
// neurons, ~50 spikes a tick, about a million spikes) through snap.Codec:
// the validating pass over the stream and the copy installed.
func BenchmarkRecorderDecode(b *testing.B) {
	r := recorderShape(256, 50, 20000, 1)
	image := encodeRecorder(r)
	into := NewRecorder(256)
	b.ReportAllocs()
	for b.Loop() {
		dec := snap.NewDecoder(image)
		into.Snap(dec)
		if err := dec.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.Total()), "ns/spike")
}

// Count reports the spikes recorded for one neuron.
func (r *Recorder) Count(neuron int) uint64 {
	var n uint64
	r.Each(func(s Spike) {
		if s.Neuron == neuron {
			n++
		}
	})
	return n
}

// Rate reports a neuron's mean firing rate in Hz over the given ticks
// (1 ms ticks).
func (r *Recorder) Rate(neuron int, ticks uint64) float64 {
	if ticks == 0 {
		return 0
	}
	return float64(r.Count(neuron)) / (float64(ticks) / 1000.0)
}
