//go:build !race

package neural

import (
	"runtime"
	"testing"

	"spinngo/internal/sim"
)

// TestRecorderAllocatesWhatItKeeps pins the raster's blocks: a dense
// core's raster recorded past 2 MB allocates little more than the bytes
// it holds. A stream kept in one growing slice allocates several times
// them, in the copies each growth leaves behind.
func TestRecorderAllocatesWhatItKeeps(t *testing.T) {
	shape := recorderShape(256, 50, 2000, 1).Spikes()
	r := NewRecorder(256)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for base := uint64(0); r.size <= 2<<20; base += 2000 {
		for _, s := range shape {
			r.Record(base+s.Tick, s.Neuron)
		}
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d spikes in %d bytes (%d blocks) allocated %d bytes", r.Total(), r.size, len(r.blocks), alloc)
	if limit := uint64(1.1*float64(r.size)) + 64<<10; alloc > limit {
		t.Errorf("a %d-byte raster allocated %d bytes; want at most %d", r.size, alloc, limit)
	}
}

// TestPoissonSourceTickZeroAlloc pins the source's reused buffer: once
// it has grown to a tick's spikes, Tick allocates nothing.
func TestPoissonSourceTickZeroAlloc(t *testing.T) {
	src := NewPoissonSource(sim.NewRNG(3), 256, 200)
	src.Tick()
	if allocs := testing.AllocsPerRun(1000, func() { src.Tick() }); allocs != 0 {
		t.Errorf("Tick allocated %.2f times a call; want 0", allocs)
	}
}

// TestSTDPProcessRowZeroAlloc pins the rule's per-row state in the slice
// indexed by rank: once every row has been seen, ProcessRow allocates
// nothing.
func TestSTDPProcessRowZeroAlloc(t *testing.T) {
	m := NewMatrix()
	for key := uint32(0); key < 8; key++ {
		m.AddRow(key<<6, Row{MakeSynWord(900, 1, false, 0), MakeSynWord(900, 2, false, 1)}, true)
	}
	s := NewSTDPState(2, DefaultSTDP())
	tick := uint64(0)
	fetch := func() {
		tick++
		s.RecordPost(int(tick%2), tick)
		row, rank, _, _ := m.Lookup(uint32(tick%8) << 6)
		s.ProcessRow(rank, row, tick)
	}
	for range 8 {
		fetch()
	}
	if allocs := testing.AllocsPerRun(1000, fetch); allocs != 0 {
		t.Errorf("ProcessRow allocated %.2f times a call; want 0", allocs)
	}
}
