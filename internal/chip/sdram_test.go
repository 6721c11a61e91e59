package chip

import (
	"bytes"
	"slices"
	"testing"

	"spinngo/internal/sim"
	"spinngo/internal/snap"
	"spinngo/internal/topo"
)

func TestSDRAMTransferTiming(t *testing.T) {
	eng := sim.New(1)
	s := NewSDRAM(eng)
	var doneAt sim.Time
	s.Transfer(1000, sim.Func(func() { doneAt = eng.Now() }))
	eng.Run()
	want := s.Latency + 1*sim.Microsecond // 1000 bytes at 1000 B/us
	if doneAt != want {
		t.Errorf("transfer completed at %v, want %v", doneAt, want)
	}
}

func TestSDRAMContentionSerialises(t *testing.T) {
	eng := sim.New(1)
	s := NewSDRAM(eng)
	var order []int
	var times []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		s.Transfer(1000, sim.Func(func() { order = append(order, i); times = append(times, eng.Now()) }))
	}
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order %v", order)
	}
	per := s.TransferTime(1000)
	for i, at := range times {
		if want := per * sim.Time(i+1); at != want {
			t.Errorf("transfer %d completed at %v, want %v (serialised)", i, at, want)
		}
	}
	if s.ContentionBusy == 0 {
		t.Error("no contention recorded for overlapping requests")
	}
}

func TestSDRAMStoreLoad(t *testing.T) {
	s := NewSDRAM(sim.New(1))
	data := []byte{1, 2, 3, 4, 5}
	if err := s.Store(0x1000, data); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(0x1000)
	if !ok || !bytes.Equal(got, data) {
		t.Errorf("Load = %v, %v", got, ok)
	}
	if _, ok := s.Load(0x2000); ok {
		t.Error("Load of unwritten address succeeded")
	}
	// Mutating the returned slice must not corrupt the store.
	got[0] = 99
	again, _ := s.Load(0x1000)
	if again[0] != 1 {
		t.Error("Load returned aliased storage")
	}
}

func TestSDRAMOverflow(t *testing.T) {
	s := NewSDRAM(sim.New(1))
	if err := s.Store(0, make([]byte, SDRAMBytes+1)); err == nil {
		t.Error("overflow not detected")
	}
	// Re-storing the same address must not double-count usage.
	if err := s.Store(1, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(1, make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 2048 {
		t.Errorf("Used = %d, want 2048", s.Used())
	}
}

// TestSDRAMSharedSegments pins the machine-wide segment table: a chip
// holding an entry sees it as a segment at the entry's address, a later
// store at that address (shared or private) replaces it, usage and the
// overflow check count it once, and an image codes it as one bit against
// the image's table, which a restored chip aliases in turn.
func TestSDRAMSharedSegments(t *testing.T) {
	segs := &Segments{}
	a := segs.Add(0x100, []byte("aaaa"))
	b := segs.Add(0x100, []byte("bbbbbb"))
	c := segs.Add(0x50, []byte("cc"))
	huge := segs.Add(0x200, make([]byte, SDRAMBytes))
	s := New(sim.New(1), topo.Coord{}, 1, segs).SDRAM
	other := New(sim.New(1), topo.Coord{}, 1, segs).SDRAM
	load := func(addr uint32) string {
		got, ok := s.Load(addr)
		if !ok {
			return "<none>"
		}
		return string(got)
	}
	for _, step := range []struct {
		store func() error
		addr  uint32
		want  string
		used  int
	}{
		{func() error { return s.StoreShared(a) }, 0x100, "aaaa", 4},
		{func() error { return s.StoreShared(b) }, 0x100, "bbbbbb", 6},
		{func() error { return s.Store(0x100, []byte("p")) }, 0x100, "p", 1},
		{func() error { return s.StoreShared(c) }, 0x50, "cc", 3},
		{func() error { return s.StoreShared(a) }, 0x100, "aaaa", 6},
	} {
		if err := step.store(); err != nil {
			t.Fatal(err)
		}
		if got := load(step.addr); got != step.want || s.Used() != step.used {
			t.Fatalf("Load(%#x) = %q, Used %d; want %q, %d", step.addr, got, s.Used(), step.want, step.used)
		}
	}
	if err := s.StoreShared(huge); err == nil {
		t.Error("a shared segment overflowing the SDRAM was stored")
	}
	if got := load(0x200); got != "<none>" || s.Used() != 6 {
		t.Errorf("a failed store left Load = %q, Used %d", got, s.Used())
	}
	if _, ok := other.Load(0x100); ok || other.Used() != 0 {
		t.Error("a chip holding no entry sees one")
	}

	// The image's table holds the two entries s holds, a then c; s codes
	// them as the bits of positions 0 and 1.
	held := s.Held(nil)
	enc := snap.NewEncoder()
	segs.Snap(enc, held)
	s.Snap(enc, held)
	table := &Segments{}
	r := New(sim.New(1), topo.Coord{}, 1, table).SDRAM
	dec := snap.NewDecoder(enc.Bytes())
	table.Snap(dec, nil)
	r.Snap(dec, nil)
	if err := dec.Err(); err != nil || dec.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, dec.Remaining())
	}
	if len(table.entries) != 2 || table.Bytes() != 6 {
		t.Errorf("image table holds %d entries of %d B, want the 2 held, 6 B", len(table.entries), table.Bytes())
	}
	if len(r.private) != 0 || r.Used() != 6 {
		t.Errorf("restored chip holds %d private copies, Used %d; want none, 6", len(r.private), r.Used())
	}
	for addr, want := range map[uint32]string{0x100: "aaaa", 0x50: "cc"} {
		if got, ok := r.Load(addr); !ok || string(got) != want {
			t.Errorf("restored Load(%#x) = %q, %v; want %q", addr, got, ok, want)
		}
	}
}

// TestSDRAMZeroSegments pins a segment of zeros as its length: stored
// without a copy, loaded back as fresh zeros, counted in usage and the
// overflow check like any other, and coded in an image as its length.
func TestSDRAMZeroSegments(t *testing.T) {
	s := NewSDRAM(sim.New(1))
	if err := s.Store(0x7000, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if len(s.private) != 0 || s.zeros[0x7000] != 4096 || s.Used() != 4096 {
		t.Fatalf("a zero segment is held as %d private copies, length %d, Used %d", len(s.private), s.zeros[0x7000], s.Used())
	}
	got, ok := s.Load(0x7000)
	if !ok || len(got) != 4096 || slices.ContainsFunc(got, func(b byte) bool { return b != 0 }) {
		t.Fatalf("Load of a zero segment = %d bytes, %v", len(got), ok)
	}
	got[0] = 1
	if again, _ := s.Load(0x7000); again[0] != 0 {
		t.Error("Load of a zero segment returned shared storage")
	}
	if err := s.Store(0x7000, []byte{0, 9}); err != nil || s.Used() != 2 || len(s.zeros) != 0 {
		t.Errorf("a private store over a zero segment: %v, Used %d, %d zero segments", err, s.Used(), len(s.zeros))
	}
	if err := s.Store(0x8000, make([]byte, SDRAMBytes)); err == nil {
		t.Error("a zero segment overflowing the SDRAM was stored")
	}
	_ = s.Store(0x9000, make([]byte, 100))
	enc := snap.NewEncoder()
	s.Snap(enc, nil)
	// Counters, no membership, two segments: 0x7000 with its two bytes,
	// 0x9000 as its length.
	if want := 32 + 4 + 4 + (4 + 1 + 4 + 2) + (4 + 1 + 4); len(enc.Bytes()) != want {
		t.Errorf("image codes the segments in %d B, want %d", len(enc.Bytes()), want)
	}
}

func TestDMAFIFOOrder(t *testing.T) {
	eng := sim.New(1)
	s := NewSDRAM(eng)
	d := NewDMAController(eng, s)
	var order []uint32
	d.OnDone = func(tag uint32) { order = append(order, tag) }
	for i := uint32(0); i < 5; i++ {
		d.Enqueue(DMARequest{Size: 100, Tag: i})
	}
	if d.QueueLen() != 5 {
		t.Errorf("QueueLen = %d, want 5", d.QueueLen())
	}
	eng.Run()
	for i, tag := range order {
		if tag != uint32(i) {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
	if d.Completed != 5 {
		t.Errorf("Completed = %d", d.Completed)
	}
	if d.MaxQueue != 5 {
		t.Errorf("MaxQueue = %d, want 5", d.MaxQueue)
	}
}

func TestTwoDMAControllersShareBandwidth(t *testing.T) {
	// Two cores' DMA controllers contend for one SDRAM: total time for
	// parallel requests equals the serial sum (single shared server).
	eng := sim.New(1)
	s := NewSDRAM(eng)
	a := NewDMAController(eng, s)
	b := NewDMAController(eng, s)
	var last sim.Time
	done := func(uint32) { last = eng.Now() }
	a.OnDone, b.OnDone = done, done
	a.Enqueue(DMARequest{Size: 2000})
	b.Enqueue(DMARequest{Size: 2000})
	eng.Run()
	want := 2 * s.TransferTime(2000)
	if last != want {
		t.Errorf("both finished at %v, want %v (serialised on the System NoC)", last, want)
	}
}

func TestDMAKeepsDraining(t *testing.T) {
	// Enqueueing from a completion callback must not wedge the
	// controller (the kernel does exactly this: DMA-complete schedules
	// the next fetch).
	eng := sim.New(1)
	s := NewSDRAM(eng)
	d := NewDMAController(eng, s)
	count := 0
	d.OnDone = func(uint32) {
		count++
		if count < 10 {
			d.Enqueue(DMARequest{Size: 10})
		}
	}
	d.Enqueue(DMARequest{Size: 10})
	eng.Run()
	if count != 10 {
		t.Errorf("chained completions = %d, want 10", count)
	}
}

// Used reports the bytes held in the segment store.
func (s *SDRAM) Used() int { return s.used }

// QueueLen reports outstanding requests (including the active one).
func (d *DMAController) QueueLen() int {
	d.Sync()
	n := len(d.queue) - d.head
	if d.busy {
		n++
	}
	return n
}
