package chip

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"spinngo/internal/kernel"
	"spinngo/internal/sim"
	"spinngo/internal/snap"
)

// SDRAM models the node's shared 1 Gbit mobile DDR SDRAM as a single
// server with fixed access latency and finite bandwidth: transfers from
// the per-core DMA controllers are serialised over the System NoC, so
// concurrent requests queue and see contention — the behaviour that
// matters for the Fig-7 event-driven model, where synaptic-row fetches
// race the 1 ms real-time deadline.
//
// It also provides a small segment store so boot images and application
// data can actually be written and read back in boot and host tests. A
// segment is private — stored by copy, or by its length alone when
// every byte is zero — or an entry of the machine's Segments table that
// this chip holds.
type SDRAM struct {
	eng sim.Scheduler
	// Latency is the fixed setup cost per transfer.
	Latency sim.Time
	// BytesPerUS is the sustained bandwidth in bytes per microsecond.
	BytesPerUS float64

	busyUntil sim.Time
	table     *Segments         // the machine's shared payloads (set by New)
	shared    []uint64          // bit i set: this chip holds table entry i
	private   map[uint32][]byte // nil until the first Store
	zeros     map[uint32]int    // all-zero private segments, by length
	used      int

	// Counters for the energy model.
	Transfers      uint64
	BytesMoved     uint64
	ContentionBusy sim.Time // cumulative time requests spent queued
}

// Segments is a machine's table of shared SDRAM payloads — the boot
// image's flood-fill blocks and every other host fill — each held once
// per machine however many chips store it: a chip's SDRAM records the
// entries it holds as one bit each. That was the dominant heap term of
// a booted machine when every chip kept its own map of aliases. Entries
// are added and released only from sequential context (no window in
// flight) and are immutable while held, so any shard may read them.
type Segments struct {
	entries []segment
}

type segment struct {
	addr uint32
	data []byte
}

// Add registers data as a payload to be shared at addr and returns its
// entry. The caller must not mutate data afterwards.
func (t *Segments) Add(addr uint32, data []byte) int {
	t.entries = append(t.entries, segment{addr, data})
	return len(t.entries) - 1
}

// Release drops the payload of every entry not in keep — one no chip
// holds and no pending store will — so a table fed by repeated fills
// keeps only the payloads chips hold. The entry keeps its index, so
// membership records stay valid. Sequential context only.
func (t *Segments) Release(keep []uint64) {
	for i := range t.entries {
		if !has(keep, i) {
			t.entries[i].data = nil
		}
	}
}

// Bytes reports the payload bytes the table holds.
func (t *Segments) Bytes() int {
	n := 0
	for _, e := range t.entries {
		n += len(e.data)
	}
	return n
}

// Snap codes the image's segment table: encoding, the entries in held,
// once, in table order; decoding, it replaces the table with the
// image's entries, which the chips' membership records then index.
func (t *Segments) Snap(c *snap.Codec, held []uint64) {
	n := 0
	for _, w := range held {
		n += bits.OnesCount64(w)
	}
	n = c.Len(n)
	if !c.Decoding() {
		for i := range eachBit(held) {
			c.U32(&t.entries[i].addr)
			c.Bytes32(&t.entries[i].data)
		}
		return
	}
	t.entries = nil
	for k := 0; k < n && c.Err() == nil; k++ {
		var e segment
		c.U32(&e.addr)
		c.Bytes32(&e.data)
		t.entries = append(t.entries, e)
	}
}

// Mark adds entry i to the set, growing it as needed.
func Mark(set []uint64, i int) []uint64 {
	if w := i / 64; w >= len(set) {
		set = append(set, make([]uint64, w+1-len(set))...)
	}
	set[i/64] |= 1 << (i % 64)
	return set
}

// has reports whether entry i is in the set.
func has(set []uint64, i int) bool {
	return i/64 < len(set) && set[i/64]&(1<<(i%64)) != 0
}

// eachBit yields the entries in set, in ascending order.
func eachBit(set []uint64) func(yield func(int) bool) {
	return func(yield func(int) bool) {
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				if !yield(w*64 + bits.TrailingZeros64(word)) {
					return
				}
			}
		}
	}
}

// rank reports entry i's position among the entries in set.
func rank(set []uint64, i int) int {
	n := bits.OnesCount64(set[i/64] & (1<<(i%64) - 1))
	for _, w := range set[:i/64] {
		n += bits.OnesCount64(w)
	}
	return n
}

// NewSDRAM returns a mobile-DDR-class SDRAM model: ~1 GB/s sustained,
// ~150 ns first-word latency.
func NewSDRAM(eng sim.Scheduler) *SDRAM {
	return &SDRAM{
		eng:        eng,
		Latency:    150 * sim.Nanosecond,
		BytesPerUS: 1000, // 1 GB/s
	}
}

// TransferTime reports the service time for size bytes, excluding
// queueing.
func (s *SDRAM) TransferTime(size int) sim.Time {
	return s.Latency + sim.Time(float64(size)/s.BytesPerUS*float64(sim.Microsecond))
}

// Transfer schedules a transfer of size bytes; p runs when it
// completes. Contention: transfers are serialised in arrival order.
func (s *SDRAM) Transfer(size int, p sim.Payload) {
	s.eng.AtP(s.admit(size), p)
}

// admit prices a transfer through the serialised server and returns its
// completion instant.
func (s *SDRAM) admit(size int) sim.Time {
	if size < 0 {
		panic("chip: negative transfer size")
	}
	now := s.eng.Now()
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
		s.ContentionBusy += s.busyUntil - now
	}
	end := start + s.TransferTime(size)
	s.busyUntil = end
	s.Transfers++
	s.BytesMoved += uint64(size)
	return end
}

// member reports the table entry this chip holds at addr, or -1.
func (s *SDRAM) member(addr uint32) int {
	for i := range eachBit(s.shared) {
		if s.table.entries[i].addr == addr {
			return i
		}
	}
	return -1
}

// Held adds the table entries this chip holds to set and returns it.
func (s *SDRAM) Held(set []uint64) []uint64 {
	if len(set) < len(s.shared) {
		set = append(set, make([]uint64, len(s.shared)-len(set))...)
	}
	for w, word := range s.shared {
		set[w] |= word
	}
	return set
}

// replace makes room for n bytes at addr, dropping whatever segment is
// stored there; it fails, changing nothing, when the SDRAM would
// overflow.
func (s *SDRAM) replace(addr uint32, n int) error {
	old, entry := 0, -1
	if d, ok := s.private[addr]; ok {
		old = len(d)
	} else if z, ok := s.zeros[addr]; ok {
		old = z
	} else if entry = s.member(addr); entry >= 0 {
		old = len(s.table.entries[entry].data)
	}
	if s.used-old+n > SDRAMBytes {
		return fmt.Errorf("chip: SDRAM overflow storing %d bytes at %#x", n, addr)
	}
	s.used += n - old
	delete(s.private, addr)
	delete(s.zeros, addr)
	if entry >= 0 {
		s.shared[entry/64] &^= 1 << (entry % 64)
	}
	return nil
}

// Store writes a private copy of data at the given address in the
// segment store — its length alone when every byte is zero, as the
// stand-in synaptic images the application load writes are. It fails
// when the SDRAM would overflow.
func (s *SDRAM) Store(addr uint32, data []byte) error {
	if !slices.ContainsFunc(data, func(b byte) bool { return b != 0 }) {
		return s.storeZeros(addr, len(data))
	}
	if err := s.replace(addr, len(data)); err != nil {
		return err
	}
	if s.private == nil {
		s.private = make(map[uint32][]byte)
	}
	s.private[addr] = append([]byte(nil), data...)
	return nil
}

// storeZeros stores n zero bytes at addr as their length.
func (s *SDRAM) storeZeros(addr uint32, n int) error {
	if err := s.replace(addr, n); err != nil {
		return err
	}
	if s.zeros == nil {
		s.zeros = make(map[uint32]int)
	}
	s.zeros[addr] = n
	return nil
}

// StoreShared stores entry i of the machine's Segments table at the
// entry's address, as one bit in this chip's membership record instead
// of a copy: a machine-size image load costs one image, not one per
// chip. Load and Snap copy out, so readers never alias the payload.
func (s *SDRAM) StoreShared(i int) error {
	seg := s.table.entries[i]
	if err := s.replace(seg.addr, len(seg.data)); err != nil {
		return err
	}
	s.shared = Mark(s.shared, i)
	return nil
}

// Load reads back a segment stored at addr.
func (s *SDRAM) Load(addr uint32) ([]byte, bool) {
	if d, ok := s.private[addr]; ok {
		return append([]byte(nil), d...), true
	}
	if n, ok := s.zeros[addr]; ok {
		return make([]byte, n), true
	}
	if i := s.member(addr); i >= 0 {
		return append([]byte(nil), s.table.entries[i].data...), true
	}
	return nil, false
}

// Snap codes the SDRAM's dynamic state for snapshots: the counters, the
// table entries this chip holds as one bit each at their positions in
// the image's segment table (held, encoding, is the set of entries that
// table codes; decoding, the table is the image's), then the private
// segments in ascending address order, an all-zero one by its length.
// Decoding stores each segment as Store and StoreShared would, so the
// restored chip aliases the table, usage is recounted and a segment
// that would overflow the SDRAM fails the codec.
func (s *SDRAM) Snap(c *snap.Codec, held []uint64) {
	c.I64((*int64)(&s.busyUntil))
	c.U64(&s.Transfers)
	c.U64(&s.BytesMoved)
	c.I64((*int64)(&s.ContentionBusy))
	var members []uint64
	var addrs []uint32
	if !c.Decoding() {
		for i := range eachBit(s.shared) {
			members = Mark(members, rank(held, i))
		}
		addrs = slices.AppendSeq(addrs, maps.Keys(s.private))
		addrs = slices.AppendSeq(addrs, maps.Keys(s.zeros))
		slices.Sort(addrs)
	}
	snap.Slice(c, &members)
	for w := range members {
		c.U64(&members[w])
	}
	if c.Decoding() {
		s.shared, s.private, s.zeros, s.used = nil, nil, nil, 0
		for i := range eachBit(members) {
			if i >= len(s.table.entries) {
				c.Fail(fmt.Errorf("chip: SDRAM holds segment %d past the %d-entry segment table", i, len(s.table.entries)))
				return
			}
			if err := s.StoreShared(i); err != nil {
				c.Fail(err)
				return
			}
		}
	}
	snap.Slice(c, &addrs)
	for k := 0; k < len(addrs) && c.Err() == nil; k++ {
		c.U32(&addrs[k])
		var data []byte
		n, zero := 0, false
		if !c.Decoding() {
			data = s.private[addrs[k]]
			n, zero = s.zeros[addrs[k]]
		}
		c.Bool(&zero)
		if zero {
			u := uint32(n)
			c.U32(&u)
			n = int(u)
		} else {
			c.Bytes32(&data)
		}
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		var err error
		if zero {
			err = s.storeZeros(addrs[k], n)
		} else {
			err = s.Store(addrs[k], data)
		}
		if err != nil {
			c.Fail(err)
		}
	}
}

// DMARequest is one queued DMA operation.
type DMARequest struct {
	// Size in bytes.
	Size int
	// Write is true for processor->SDRAM transfers.
	Write bool
	// Tag is opaque to the controller (e.g. which synaptic row).
	Tag uint32
}

// DMAController is one processor subsystem's DMA engine: a FIFO of
// requests issued to the shared SDRAM one at a time (Fig 4). The Fig-7
// kernel enqueues a synaptic-data fetch per incoming spike and processes
// rows on the completion interrupt.
//
// The fetch path is allocation-free: Attach the core (or install OnDone)
// once and enqueue plain requests — the completion interrupt and the
// snapshot descriptor are produced from the controller's own state.
type DMAController struct {
	eng   sim.Scheduler
	sdram *SDRAM
	queue []DMARequest
	head  int
	busy  bool
	cur   DMARequest // the in-flight request (valid while busy)
	doneP dmaDoneEv  // cached completion payload (≤1 pending: FIFO server)

	// A transfer with nothing queued behind it may complete as only a
	// timestamp and a reserved key (the rule kernel.Core follows): a
	// write-back because it interrupts nobody, and — on a controller
	// attached to its core — a row fetch a handler launched, because that
	// core settles it (Fold). While lone is set busy may be stale and
	// Completed one short; Sync settles it. None of the three reaches a
	// snapshot.
	doneAt  sim.Time
	doneSeq uint64
	lone    bool
	// folds is set by Attach: reads come only from the core's handlers,
	// and the core offers each lone one a place in its dispatch.
	folds bool

	// tag, when set, prefixes the snapshot descriptor of the in-flight
	// completion so a restore can route it back to this controller.
	// Controllers without a tag cannot be snapshotted mid-transfer.
	tag []uint64

	// OnDone, when set, runs at each completed read (non-Write) request
	// with its Tag — the Fig-7 "DMA complete" interrupt. Write-backs
	// complete silently.
	OnDone func(tag uint32)

	// Completed counts finished requests (call Sync first for an exact
	// reading from outside the controller's own events).
	Completed uint64
	// MaxQueue records the high-water mark (detects overload).
	MaxQueue int
}

// NewDMAController returns a controller bound to the shared SDRAM.
func NewDMAController(eng sim.Scheduler, sdram *SDRAM) *DMAController {
	d := &DMAController{eng: eng, sdram: sdram}
	d.doneP.d = d
	return d
}

// SetSnapshotTag installs the descriptor prefix (the owning unit's
// stable identity) stamped on the in-flight completion event.
func (d *DMAController) SetSnapshotTag(tag ...uint64) { d.tag = tag }

// Event kinds of the in-flight completion: a synaptic-row fetch and a
// write-back. Args are the snapshot tag followed by the request Tag.
const (
	KindRowDone       = "dma.row"
	KindWriteBackDone = "dma.wb"
)

// dmaDoneEv is the in-flight transfer's completion event.
type dmaDoneEv struct{ d *DMAController }

func (p *dmaDoneEv) Run() { p.d.complete() }

// complete is the in-flight transfer's whole effect: counted, the
// interrupt for a read, and the next request launched.
func (d *DMAController) complete() {
	d.Completed++
	if !d.cur.Write && d.OnDone != nil {
		d.OnDone(d.cur.Tag)
	}
	d.next(false)
}

func (p *dmaDoneEv) EventDesc() *sim.Desc {
	d := p.d
	if d.tag == nil {
		return nil
	}
	kind := KindRowDone
	if d.cur.Write {
		kind = KindWriteBackDone
	}
	return &sim.Desc{Kind: kind, Args: append(append([]uint64(nil), d.tag...), uint64(d.cur.Tag))}
}

// Completion makes req the in-flight request and returns its completion
// event — for the controller's own launch, and for a restore re-creating
// the completion that was pending when the snapshot was taken (only
// Write and Tag matter then: the transfer is already admitted).
func (d *DMAController) Completion(req DMARequest) sim.Payload {
	d.cur = req
	return &d.doneP
}

// EventKinds returns the kind-table entries for DMA completions; dmaOf
// resolves a descriptor's snapshot tag to its controller.
func EventKinds(dmaOf func(tag []uint64) (*DMAController, error)) sim.Kinds {
	entry := func(write bool) func(*sim.EventRecord) (sim.Payload, error) {
		return func(rec *sim.EventRecord) (sim.Payload, error) {
			args := rec.Desc.Args
			if len(args) == 0 || args[len(args)-1] > 0xFFFF_FFFF {
				return nil, fmt.Errorf("chip: %s needs a 32-bit request tag as its last arg, got %v", rec.Desc.Kind, args)
			}
			d, err := dmaOf(args[:len(args)-1])
			if err != nil {
				return nil, err
			}
			return d.Completion(DMARequest{Write: write, Tag: uint32(args[len(args)-1])}), nil
		}
	}
	return sim.Kinds{KindRowDone: entry(false), KindWriteBackDone: entry(true)}
}

// Attach makes c the core this controller interrupts: each finished row
// fetch posts c's DMA-done interrupt, and a fetch one of c's handlers
// launches with nothing queued behind it is left for c to fold into its
// dispatch (kernel.Fetcher). From then on reads must be enqueued from
// c's handlers only — outside a dispatch nobody would place them.
func (d *DMAController) Attach(c *kernel.Core) {
	d.OnDone = c.PostDMADone
	d.folds = true
	c.FoldFetches(d)
}

// Fold offers the row fetch the handler just launched to its core, busy
// until until: a lone fetch landing no later stays a timestamp and the
// core settles it (Sync), which Fold reports; one landing after becomes
// its completion event under the key it reserved.
func (d *DMAController) Fold(until sim.Time) bool {
	if !d.lone || d.cur.Write {
		return false
	}
	if d.doneAt <= until {
		return true
	}
	d.lone = false
	d.eng.AtReserved(d.doneAt, d.doneSeq, &d.doneP)
	return false
}

// Sync settles a lone completion: one whose instant has passed takes
// its whole effect now (complete), one still ahead becomes the event it
// stands for. Enqueue and QueueLen do this for themselves, the attached
// core for a folded fetch; a snapshot syncs before it exports the event
// queue.
func (d *DMAController) Sync() {
	if !d.lone {
		return
	}
	d.lone = false
	if d.eng.Passed(d.doneAt, d.doneSeq) {
		d.complete()
	} else {
		d.eng.AtReserved(d.doneAt, d.doneSeq, &d.doneP)
	}
}

// Enqueue adds a request; it is served after all earlier ones.
func (d *DMAController) Enqueue(req DMARequest) {
	if d.lone {
		d.Sync()
	}
	d.queue = append(d.queue, req)
	occupancy := len(d.queue) - d.head
	if d.busy {
		occupancy++
	}
	if occupancy > d.MaxQueue {
		d.MaxQueue = occupancy
	}
	if !d.busy {
		d.next(d.folds)
	}
}

// next launches the next queued request. fold is set when a handler of
// the attached core launched it (Enqueue), so the core's Fold follows.
func (d *DMAController) next(fold bool) {
	if d.head == len(d.queue) {
		// Drained: rewind so the buffer's capacity is reused (a plain
		// [1:] pop would strand it and re-grow on every burst).
		d.queue = d.queue[:0]
		d.head = 0
		d.busy = false
		return
	}
	d.busy = true
	d.cur = d.queue[d.head]
	d.head++
	d.doneAt, d.doneSeq = d.sdram.admit(d.cur.Size), d.eng.Reserve()
	if d.head == len(d.queue) && (d.cur.Write || fold) {
		// Nobody waits for a lone write-back, and a lone fetch lands where
		// its core's Fold puts it: keep the key the completion would have
		// drawn, but schedule nothing yet.
		d.lone = true
		return
	}
	d.eng.AtReserved(d.doneAt, d.doneSeq, &d.doneP)
}

// fresh reports whether the controller holds exactly the state
// NewDMAController gives it: nothing queued, idle, and no request ever
// served.
func (d *DMAController) fresh() bool {
	return len(d.queue) == d.head && !d.busy && !d.lone && d.Completed == 0 && d.MaxQueue == 0
}

// Snap codes the controller's dynamic state for snapshots: the queued
// requests (the in-flight transfer, if any, lives in the event queue as
// a described event) and the busy flag as-is — when true, the matching
// completion event is re-injected separately from the event queue.
func (d *DMAController) Snap(c *snap.Codec) {
	if d.lone {
		panic("chip: snapshot of a DMA controller with an unsettled completion; Sync before exporting events")
	}
	queue := d.queue[d.head:]
	snap.Slice(c, &queue)
	for i := range queue {
		c.Int(&queue[i].Size)
		c.Bool(&queue[i].Write)
		c.U32(&queue[i].Tag)
	}
	if c.Decoding() {
		d.queue, d.head = queue, 0
	}
	c.Bool(&d.busy)
	c.U64(&d.Completed)
	c.Int(&d.MaxQueue)
}
