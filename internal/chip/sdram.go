package chip

import (
	"fmt"

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
// data can actually be written and read back in boot and host tests.
type SDRAM struct {
	eng sim.Scheduler
	// Latency is the fixed setup cost per transfer.
	Latency sim.Time
	// BytesPerUS is the sustained bandwidth in bytes per microsecond.
	BytesPerUS float64

	busyUntil sim.Time
	segments  map[uint32][]byte
	used      int

	// Counters for the energy model.
	Transfers      uint64
	BytesMoved     uint64
	ContentionBusy sim.Time // cumulative time requests spent queued
}

// NewSDRAM returns a mobile-DDR-class SDRAM model: ~1 GB/s sustained,
// ~150 ns first-word latency.
func NewSDRAM(eng sim.Scheduler) *SDRAM {
	return &SDRAM{
		eng:        eng,
		Latency:    150 * sim.Nanosecond,
		BytesPerUS: 1000, // 1 GB/s
		segments:   make(map[uint32][]byte),
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

// Store writes data at the given address in the segment store. It fails
// when the SDRAM would overflow.
func (s *SDRAM) Store(addr uint32, data []byte) error {
	old := len(s.segments[addr])
	if s.used-old+len(data) > SDRAMBytes {
		return fmt.Errorf("chip: SDRAM overflow storing %d bytes at %#x", len(data), addr)
	}
	s.used += len(data) - old
	s.segments[addr] = append([]byte(nil), data...)
	return nil
}

// StoreShared is Store without the defensive copy: the segment aliases
// the caller's slice. For machine-wide immutable payloads — the boot
// image's flood-fill blocks, a host fill's data — this keeps one copy
// per machine instead of one per chip, the dominant heap term when a
// 64k-chip torus loads an image. The caller must not mutate data
// afterwards; Load and Snap copy out, so readers never alias it
// back.
func (s *SDRAM) StoreShared(addr uint32, data []byte) error {
	old := len(s.segments[addr])
	if s.used-old+len(data) > SDRAMBytes {
		return fmt.Errorf("chip: SDRAM overflow storing %d bytes at %#x", len(data), addr)
	}
	s.used += len(data) - old
	s.segments[addr] = data
	return nil
}

// Load reads back a segment stored at addr.
func (s *SDRAM) Load(addr uint32) ([]byte, bool) {
	d, ok := s.segments[addr]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}

// Used reports the bytes held in the segment store.
func (s *SDRAM) Used() int { return s.used }

// Snap codes the SDRAM's dynamic state for snapshots, the segment store
// in ascending address order (deterministic bytes); decoding replaces
// the store.
func (s *SDRAM) Snap(c *snap.Codec) {
	c.I64((*int64)(&s.busyUntil))
	c.Int(&s.used)
	c.U64(&s.Transfers)
	c.U64(&s.BytesMoved)
	c.I64((*int64)(&s.ContentionBusy))
	snap.Map(c, &s.segments, func(data *[]byte) { c.Bytes32(data) })
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

// QueueLen reports outstanding requests (including the active one).
func (d *DMAController) QueueLen() int {
	d.Sync()
	n := len(d.queue) - d.head
	if d.busy {
		n++
	}
	return n
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
