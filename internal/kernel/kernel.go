// Package kernel implements the SpiNNaker real-time event-driven
// application model of paper Fig 7 and section 5.3. Every active
// application processor executes the same three tasks in response to
// interrupt events, in fixed priority order:
//
//	priority 1: incoming multicast packet (schedule a synaptic-data DMA)
//	priority 2: DMA completion          (process the synaptic row)
//	priority 3: 1 ms timer              (integrate the neuron equations)
//
// When all tasks are done the processor enters the low-power
// wait-for-interrupt state; the kernel accounts busy and sleep time so
// the energy model can price them, and it detects real-time overruns
// (a timer tick arriving while the previous tick's work is still queued).
package kernel

import (
	"fmt"

	"spinngo/internal/packet"
	"spinngo/internal/sim"
	"spinngo/internal/snap"
)

// EventType is a Fig-7 interrupt source.
type EventType int

// Event priorities follow Fig 7: lower value = higher priority.
const (
	// EvPacket is the packet-received interrupt (priority 1).
	EvPacket EventType = iota
	// EvDMADone is the DMA-completion interrupt (priority 2).
	EvDMADone
	// EvTimer is the millisecond timer interrupt (priority 3).
	EvTimer
	numEventTypes
)

func (e EventType) String() string {
	switch e {
	case EvPacket:
		return "packet"
	case EvDMADone:
		return "dma-done"
	case EvTimer:
		return "timer"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// Event is one queued interrupt.
type Event struct {
	Type EventType
	// Pkt is valid for EvPacket.
	Pkt packet.Packet
	// Tag is valid for EvDMADone (identifies the transfer).
	Tag uint32
	// Tick is valid for EvTimer.
	Tick uint64
}

// Handler processes one event and returns the number of ARM instructions
// the real handler would have executed; the kernel converts that to
// modelled busy time.
type Handler func(ev Event) (instructions uint64)

// Config parameterises one modelled core.
type Config struct {
	// MIPS is the core's sustained instruction throughput in millions
	// of instructions per second. The ARM968 at 200 MHz sustains
	// roughly 200.
	MIPS float64
	// TimerPeriod is the real-time tick (1 ms in the paper).
	TimerPeriod sim.Time
	// DispatchOverhead is the fixed interrupt-entry/exit cost in
	// instructions, added to every event.
	DispatchOverhead uint64
}

// DefaultConfig returns paper-scale core parameters.
func DefaultConfig() Config {
	return Config{MIPS: 200, TimerPeriod: sim.Millisecond, DispatchOverhead: 100}
}

// Core is one application processor running the event-driven kernel.
type Core struct {
	eng sim.Scheduler
	cfg Config

	handlers [numEventTypes]Handler
	queues   [numEventTypes]evQueue
	running  bool
	stopped  bool

	idleSince sim.Time
	startAt   sim.Time

	// Occupancy is a timestamp, not an event: a handler's completion,
	// due at busyUntil under the reserved key doneSeq, is scheduled only
	// once something waits for it. While elided is set the completion is
	// in no queue and running may be stale; Sync settles it. The three
	// fields never reach a snapshot — Sync runs first.
	busyUntil sim.Time
	doneSeq   uint64
	elided    bool

	// fetch is the core's DMA engine, if attached (FoldFetches). folded
	// marks a row fetch one of this core's handlers launched that lands
	// before that handler ends: it is a timestamp on the engine, settled
	// by the dispatch the handler's completion runs or by a reader (land).
	// No Post needs it earlier: until that dispatch pops, the backlog only
	// grows, so the DMA-done's late push leaves MaxBacklog as the eager
	// one would. A hint only — the engine may have settled it since.
	fetch  Fetcher
	folded bool

	// tag, when set, prefixes the snapshot descriptors of the core's
	// self-scheduled events (timer ticks, dispatch completions) so a
	// restore can route them back to this core. Cores without a tag
	// cannot be snapshotted.
	tag []uint64

	// timerP and dispatchP are the core's two self-scheduled events,
	// allocated once and re-armed in place: the timer chain and the
	// dispatch chain each keep at most one pending, so a core's
	// steady-state event processing allocates nothing.
	timerP    timerEv
	dispatchP dispatchEv

	// Instrumentation.
	BusyTime     sim.Time
	SleepTime    sim.Time // accumulated WFI time (finalised by Stop)
	Instructions uint64
	EventCounts  [numEventTypes]uint64
	// Overruns counts timer ticks that arrived while a previous timer
	// event was still pending — missed real-time deadlines.
	Overruns uint64
	// MaxBacklog is the high-water mark of queued events.
	MaxBacklog int
}

// NewCore returns a core on the scheduler (an Engine, or a chip's
// Domain in the sharded machine). Call On to install handlers, then
// Start.
func NewCore(eng sim.Scheduler, cfg Config) *Core {
	if cfg.MIPS <= 0 {
		panic("kernel: MIPS must be positive")
	}
	if cfg.TimerPeriod <= 0 {
		panic("kernel: timer period must be positive")
	}
	c := &Core{eng: eng, cfg: cfg}
	c.timerP.c = c
	c.dispatchP.c = c
	return c
}

// evQueue is a head-indexed FIFO: pop advances head, and draining
// rewinds to the buffer start, so steady-state traffic reuses the
// buffer instead of reallocating. (The previous q = q[1:] pop strands
// the capacity before the slice, forcing every later append to grow a
// fresh backing array — the single biggest allocator in the spike
// path.)
type evQueue struct {
	buf  []Event
	head int
}

func (q *evQueue) len() int      { return len(q.buf) - q.head }
func (q *evQueue) push(ev Event) { q.buf = append(q.buf, ev) }

func (q *evQueue) pop() Event {
	ev := q.buf[q.head]
	q.buf[q.head] = Event{} // release payload references
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return ev
}

// pending views the queued events in order (snapshot export).
func (q *evQueue) pending() []Event { return q.buf[q.head:] }

// Event kinds of a core's self-scheduled events. Args are the core's
// snapshot tag, followed for the timer by the tick number.
const (
	KindTimer    = "core.timer"
	KindDispatch = "core.dispatch"
)

// timerEv is the pending millisecond tick; the tick counter is updated
// in place on each re-arm.
type timerEv struct {
	c    *Core
	tick uint64
}

func (p *timerEv) Run()                 { p.c.timerTick(p.tick) }
func (p *timerEv) EventDesc() *sim.Desc { return p.c.desc(KindTimer, p.tick) }

// dispatchEv is the pending end-of-event continuation.
type dispatchEv struct{ c *Core }

func (p *dispatchEv) Run()                 { p.c.dispatch() }
func (p *dispatchEv) EventDesc() *sim.Desc { return p.c.desc(KindDispatch) }

// TimerEvent returns the core's timer event set to fire tick — for the
// core's own re-arm, and for a restore re-injecting a recorded pending
// tick.
func (c *Core) TimerEvent(tick uint64) sim.Payload {
	c.timerP.tick = tick
	return &c.timerP
}

// DispatchEvent returns the core's end-of-event continuation, for a
// restore re-injecting a recorded pending one.
func (c *Core) DispatchEvent() sim.Payload { return &c.dispatchP }

// EventKinds returns the kind-table entries for the kernel's
// self-scheduled events; coreOf resolves a descriptor's snapshot tag to
// its core.
func EventKinds(coreOf func(tag []uint64) (*Core, error)) sim.Kinds {
	return sim.Kinds{
		KindTimer: func(rec *sim.EventRecord) (sim.Payload, error) {
			args := rec.Desc.Args
			if len(args) == 0 {
				return nil, fmt.Errorf("kernel: %s has no tick number", KindTimer)
			}
			c, err := coreOf(args[:len(args)-1])
			if err != nil {
				return nil, err
			}
			return c.TimerEvent(args[len(args)-1]), nil
		},
		KindDispatch: func(rec *sim.EventRecord) (sim.Payload, error) {
			c, err := coreOf(rec.Desc.Args)
			if err != nil {
				return nil, err
			}
			return c.DispatchEvent(), nil
		},
	}
}

// On installs the handler for an event type (like spin1 callback
// registration). Must be called before Start.
func (c *Core) On(t EventType, h Handler) { c.handlers[t] = h }

// A Fetcher is the core's DMA engine (chip.DMAController). A row fetch
// a handler launches with nothing queued behind it is left unscheduled
// until the handler ends; if it lands by then, its DMA-done interrupt
// only ever waits for the handler's completion, so the core takes it
// over instead of the fetch being an event of its own.
type Fetcher interface {
	// Fold offers the fetch the handler just launched, if any, to a core
	// busy until until, and reports whether the core now owns it; one
	// landing later is scheduled as its own event.
	Fold(until sim.Time) bool
	// Sync lands a fetch whose instant has passed, posting its DMA-done
	// interrupt, and makes one still ahead its own event.
	Sync()
}

// FoldFetches binds the core's DMA engine: from now on every dispatch
// offers the engine's lone fetch a place in it (Fetcher).
func (c *Core) FoldFetches(f Fetcher) { c.fetch = f }

// SetSnapshotTag installs the descriptor prefix (the core's stable
// identity, e.g. fragment index and generation) stamped on the core's
// self-scheduled events so snapshots can re-create them.
func (c *Core) SetSnapshotTag(tag ...uint64) { c.tag = tag }

// desc builds a snapshot descriptor for a self-scheduled event, or nil
// when the core has no tag (untagged cores are not snapshot-safe).
func (c *Core) desc(kind string, extra ...uint64) *sim.Desc {
	if c.tag == nil {
		return nil
	}
	args := make([]uint64, 0, len(c.tag)+len(extra))
	args = append(args, c.tag...)
	args = append(args, extra...)
	return &sim.Desc{Kind: kind, Args: args}
}

// Start begins the free-running millisecond timer — "time models
// itself": there is no global synchronisation, only local ticks
// (section 3.1).
func (c *Core) Start() {
	c.startAt = c.eng.Now()
	c.idleSince = c.eng.Now()
	c.armTimer(0)
}

// armTimer schedules the next timer tick by re-arming the core's cached
// timer event: the self-rescheduling chain keeps pending ticks
// snapshot-safe (EventDesc describes them) without allocating per tick.
func (c *Core) armTimer(tick uint64) {
	c.eng.AfterP(c.cfg.TimerPeriod, c.TimerEvent(tick))
}

// timerTick fires one millisecond tick: it counts an overrun if the
// previous tick's work is still queued, posts the timer event, and
// re-arms. A tick landing on a stopped core is a no-op.
func (c *Core) timerTick(tick uint64) {
	if c.stopped {
		return
	}
	if c.queues[EvTimer].len() > 0 {
		c.Overruns++
	}
	c.Post(Event{Type: EvTimer, Tick: tick})
	c.armTimer(tick + 1)
}

// Stop halts the timer and finalises sleep accounting. The pending
// timer event still fires but lands on the stopped flag.
func (c *Core) Stop() {
	if c.stopped {
		return
	}
	c.Sync()
	c.stopped = true
	if !c.running {
		c.SleepTime += c.eng.Now() - c.idleSince
		c.idleSince = c.eng.Now()
	}
}

// Post delivers an interrupt to the core.
func (c *Core) Post(ev Event) {
	if c.stopped {
		return
	}
	c.queues[ev.Type].push(ev)
	if b := c.backlog(); b > c.MaxBacklog {
		c.MaxBacklog = b
	}
	if c.elided {
		c.Sync()
	}
	if !c.running {
		// Waking from WFI.
		c.SleepTime += c.eng.Now() - c.idleSince
		c.dispatch()
	}
}

// PostPacket is a convenience for the fabric delivery callback.
func (c *Core) PostPacket(pkt packet.Packet) { c.Post(Event{Type: EvPacket, Pkt: pkt}) }

// PostDMADone is a convenience for the DMA completion callback.
func (c *Core) PostDMADone(tag uint32) { c.Post(Event{Type: EvDMADone, Tag: tag}) }

func (c *Core) backlog() int {
	n := 0
	for i := range c.queues {
		n += c.queues[i].len()
	}
	return n
}

// Backlog reports currently queued events, a folded fetch settled first.
func (c *Core) Backlog() int {
	c.land()
	return c.backlog()
}

// land settles a folded fetch: at the dispatch its handler's completion
// runs it has passed, and its DMA-done interrupt is posted; for a reader
// it may still be ahead, and is armed.
func (c *Core) land() {
	if c.folded {
		c.folded = false
		c.fetch.Sync()
	}
}

// Sync settles an elided completion: one whose instant has passed takes
// its whole effect now — the core went to sleep at busyUntil — and one
// still ahead is scheduled under its reserved key, because from here on
// something waits for it. A folded fetch is settled first: its key is
// the earlier one. Post does this for itself; a caller about to read the
// core's state from outside (a snapshot, which must also find the
// pending completion in the event queue) syncs first.
func (c *Core) Sync() {
	c.land()
	if !c.elided {
		return
	}
	c.elided = false
	if c.eng.Passed(c.busyUntil, c.doneSeq) {
		c.running = false
		c.idleSince = c.busyUntil
	} else {
		c.eng.AtReserved(c.busyUntil, c.doneSeq, &c.dispatchP)
	}
}

// dispatch pops the highest-priority pending event and models its
// execution time; further events queue while the core is busy.
func (c *Core) dispatch() {
	c.land()
	var ev Event
	found := false
	for t := EventType(0); t < numEventTypes; t++ {
		if c.queues[t].len() > 0 {
			ev = c.queues[t].pop()
			found = true
			break
		}
	}
	if !found {
		// All tasks complete: enter wait-for-interrupt (Fig 7
		// goto_Sleep).
		c.running = false
		c.idleSince = c.eng.Now()
		return
	}
	c.running = true
	c.EventCounts[ev.Type]++
	instr := c.cfg.DispatchOverhead
	if h := c.handlers[ev.Type]; h != nil {
		instr += h(ev)
	}
	c.Instructions += instr
	dur := c.instrTime(instr)
	c.BusyTime += dur
	// The completion keeps the key it always had, but only work already
	// queued makes it an event: with nothing waiting, all it would do is
	// put the core to sleep (Fig 7 goto_Sleep), and Sync does that.
	c.busyUntil = c.eng.Now() + dur
	c.doneSeq = c.eng.Reserve()
	switch {
	case c.fetch != nil && c.fetch.Fold(c.busyUntil):
		// The handler's row fetch lands before it ends, and its DMA-done
		// will be waiting: arm now what Sync would have armed then. The
		// fetch drew its key first, so it wins a tie.
		c.folded = true
		c.eng.AtReserved(c.busyUntil, c.doneSeq, &c.dispatchP)
	case c.backlog() > 0:
		c.eng.AtReserved(c.busyUntil, c.doneSeq, &c.dispatchP)
	default:
		c.elided = true
	}
}

// instrTime converts an instruction count to modelled time.
func (c *Core) instrTime(instr uint64) sim.Time {
	return sim.Time(float64(instr) / c.cfg.MIPS * 1e3) // MIPS = instr/us
}

// SleepFraction reports the share of elapsed time spent in WFI since
// Start; call after Stop for exact accounting.
func (c *Core) SleepFraction() float64 {
	elapsed := c.eng.Now() - c.startAt
	if elapsed <= 0 {
		return 0
	}
	return float64(c.SleepTime) / float64(elapsed)
}

// RealTime reports whether the core kept up with its timer: no overruns.
func (c *Core) RealTime() bool { return c.Overruns == 0 }

// Snap codes the core's dynamic state for snapshots, overlaying it onto
// a freshly built core when decoding. The pending timer/dispatch events
// are not part of it — they live in the engine's event heap and
// round-trip as described events, which is why the caller must Sync
// before exporting that heap: an elided completion is in neither place.
func (c *Core) Snap(s *snap.Codec) {
	if c.elided {
		panic("kernel: snapshot of a core with an unsettled completion; Sync before exporting events")
	}
	for i := range c.queues {
		evs := c.queues[i].pending()
		snap.Slice(s, &evs)
		for j := range evs {
			ev := &evs[j]
			// Dispatch indexes EventCounts and handlers by the type.
			snap.Enum(s, &ev.Type, numEventTypes)
			ev.Pkt.Snap(s)
			s.U32(&ev.Tag)
			s.U64(&ev.Tick)
		}
		if s.Decoding() {
			c.queues[i] = evQueue{buf: evs}
		}
	}
	s.Bool(&c.running)
	s.Bool(&c.stopped)
	s.I64((*int64)(&c.idleSince))
	s.I64((*int64)(&c.startAt))
	s.I64((*int64)(&c.BusyTime))
	s.I64((*int64)(&c.SleepTime))
	s.U64(&c.Instructions)
	for i := range c.EventCounts {
		s.U64(&c.EventCounts[i])
	}
	s.U64(&c.Overruns)
	s.Int(&c.MaxBacklog)
}
