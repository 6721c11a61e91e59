package sim

import (
	"fmt"
	"math"
)

// eventKey is the canonical ordering key of an event. Events execute in
// (at, domain, class, k1, k2) order:
//
//   - at is the simulated timestamp;
//   - domain identifies the model component (chip) owning the event, or
//     -1 for events scheduled directly on the engine;
//   - class separates domain-local events (0) from cross-domain
//     deliveries (1), with local events first;
//   - k1/k2 are (local sequence, 0) for class 0 and (source domain,
//     source sequence) for class 1.
//
// The point of this key — rather than plain insertion order — is that
// every field is derived from the simulation trajectory itself, never
// from scheduling interleave: a sharded run inserting a delivery at a
// window barrier and a single-engine run inserting it mid-stream give
// the event the same key, so ties at equal timestamps resolve
// identically for every worker count.
type eventKey struct {
	at     Time
	domain int32
	class  uint8
	k1     uint64
	k2     uint64
}

func (a eventKey) less(b eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.domain != b.domain {
		return a.domain < b.domain
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	return a.k2 < b.k2
}

// Desc is a serialisable description of a scheduled event: enough for a
// snapshot to re-create the event's payload after a restore. Kind names
// the entry of the machine's kind table ("fab.arrive", "core.timer",
// ...), Args carries small scalars and Blob an opaque body (an encoded
// packet, say).
type Desc struct {
	Kind string
	Args []uint64
	Blob []byte
}

// Payload is the one form an event body takes: Run executes the event
// and EventDesc produces its snapshot descriptor on demand — only an
// event still pending when a snapshot is exported ever materialises
// one. Hot paths (router transmit drains, kernel dispatch, timer ticks)
// keep one payload value alive and re-schedule it instead of allocating
// per event; a payload value must not be re-armed while it is still
// pending. A payload whose EventDesc returns nil cannot be snapshotted —
// ExportEvents reports it as an error, which is exactly how
// un-serialisable state is audited out of the model.
type Payload interface {
	Run()
	EventDesc() *Desc
}

// Func adapts a plain function to Payload for tests and for the phases
// in which a snapshot is illegal anyway (boot, host commands in flight,
// stand-alone sub-simulations). It has no descriptor, so ExportEvents
// rejects a pending Func. Func values are pointer-shaped: scheduling a
// pre-built one allocates nothing.
type Func func()

// Run calls f.
func (f Func) Run() { f() }

// EventDesc reports no descriptor: a Func cannot be snapshotted.
func (f Func) EventDesc() *Desc { return nil }

// An event is a payload scheduled to run at a simulated instant.
type event struct {
	key     eventKey
	payload Payload
}

// Scheduler is the event-scheduling surface shared by Engine (anonymous
// domain) and Domain (a chip-owned slice of an engine). Model
// components take a Scheduler so the same code runs in single-engine
// and sharded machines.
//
// The last three calls serve a completion nobody may be waiting for (a
// core going back to sleep, a write-back leaving the DMA controller
// idle, a row fetch landing while the handler that launched it runs).
// Its owner reserves the key the event would have drawn, so every later
// key is what it would have been, and schedules nothing: whoever next
// needs the owner's state asks whether the instant has passed and either
// applies the completion's effect on the spot or arms the event under
// the reserved key. A packet riding another's route event (a batch of
// same-instant injections) reserves its key the same way.
type Scheduler interface {
	Now() Time
	AtP(t Time, p Payload)
	AfterP(d Time, p Payload)
	// Reserve draws the next local sequence number without scheduling
	// anything.
	Reserve() uint64
	// AtReserved schedules p at t under a sequence number Reserve drew.
	AtReserved(t Time, seq uint64, p Payload)
	// Passed reports whether a local event at (t, seq), had it been
	// scheduled, would have run by now in canonical order.
	Passed(t Time, seq uint64) bool
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// not usable; construct with New.
type Engine struct {
	now Time
	// cur is the domain of the last executed event, whose class and k1
	// that domain keeps: with now it marks how far down the canonical
	// order this engine has come, which is what Passed compares against.
	// nil once the clock has been moved past every event at now.
	cur       *Domain
	seq       uint64
	q         queue
	anon      Domain // owns the engine-level (domain -1) events
	rng       *RNG
	processed uint64
}

var _ Scheduler = (*Engine)(nil)
var _ Scheduler = (*Domain)(nil)

// New returns an Engine whose clock starts at 0 and whose random stream is
// derived from seed.
func New(seed uint64) *Engine {
	e := &Engine{rng: NewRNG(seed)}
	e.anon.id = -1
	return e
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random number generator. On a
// non-control shard of a ParallelEngine there is none — randomness
// must come from the control stream or a per-component fork — and
// asking for it panics rather than letting a shard-local draw make
// results depend on the shard count.
func (e *Engine) RNG() *RNG {
	if e.rng == nil {
		panic("sim: shard engine has no RNG; use the control-plane RNG (ParallelEngine.RNG) or a forked per-component stream")
	}
	return e.rng
}

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.q.len() }

// NextAt reports the timestamp of the earliest pending event, if any.
func (e *Engine) NextAt() (Time, bool) { return e.q.peekAt() }

// anonymous returns the domain that owns the engine-level events. It
// enters the queue on first use, so an engine that only ever schedules
// through chip domains spends no tournament leaf on it.
func (e *Engine) anonymous() *Domain {
	if e.anon.eng == nil {
		e.anon.eng = e
		e.q.bind(&e.anon)
	}
	return &e.anon
}

// push schedules ev on d, one of this engine's domains.
func (e *Engine) push(d *Domain, ev event) {
	if ev.key.at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", ev.key.at, e.now))
	}
	e.q.push(d, ev)
}

// AtP schedules p to run at absolute simulated time t, in the engine's
// anonymous domain (FIFO among themselves at equal times). Scheduling
// in the past panics: it indicates a causality bug in the model.
func (e *Engine) AtP(t Time, p Payload) {
	e.seq++
	e.push(e.anonymous(), event{key: eventKey{at: t, domain: -1, k1: e.seq}, payload: p})
}

// AfterP schedules p to run d nanoseconds from now.
func (e *Engine) AfterP(d Time, p Payload) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.AtP(e.now+d, p)
}

// Reserve draws the next anonymous sequence number (see Scheduler).
func (e *Engine) Reserve() uint64 {
	e.seq++
	return e.seq
}

// AtReserved schedules p at t in the anonymous domain under a reserved
// sequence number.
func (e *Engine) AtReserved(t Time, seq uint64, p Payload) {
	e.push(e.anonymous(), event{key: eventKey{at: t, domain: -1, k1: seq}, payload: p})
}

// Passed reports whether an anonymous event at (t, seq) would have run
// by now.
func (e *Engine) Passed(t Time, seq uint64) bool { return e.passed(&e.anon, t, seq) }

// passed places the local key (t, d, class 0, seq) against the last
// executed event: earlier instants have passed, later ones have not, and
// at the current instant the rest of the canonical key decides — the
// domain, then class and sequence against the event now executing on d
// (a cross-domain delivery, class 1, runs after every local event of its
// instant).
func (e *Engine) passed(d *Domain, t Time, seq uint64) bool {
	if t != e.now {
		return t < e.now
	}
	switch c := e.cur; {
	case c == nil:
		return true
	case c != d:
		return d.id < c.id
	default:
		return d.runClass != 0 || seq < d.runK1
	}
}

// Step executes the next event, if any, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	at, payload := e.q.pop()
	e.now, e.cur = at, e.q.late
	e.processed++
	payload.Run()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() { e.RunThrough(Forever, nil) }

// Drain is Run on a single event stream (see Runner.Drain).
func (e *Engine) Drain() { e.Run() }

// RunUntil executes events with timestamps <= deadline, advancing the
// clock to exactly deadline when the queue drains early or only later
// events remain.
func (e *Engine) RunUntil(deadline Time) {
	e.RunThrough(deadline, nil)
	if e.now < deadline {
		e.now = deadline
	}
	e.cur = nil // everything at or before the deadline has run
}

// RunThrough executes events with timestamps <= last, in canonical
// order, and is the one event loop every driver runs: a window of the
// sharded ParallelEngine is a RunThrough to its last instant. It never
// moves the clock past the last executed event, so later events (or
// cross-shard deliveries) keep their exact ordering. halt, when non-nil,
// is re-checked after every event; as soon as it reports true execution
// stops — clock left exactly at the halting event's timestamp, later
// events (even at the same instant) still pending — and RunThrough
// reports true. Because the halting event's time is a property of the
// simulation trajectory, not of the window layout, drivers that stop
// here resume from an instant that is identical for every shard count.
// The bound is inclusive, so a run to Forever needs no end past it.
func (e *Engine) RunThrough(last Time, halt func() bool) bool {
	for {
		if at, ok := e.q.peekAt(); !ok || at > last {
			return false
		}
		e.Step()
		if halt != nil && halt() {
			return true
		}
	}
}

// advanceTo moves the clock forward to t without executing anything.
// It refuses to jump over pending events — callers synchronise clocks
// only at quiescence, when the queue is empty.
func (e *Engine) advanceTo(t Time) {
	if t <= e.now {
		return
	}
	if at, ok := e.q.peekAt(); ok && at < t {
		panic(fmt.Sprintf("sim: advancing clock to %v over pending event at %v", t, at))
	}
	e.now, e.cur = t, nil
}

// Domain is one model component's (one chip's) scheduling identity on
// an engine. All of a chip's events go through its single Domain, which
// stamps them with the chip id and a chip-local sequence number — keys
// that depend only on the chip's own trajectory, so the machine-wide
// event order is identical whether chips share one engine or are
// sharded across many. Create exactly one Domain per id; two Domains
// with the same id would collide in the ordering key.
type Domain struct {
	eng *Engine
	id  int32
	seq uint64
	// The domain's half of the engine's event queue (queue.go): its
	// pending events as a heap, and its leaf in the engine's tournament.
	pend []event
	slot int
	// runClass and runK1 are the class and k1 of the domain's last
	// executed event (see Engine.passed).
	runClass uint8
	// hole reports that pend[0] is the slot the last pop left (queue.go).
	hole  bool
	runK1 uint64
}

// Domain returns a new scheduling domain with the given id (>= 0) on
// this engine.
func (e *Engine) Domain(id int) *Domain {
	if id < 0 || id >= math.MaxInt32 { // MaxInt32 is the queue's idle mark
		panic("sim: domain id must be in [0, MaxInt32)")
	}
	d := &Domain{eng: e, id: int32(id)}
	e.q.bind(d)
	return d
}

// Engine returns the engine this domain schedules on.
func (d *Domain) Engine() *Engine { return d.eng }

// ID reports the domain id.
func (d *Domain) ID() int { return int(d.id) }

// Scheduled reports how many domain-local keys have ever been drawn here
// (the domain's sequence counter: scheduled events and Reserve calls).
// It grows only with the simulation trajectory — never with the shard
// layout. A snapshot records it so a restored domain draws the keys the
// straight run would (RestoreSeq), and the fabric's batched injection
// reads it to tell that no key was drawn since a pending route event's
// last packet. Cross-domain deliveries are keyed by their sender and are
// not counted.
func (d *Domain) Scheduled() uint64 { return d.seq }

// Now reports the domain's engine clock.
func (d *Domain) Now() Time { return d.eng.now }

// AtP schedules a domain-local event at absolute time t.
func (d *Domain) AtP(t Time, p Payload) {
	d.seq++
	d.eng.push(d, event{key: eventKey{at: t, domain: d.id, k1: d.seq}, payload: p})
}

// AfterP schedules a domain-local event dur nanoseconds from now.
func (d *Domain) AfterP(dur Time, p Payload) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", dur))
	}
	d.AtP(d.eng.now+dur, p)
}

// Reserve draws the next domain-local sequence number (see Scheduler);
// Scheduled counts it like any other.
func (d *Domain) Reserve() uint64 {
	d.seq++
	return d.seq
}

// AtReserved schedules a domain-local event at t under a reserved
// sequence number.
func (d *Domain) AtReserved(t Time, seq uint64, p Payload) { d.Inject(t, 0, seq, 0, p) }

// Passed reports whether a domain-local event at (t, seq) would have run
// by now.
func (d *Domain) Passed(t Time, seq uint64) bool { return d.eng.passed(d, t, seq) }

// Cancel withdraws the pending event whose payload is p and reports
// whether there was one. It finds p by identity, so p must be
// comparable (a pointer payload), and it scans the domain's pending
// list: it is for the rare event that has to move to another instant
// (cancel, then schedule it again), not for a hot path.
func (d *Domain) Cancel(p Payload) bool { return d.eng.q.cancel(d, p) }

// DeliverAtP schedules a cross-domain delivery (class 1) at absolute
// time t, keyed by the sender's domain id and per-sender sequence
// number. The key is supplied by the sender, not drawn from this
// domain, so the delivery sorts identically no matter when — or on
// which engine — it was physically inserted.
func (d *Domain) DeliverAtP(t Time, src int32, srcSeq uint64, p Payload) {
	d.eng.push(d, event{key: eventKey{at: t, domain: d.id, class: 1, k1: uint64(src), k2: srcSeq}, payload: p})
}

// Inject re-creates an event with an explicit canonical key — exactly as
// recorded by a snapshot — without consuming a fresh sequence number.
// It is the restore-side counterpart of ExportEvents: the caller owns
// key uniqueness (the keys come from a previously exported heap) and
// must follow up with RestoreSeq so future locally-scheduled events sort
// after the re-injected ones.
func (d *Domain) Inject(t Time, class uint8, k1, k2 uint64, p Payload) {
	d.eng.push(d, event{key: eventKey{at: t, domain: d.id, class: class, k1: k1, k2: k2}, payload: p})
}

// RestoreSeq overwrites the domain's local sequence counter. Snapshot
// restore uses it so events scheduled after the restore draw the same
// keys the straight run would have drawn.
func (d *Domain) RestoreSeq(seq uint64) { d.seq = seq }
