package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"spinngo/internal/snap"
)

// Runner is what the boot controller drives: Engine (a single event
// stream) and ParallelEngine (a sharded one) both satisfy it, so the
// same controller boots either.
type Runner interface {
	// RNG returns the deterministic control-plane random stream. All
	// sequential (non-event) randomness must come from here so that
	// results do not depend on the shard count.
	RNG() *RNG
	// Drain executes events to quiescence and leaves every clock at the
	// last executed event. A sharded engine runs parallel lookahead
	// windows, so callers may depend only on the quiescent end state:
	// control phases whose handlers respect the PDES contract
	// (chip-local state, lookahead-priced cross-chip traffic) drain
	// here and parallelise for free.
	Drain()
}

var _ Runner = (*Engine)(nil)
var _ Runner = (*ParallelEngine)(nil)

// mailMsg is one cross-shard delivery waiting for the next window
// barrier. It carries the sender's canonical key (source domain id and
// per-sender sequence), so insertion order into the destination heap is
// irrelevant: the heap sorts deliveries by their keys.
type mailMsg struct {
	at      Time
	dst     *Domain
	src     int32
	srcSeq  uint64
	payload Payload
}

// shardLane is the per-shard state the window protocol touches: the
// shard's outgoing mail, appended by whichever goroutine runs the shard
// inside a window. Neighbouring shards run on different cores and append
// mail on every cross-shard post, so each lane has a cache line to
// itself (BenchmarkHandoff's mail rows run 5-8 % slower without the
// padding).
type shardLane struct {
	// mail is the shard's per-window envelope arena: appended only while
	// the shard executes a window, drained and length-reset (capacity
	// kept — a bump arena) by the coordinator at the barrier. Each
	// message carries its destination domain and a canonical key, so no
	// (src,dst) structure is needed: the destination queue orders
	// deliveries, and the drain is O(messages + shards) instead of an
	// O(shards²) matrix scan.
	mail []mailMsg
	_    [64 - 24]byte
}

// ParallelEngine is a sharded discrete-event scheduler implementing
// conservative parallel discrete-event simulation (PDES). The model is
// partitioned into shards, each driven by its own deterministic Engine;
// shards advance together through lookahead windows no wider than the
// minimum cross-shard event latency, so no shard can receive an event
// from a peer inside the window it is currently executing — the same
// bounded-asynchrony argument the paper makes for a GALS fabric of
// locally-clocked chips (sections 3 and 5).
//
// Cross-shard events travel through per-source envelope arenas drained
// at window barriers; every delivery carries a canonical (timestamp,
// source domain, source sequence) key assigned by the sender, so the
// merged event order — and therefore the whole simulation — is
// independent of goroutine scheduling and of the shard count itself.
//
// Execution uses resident helpers (see helperPool): goroutines created
// once at construction that spin on the window ticket while windows
// keep coming and park when they stop, so neither a ms-granular stepping
// loop (Machine.Run's per-tick loop) nor a single window pays a
// goroutine spawn or a wake-up. There is one way to run: Drain (boot's
// quiescence phases), RunUntil (the model run) and RunUntilAnyOf (host
// waits) all drive the same window loop (advance) and differ only in
// where it stops and where they leave the clocks.
//
// With a single shard every method degenerates to the plain Engine,
// bit-for-bit. Whether a given window is shared with the helpers or runs
// inline on the coordinator is pure execution strategy: it cannot affect
// the event order.
type ParallelEngine struct {
	shards    []*Engine
	workers   int
	lookahead Time

	// lanes[i] is shard i's mail arena.
	lanes []shardLane

	// curLast/inWindow let PostP assert the lookahead contract from any
	// goroutine while a window is executing: curLast is the window's
	// last instant.
	curLast  atomic.Int64
	inWindow atomic.Bool

	// Resident helpers: min(workers, GOMAXPROCS)-1 goroutines sharing
	// each pooled window with the coordinator. Nil when the engine never
	// runs windows concurrently, and after Close. The pointer is atomic
	// so that concurrent Closes retire the pool exactly once.
	pool atomic.Pointer[helperPool]

	// transitions counts driver round-trips into the engine: one per
	// Drain and one per RunUntilAnyOf call. It is the "engine
	// stop/start" figure host-side batching amortises: a driver that
	// waits on N responses one at a time pays N transitions, a batch
	// pays one.
	transitions uint64

	// Window statistics, updated only at barriers (quiescence points of
	// the window protocol). They derive from event counts — simulation
	// trajectory, not wall clock — so they are identical run to run.
	windows       uint64 // lookahead windows executed
	parWindows    uint64 // windows dispatched to the pool
	windowEvents  uint64 // events executed inside windows
	activeScratch []int  // coordinator-local active-set buffer

	// Hand-off accounting. handoffs counts coordinator hand-off +
	// barrier cycles: one per runWindow and one per solo batch, however
	// many conceptual windows the batch covered — the per-window
	// coordination cost the batching amortises (handoffs <= windows;
	// single-shard spans run windowless and count no hand-off).
	// batchRuns counts solo batches; batchedWindows the conceptual
	// windows executed inside them.
	handoffs       uint64
	batchRuns      uint64
	batchedWindows uint64
}

// NewParallel returns a ParallelEngine with the given shard count.
// Shard 0's random stream is seeded exactly as New(seed), so the
// control-plane RNG draws the same sequence regardless of the shard
// count; further shards get independent derived streams. workers bounds
// how many shards execute concurrently within a window; the resident
// helpers — min(workers, GOMAXPROCS)-1 of them, none on one processor —
// are started here, once, and live until Close (or until the engine is
// garbage collected).
func NewParallel(seed uint64, shards, workers int) *ParallelEngine {
	if shards < 1 {
		panic("sim: parallel engine needs at least one shard")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	pe := &ParallelEngine{
		shards:        make([]*Engine, shards),
		workers:       workers,
		lookahead:     1,
		lanes:         make([]shardLane, shards),
		activeScratch: make([]int, 0, shards),
	}
	for i := range pe.shards {
		pe.shards[i] = New(seed)
		if i > 0 {
			// Only the control-plane stream (shard 0's) may ever be
			// drawn: a shard-local draw would depend on the shard
			// count and silently break the determinism contract.
			// Poison the others so any such draw fails loudly.
			pe.shards[i].rng = nil
		}
	}
	if helpers := helperCount(workers); helpers > 0 {
		pe.pool.Store(newHelperPool(helpers, shards))
		// Backstop for engines dropped without Close: the helpers hold
		// only the pool, so an abandoned engine becomes unreachable and
		// the finalizer stops them.
		runtime.SetFinalizer(pe, (*ParallelEngine).Close)
	}
	return pe
}

// Close stops the resident helpers. Idempotent and safe to call from
// multiple goroutines (shutdown is an atomic swap of the pool);
// safe on an engine with no pool; must not be called concurrently with
// RunUntil. A dropped engine is closed by its finalizer, so Close is an
// optimisation for callers that churn through many engines, not an
// obligation.
func (pe *ParallelEngine) Close() {
	pe.pool.Swap(nil).close()
	runtime.SetFinalizer(pe, nil)
}

// SetLookahead declares the minimum latency of any cross-shard event:
// an event executing at time t may only Post events with timestamps
// >= t + d. Windows are bounded by this value; Post enforces it.
func (pe *ParallelEngine) SetLookahead(d Time) {
	if d < 1 {
		d = 1
	}
	pe.lookahead = d
}

// Lookahead reports the configured cross-shard latency bound.
func (pe *ParallelEngine) Lookahead() Time { return pe.lookahead }

// Shards reports the shard count.
func (pe *ParallelEngine) Shards() int { return len(pe.shards) }

// Workers reports the execution parallelism bound.
func (pe *ParallelEngine) Workers() int { return pe.workers }

// Windows reports how many lookahead windows RunUntil has executed —
// the synchronisation-frequency figure the lookahead bound controls.
func (pe *ParallelEngine) Windows() uint64 { return pe.windows }

// ParallelWindows reports how many windows were dispatched to the pool
// (the rest ran inline: a single active shard, or no pool).
func (pe *ParallelEngine) ParallelWindows() uint64 { return pe.parWindows }

// Handoffs reports coordinator hand-off + barrier cycles: one per
// ordinary window plus one per solo batch (a batch settles many
// conceptual windows under a single hand-off, so Handoffs <= Windows;
// the gap is the synchronisation the batching saved). Single-shard
// spans run windowless and count none.
func (pe *ParallelEngine) Handoffs() uint64 { return pe.handoffs }

// BatchRuns reports how many solo batches were dispatched; each is one
// hand-off covering one or more conceptual windows.
func (pe *ParallelEngine) BatchRuns() uint64 { return pe.batchRuns }

// BatchedWindows reports how many conceptual windows executed inside
// solo batches (each also counted in Windows).
func (pe *ParallelEngine) BatchedWindows() uint64 { return pe.batchedWindows }

// EventsPerWindow reports the mean events per window over all windows
// so far (0 before the first window).
func (pe *ParallelEngine) EventsPerWindow() float64 {
	if pe.windows == 0 {
		return 0
	}
	return float64(pe.windowEvents) / float64(pe.windows)
}

// Transitions counts driver round-trips into the engine: Drains to
// quiescence plus RunUntilAnyOf waits. RunUntil spans (the bulk-run
// hot path) are not counted — the figure isolates how often a driver
// stopped the machine to look at it.
func (pe *ParallelEngine) Transitions() uint64 { return pe.transitions }

// Shard returns shard i's engine. Model components owned by a shard
// schedule their local events directly on it.
func (pe *ParallelEngine) Shard(i int) *Engine { return pe.shards[i] }

// RNG returns the control-plane random stream (shard 0's), identical
// for every shard count.
func (pe *ParallelEngine) RNG() *RNG { return pe.shards[0].RNG() }

// Now reports the global simulated high-water mark across shards.
func (pe *ParallelEngine) Now() Time {
	var now Time
	for _, s := range pe.shards {
		if t := s.Now(); t > now {
			now = t
		}
	}
	return now
}

// Processed reports events executed across all shards.
func (pe *ParallelEngine) Processed() uint64 {
	var n uint64
	for _, s := range pe.shards {
		n += s.Processed()
	}
	return n
}

// Pending reports events queued across all shards.
func (pe *ParallelEngine) Pending() int {
	n := 0
	for _, s := range pe.shards {
		n += s.Pending()
	}
	return n
}

// PostP schedules a delivery into domain dstDom (owned by shard dst) at
// absolute time at, on behalf of an event executing on shard src. The
// (srcID, srcSeq) pair is the sender's canonical key — see
// Domain.DeliverAtP. During a window the timestamp must respect the
// lookahead bound (at past the window's last instant); violating it is a
// causality bug in the model, not a recoverable condition. Outside a
// window (a single shard runs windowless) the delivery is inserted
// immediately. dst is retained for the caller's addressing symmetry;
// routing needs only dstDom, so the envelope lands in shard src's arena.
func (pe *ParallelEngine) PostP(src, dst int, dstDom *Domain, at Time, srcID int32, srcSeq uint64, p Payload) {
	if !pe.inWindow.Load() {
		dstDom.DeliverAtP(at, srcID, srcSeq, p)
		return
	}
	if at <= Time(pe.curLast.Load()) {
		panic(fmt.Sprintf("sim: cross-shard post at %v violates lookahead window through %v",
			at, Time(pe.curLast.Load())))
	}
	l := &pe.lanes[src]
	l.mail = append(l.mail, mailMsg{at: at, dst: dstDom, src: srcID, srcSeq: srcSeq, payload: p})
}

// drainMail moves the per-source envelope arenas into the destination
// engines and length-resets them (capacity kept: steady-state windows
// recycle the same backing arrays and allocate nothing). Deliveries
// carry canonical (timestamp, source domain, source sequence) keys, so
// the destination queues order them identically no matter which
// goroutine produced them first or in what order this loop inserts
// them — execution interleaving cannot leak into the event order.
func (pe *ParallelEngine) drainMail() {
	for src := range pe.lanes {
		box := pe.lanes[src].mail
		if len(box) == 0 {
			continue
		}
		for i := range box {
			m := &box[i]
			m.dst.DeliverAtP(m.at, m.src, m.srcSeq, m.payload)
			*m = mailMsg{} // drop references so the arena pins nothing
		}
		pe.lanes[src].mail = box[:0]
	}
}

// Drain executes events to quiescence under parallel lookahead windows
// and synchronises every shard clock to the global last-event time —
// exactly what a single merged engine's clock would read. Without the
// synchronisation, relative scheduling done between phases (boot floods,
// model loading) would start from each shard's own last event and the
// trajectory would depend on the shard count.
func (pe *ParallelEngine) Drain() {
	pe.transitions++
	pe.advance(Forever, -1, nil)
	pe.syncClocks()
}

// syncClocks advances every shard clock to the global high-water mark.
// Safe only when no pending event is older than it: at quiescence, or
// after a halt, where every shard stopped at or before the halting
// instant and everything earlier has run.
func (pe *ParallelEngine) syncClocks() {
	now := pe.Now()
	for _, s := range pe.shards {
		s.advanceTo(now)
	}
}

// noteWindow counts one window and its events. Called only at the
// window barrier.
func (pe *ParallelEngine) noteWindow(events uint64) {
	pe.windows++
	pe.windowEvents += events
}

// runWindow executes one lookahead window through last: every shard
// with events inside it runs, shared with the resident helpers whenever
// more than one shard has work and a pool exists (the coordinator
// always takes part itself). With a halt test (cond non-nil), shard
// watch runs first, alone on the coordinator, with cond re-checked
// after every event, so the halting event — if this window holds one —
// is found before any other shard commits work past it; the rest of the
// window is then cut at the halting instant. The lookahead contract
// makes that order safe: nothing a peer executes inside the window can
// reach the watch shard within it, and vice versa. It reports whether
// cond fired. Window statistics and barrier mailboxes are settled
// identically either way.
func (pe *ParallelEngine) runWindow(last Time, watch int, cond func() bool) bool {
	active := pe.activeScratch[:0]
	var before uint64
	for i, s := range pe.shards {
		if t, ok := s.NextAt(); ok && t <= last {
			active = append(active, i)
			before += s.Processed()
		}
	}
	pe.activeScratch = active
	pe.curLast.Store(int64(last))
	pe.inWindow.Store(true)
	skip, halted := -1, false
	if cond != nil {
		skip = watch
		if halted = pe.shards[watch].RunThrough(last, cond); halted {
			last = pe.shards[watch].now
		}
	}
	rest := 0
	for _, i := range active {
		if i != skip {
			rest++
		}
	}
	pool := pe.pool.Load()
	if rest > 1 && rest <= maxJobs && pool != nil {
		pool.run(pe.shards, active, skip, last)
		pe.parWindows++
	} else {
		for _, i := range active {
			if i != skip {
				pe.shards[i].RunThrough(last, nil)
			}
		}
	}
	pe.inWindow.Store(false)
	var after uint64
	for _, i := range active {
		after += pe.shards[i].Processed()
	}
	pe.noteWindow(after - before)
	pe.handoffs++
	pe.drainMail()
	return halted
}

// nextHorizons scans the shard queues once and reports the global
// earliest pending timestamp (next), the index of the shard holding it
// (solo — the first such shard; ok is false when every queue is empty),
// and the earliest pending timestamp over every *other* shard (n2,
// Forever when none). next and n2 are the two horizons the batching
// rule compares: a window starting at next stays single-shard exactly
// when it ends at or before n2.
func (pe *ParallelEngine) nextHorizons() (next Time, solo int, n2 Time, ok bool) {
	next, solo, n2 = Forever, -1, Forever
	for i, s := range pe.shards {
		t, tok := s.NextAt()
		if !tok {
			continue
		}
		if solo < 0 || t < next {
			if solo >= 0 && next < n2 {
				n2 = next
			}
			next, solo = t, i
		} else if t < n2 {
			n2 = t
		}
	}
	return next, solo, n2, solo >= 0
}

// runSoloBatch executes a run of consecutive lookahead windows owned
// entirely by shard solo under a single hand-off + barrier cycle. The
// caller proved the first window sound (next + lookahead <= n2, the
// other shards' horizon); each further window re-proves it before
// running. Four things end the batch: a window that would reach n2 (a
// peer becomes active — fall back to the ordinary protocol), the solo
// shard posting cross-shard mail (deliveries may move n2, so the batch
// settles at the barrier exactly as an unbatched window would), the
// deadline, or — when solo is the watch shard — cond firing, which
// leaves the clock at the halting event as runWindow would. n2 itself
// cannot move inside the batch — only mail deliveries change a peer's
// queue, and mail sits in the arena until the barrier. It reports
// whether cond fired.
//
// Every conceptual window runs the same RunThrough span with the same
// last instant the unbatched loop would use and is accounted through
// the same noteWindow, so Windows and EventsPerWindow are identical
// with batching on or off: the batch elides coordination, never
// trajectory.
func (pe *ParallelEngine) runSoloBatch(solo int, n2, deadline Time, watch int, cond func() bool) bool {
	s := pe.shards[solo]
	if solo != watch {
		cond = nil // only the watch shard's events can flip it
	}
	pe.inWindow.Store(true)
	var batched uint64
	halted := false
	for !halted {
		t, ok := s.NextAt()
		if !ok || t > deadline {
			break
		}
		last := min(t+pe.lookahead-1, deadline)
		if last >= n2 {
			break
		}
		pe.curLast.Store(int64(last))
		before := s.Processed()
		halted = s.RunThrough(last, cond)
		pe.noteWindow(s.Processed() - before)
		batched++
		if len(pe.lanes[solo].mail) > 0 {
			break
		}
	}
	pe.inWindow.Store(false)
	pe.handoffs++
	pe.batchRuns++
	pe.batchedWindows += batched
	pe.drainMail()
	return halted
}

// advance is the engine's one window loop: it executes events with
// timestamps <= deadline under lookahead windows and reports whether
// cond (nil for none) fired on an event of shard watch. Shards with
// events inside the current window run concurrently across the
// coordinator and the resident helpers; single-shard windows run on the
// coordinator, and runs of provably single-shard windows batch under one
// hand-off (see runSoloBatch). It leaves every clock at its shard's last
// executed event; the drivers decide where the clocks go from there.
func (pe *ParallelEngine) advance(deadline Time, watch int, cond func() bool) bool {
	if len(pe.shards) == 1 {
		// The whole span runs as one barrier-free window, accounted so
		// window statistics stay comparable across shard counts (a
		// single shard synchronises zero times, not an unknown number
		// of times).
		s := pe.shards[0]
		before := s.Processed()
		halted := s.RunThrough(deadline, cond)
		if ev := s.Processed() - before; ev > 0 {
			pe.noteWindow(ev)
		}
		return halted
	}
	for {
		next, solo, n2, ok := pe.nextHorizons()
		if !ok || next > deadline {
			return false
		}
		var halted bool
		if next+pe.lookahead <= n2 {
			halted = pe.runSoloBatch(solo, n2, deadline, watch, cond)
		} else {
			halted = pe.runWindow(min(next+pe.lookahead-1, deadline), watch, cond)
		}
		if halted {
			return true
		}
	}
}

// RunUntil executes events with timestamps <= deadline using parallel
// lookahead windows, then advances every shard clock to exactly
// deadline.
func (pe *ParallelEngine) RunUntil(deadline Time) {
	pe.advance(deadline, -1, nil)
	for _, s := range pe.shards {
		s.RunUntil(deadline)
	}
}

// RunUntilAnyOf executes parallel lookahead windows like RunUntil, but
// returns as soon as cond reports true — at the exact event that flipped
// it, not at a window boundary — or when the deadline is reached,
// whichever comes first. It reports whether cond fired.
//
// cond may only change state from events executing on the shard owning
// watch (the host gateway chip's domain): that shard runs first in every
// window it shares (see runWindow), and when cond flips at an event at
// time t no other shard executes past t. Every clock is then
// synchronised to t with everything later still pending, so the state a
// driver resumes from is a property of the simulation trajectory, never
// of the window layout or the shard count. This is what lets
// host-command waits ("k responses arrived or deadline") run under
// normal PDES windows without breaking the determinism contract.
//
// Window statistics account every window executed here exactly as
// RunUntil would. When cond does not fire, clocks advance to exactly
// deadline (or, with deadline Forever, to the last executed event).
func (pe *ParallelEngine) RunUntilAnyOf(deadline Time, watch *Domain, cond func() bool) bool {
	pe.transitions++
	if cond() {
		return true
	}
	idx := -1
	for i, s := range pe.shards {
		if s == watch.Engine() {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("sim: RunUntilAnyOf watch domain is not on this engine")
	}
	if pe.advance(deadline, idx, cond) {
		pe.syncClocks()
		return true
	}
	if deadline < Forever {
		for _, s := range pe.shards {
			s.RunUntil(deadline)
		}
	} else {
		pe.syncClocks()
	}
	return cond()
}

// EventRecord is one pending event in canonical-key form, as exported by
// ExportEvents and re-injected by Domain.Inject: the full (time, domain,
// class, k1, k2) key plus the serialisable descriptor the machine's
// kind table re-creates the payload from.
type EventRecord struct {
	At     Time
	Domain int32
	Class  uint8
	K1, K2 uint64
	Desc   Desc
}

// Snap codes the record for snapshots.
func (rec *EventRecord) Snap(c *snap.Codec) {
	c.I64((*int64)(&rec.At))
	c.I32(&rec.Domain)
	c.U8(&rec.Class)
	c.U64(&rec.K1)
	c.U64(&rec.K2)
	c.String(&rec.Desc.Kind)
	snap.Slice(c, &rec.Desc.Args)
	for i := range rec.Desc.Args {
		c.U64(&rec.Desc.Args[i])
	}
	c.Bytes32(&rec.Desc.Blob)
}

// Kinds is a table of event kinds: for each Desc.Kind, the constructor
// that rebuilds the payload from an exported record. The constructor
// must validate everything it reads (argument count and ranges, blob
// framing) and return a payload whose EventDesc reproduces rec.Desc, so
// a restored machine re-snapshots byte-identically.
type Kinds map[string]func(rec *EventRecord) (Payload, error)

// Add merges more entries into the table. Two packages claiming one
// kind is a programming error and panics.
func (k Kinds) Add(more Kinds) {
	for kind, dec := range more {
		if _, dup := k[kind]; dup {
			panic("sim: event kind " + kind + " registered twice")
		}
		k[kind] = dec
	}
}

// Quiescent reports nil when the engine sits at quiescence — no window
// in flight and every shard clock reading the same instant, as every
// driver leaves it —
// the only state snapshots may be taken in or restored into.
func (pe *ParallelEngine) Quiescent() error {
	if pe.inWindow.Load() {
		return fmt.Errorf("sim: engine is inside a lookahead window")
	}
	now := pe.shards[0].now
	for _, s := range pe.shards[1:] {
		if s.now != now {
			return fmt.Errorf("sim: shard clocks %v and %v disagree", now, s.now)
		}
	}
	return nil
}

// ExportEvents returns every pending event across all shards in
// canonical key order. It requires quiescence, and it is an
// audit: any pending event without a descriptor — or scheduled in the
// anonymous engine domain, whose keys are shard-local — cannot be
// restored and is reported as an error naming the offender.
func (pe *ParallelEngine) ExportEvents() ([]EventRecord, error) {
	if err := pe.Quiescent(); err != nil {
		return nil, err
	}
	var out []EventRecord
	var expErr error
	for _, s := range pe.shards {
		s.q.forEach(func(ev *event) {
			if expErr != nil {
				return
			}
			if ev.key.domain < 0 {
				expErr = fmt.Errorf("sim: pending anonymous-domain event at %v cannot be snapshotted", ev.key.at)
				return
			}
			desc := ev.payload.EventDesc()
			if desc == nil {
				expErr = fmt.Errorf("sim: pending event at %v in domain %d has no descriptor", ev.key.at, ev.key.domain)
				return
			}
			out = append(out, EventRecord{
				At: ev.key.at, Domain: ev.key.domain, Class: ev.key.class,
				K1: ev.key.k1, K2: ev.key.k2, Desc: *desc,
			})
		})
		if expErr != nil {
			return nil, expErr
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a := eventKey{at: out[i].At, domain: out[i].Domain, class: out[i].Class, k1: out[i].K1, k2: out[i].K2}
		b := eventKey{at: out[j].At, domain: out[j].Domain, class: out[j].Class, k1: out[j].K1, k2: out[j].K2}
		return a.less(b)
	})
	return out, nil
}

// ResetEvents discards every pending event on every shard. Restore uses
// it to wipe the rebuilt machine's own scheduled future before
// re-injecting the recorded one.
func (pe *ParallelEngine) ResetEvents() {
	for _, s := range pe.shards {
		s.q.reset()
	}
}

// RestoreClock advances every shard clock to exactly t. Legal only at
// quiescence with no pending event earlier than t.
func (pe *ParallelEngine) RestoreClock(t Time) error {
	if err := pe.Quiescent(); err != nil {
		return err
	}
	if t < pe.shards[0].now {
		return fmt.Errorf("sim: restore clock %v is before current %v", t, pe.shards[0].now)
	}
	for _, s := range pe.shards {
		s.advanceTo(t)
	}
	return nil
}

// AnonSeq reports the highest anonymous (engine-domain) sequence counter
// across shards; RestoreAnonSeq installs it on the control shard, so
// future anonymous keys stay unique after a restore onto any layout.
func (pe *ParallelEngine) AnonSeq() uint64 {
	var max uint64
	for _, s := range pe.shards {
		if s.seq > max {
			max = s.seq
		}
	}
	return max
}

// RestoreAnonSeq overwrites the control shard's anonymous sequence
// counter (see AnonSeq).
func (pe *ParallelEngine) RestoreAnonSeq(v uint64) { pe.shards[0].seq = v }
