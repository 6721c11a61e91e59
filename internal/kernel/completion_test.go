package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/sim"
)

// eagerCore is the reference the elided completion is held to: the
// Fig-7 kernel with every handler's completion scheduled as an event the
// moment the handler is dispatched, and nothing else — the plain reading
// of the model, kept here as the test oracle the way the sim package
// keeps its binary heap.
type eagerCore struct {
	eng      sim.Scheduler
	cfg      Config
	handlers [numEventTypes]Handler
	queues   [numEventTypes]evQueue
	running  bool
	stopped  bool

	idleSince sim.Time

	BusyTime     sim.Time
	SleepTime    sim.Time
	Instructions uint64
	EventCounts  [numEventTypes]uint64
	Overruns     uint64
	MaxBacklog   int
}

func (c *eagerCore) On(t EventType, h Handler) { c.handlers[t] = h }

func (c *eagerCore) Start() {
	c.idleSince = c.eng.Now()
	c.armTimer(0)
}

func (c *eagerCore) armTimer(tick uint64) {
	c.eng.AfterP(c.cfg.TimerPeriod, sim.Func(func() {
		if c.stopped {
			return
		}
		if c.queues[EvTimer].len() > 0 {
			c.Overruns++
		}
		c.Post(Event{Type: EvTimer, Tick: tick})
		c.armTimer(tick + 1)
	}))
}

func (c *eagerCore) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	if !c.running {
		c.SleepTime += c.eng.Now() - c.idleSince
		c.idleSince = c.eng.Now()
	}
}

func (c *eagerCore) backlog() int {
	return c.queues[EvPacket].len() + c.queues[EvDMADone].len() + c.queues[EvTimer].len()
}

func (c *eagerCore) Post(ev Event) {
	if c.stopped {
		return
	}
	c.queues[ev.Type].push(ev)
	if b := c.backlog(); b > c.MaxBacklog {
		c.MaxBacklog = b
	}
	if !c.running {
		c.SleepTime += c.eng.Now() - c.idleSince
		c.dispatch()
	}
}

func (c *eagerCore) dispatch() {
	for t := EventType(0); t < numEventTypes; t++ {
		if c.queues[t].len() == 0 {
			continue
		}
		ev := c.queues[t].pop()
		c.running = true
		c.EventCounts[t]++
		instr := c.cfg.DispatchOverhead
		if h := c.handlers[t]; h != nil {
			instr += h(ev)
		}
		c.Instructions += instr
		dur := sim.Time(float64(instr) / c.cfg.MIPS * 1e3)
		c.BusyTime += dur
		c.eng.AfterP(dur, sim.Func(c.dispatch))
		return
	}
	c.running = false
	c.idleSince = c.eng.Now()
}

// counters is everything the two cores must agree on at every
// quiescent instant.
type counters struct {
	Now          sim.Time
	Scheduled    uint64
	Pending      int
	Running      bool
	IdleSince    sim.Time
	Backlog      int
	BusyTime     sim.Time
	SleepTime    sim.Time
	Instructions uint64
	EventCounts  [numEventTypes]uint64
	Overruns     uint64
	MaxBacklog   int
}

// start is one handler invocation.
type start struct {
	At   sim.Time
	Type EventType
	Arg  uint64 // packet key, DMA tag or tick
}

// kernelUnderTest is what the differential harness drives: the real
// Core on one side, the eager oracle on the other.
type kernelUnderTest interface {
	On(EventType, Handler)
	Start()
	Stop()
	Post(Event)
}

// rig is one core on one chip domain of its own engine, with the
// handlers the schedule expects and a log of every handler start.
type rig struct {
	eng    *sim.Engine
	dom    *sim.Domain
	core   kernelUnderTest
	read   func() counters
	starts []start
	srcSeq uint64
}

// tick is the schedule's time grain: the kernel's own (one instruction
// at 200 MIPS), so that stimuli and completions land on the same
// nanosecond all the time rather than once in a million events.
const tick = 5 * sim.Nanosecond

var rigConfig = Config{MIPS: 200, TimerPeriod: 2000 * tick, DispatchOverhead: 100}

// handlerTime is the busy time of a handler that returns instr.
func handlerTime(instr uint64) sim.Time { return sim.Time(rigConfig.DispatchOverhead+instr) * tick }

func newRig(lazy bool) *rig {
	r := &rig{eng: sim.New(1)}
	r.dom = r.eng.Domain(3)
	if lazy {
		c := NewCore(r.dom, rigConfig)
		r.core = c
		r.read = func() counters {
			// What an export would do first. Skipping it must fail the
			// comparison: a stale running flag, a missing event.
			c.Sync()
			return counters{r.eng.Now(), r.dom.Scheduled(), r.eng.Pending(), c.running, c.idleSince, c.backlog(),
				c.BusyTime, c.SleepTime, c.Instructions, c.EventCounts, c.Overruns, c.MaxBacklog}
		}
	} else {
		c := &eagerCore{eng: r.dom, cfg: rigConfig}
		r.core = c
		r.read = func() counters {
			return counters{r.eng.Now(), r.dom.Scheduled(), r.eng.Pending(), c.running, c.idleSince, c.backlog(),
				c.BusyTime, c.SleepTime, c.Instructions, c.EventCounts, c.Overruns, c.MaxBacklog}
		}
	}
	// A packet costs 60 or 80 instructions. Every other key schedules
	// the row's DMA completion from inside the handler — before the
	// kernel reserves this handler's own completion, so under a lower
	// sequence number — to land a tick before, exactly at, or a tick
	// after the instant the handler ends.
	r.core.On(EvPacket, func(ev Event) uint64 {
		key := ev.Pkt.Key
		r.starts = append(r.starts, start{r.eng.Now(), EvPacket, uint64(key)})
		instr := uint64(60 + 20*(key&1))
		if key&2 != 0 {
			r.dom.AfterP(handlerTime(instr)+sim.Time(int(key>>2)%3-1)*tick, sim.Func(func() {
				r.core.Post(Event{Type: EvDMADone, Tag: key})
			}))
		}
		return instr
	})
	r.core.On(EvDMADone, func(ev Event) uint64 {
		r.starts = append(r.starts, start{r.eng.Now(), EvDMADone, uint64(ev.Tag)})
		return 20 + 100*uint64(ev.Tag%4)
	})
	// Every seventh tick overruns the timer period.
	r.core.On(EvTimer, func(ev Event) uint64 {
		r.starts = append(r.starts, start{r.eng.Now(), EvTimer, ev.Tick})
		if ev.Tick%7 == 6 {
			return 2500
		}
		return 40
	})
	r.core.Start()
	return r
}

// apply plays one three-byte step of a schedule at or after cursor and
// returns the new cursor. Steps 0-2 schedule stimuli; step 3 runs to the
// cursor — a quiescent instant — posts from outside any event, and
// reports the counters that leaves for comparison.
func (r *rig) apply(step [3]byte, cursor sim.Time) (sim.Time, *counters) {
	cursor += sim.Time(step[1]) * tick
	arg := uint32(step[2])
	switch step[0] % 4 {
	case 0: // a fabric delivery (class 1) brings a packet
		r.srcSeq++
		r.dom.DeliverAtP(cursor, 9, r.srcSeq, sim.Func(func() { r.core.Post(Event{Type: EvPacket, Pkt: packet.NewMC(arg)}) }))
	case 1: // a local event (class 0) brings a DMA completion
		r.dom.AtP(cursor, sim.Func(func() { r.core.Post(Event{Type: EvDMADone, Tag: arg}) }))
	case 2:
		// A local event brings a packet and arms a second local event
		// around the instant the first one's handler would end if it
		// started at once: the same instant under a higher sequence
		// number than the completion's, or a tick to either side.
		r.dom.AtP(cursor, sim.Func(func() {
			r.core.Post(Event{Type: EvPacket, Pkt: packet.NewMC(arg &^ 2)})
			r.dom.AfterP(handlerTime(uint64(60+20*(arg&1)))+sim.Time(int(arg>>2)%3-1)*tick, sim.Func(func() {
				r.core.Post(Event{Type: EvDMADone, Tag: arg})
			}))
		}))
	case 3:
		r.eng.RunUntil(cursor)
		r.core.Post(Event{Type: EventType(arg % uint32(numEventTypes)), Pkt: packet.NewMC(arg), Tag: arg, Tick: uint64(arg)})
		after := r.read()
		return cursor, &after
	}
	return cursor, nil
}

// runSchedule drives a lazy and an eager core through the same schedule
// and fails on the first difference in handler starts or counters.
func runSchedule(t testing.TB, schedule []byte) {
	t.Helper()
	lazy, eager := newRig(true), newRig(false)
	compare := func(what string, l, e counters) {
		t.Helper()
		if l != e {
			t.Fatalf("%s:\n lazy  %+v\n eager %+v", what, l, e)
		}
		if !reflect.DeepEqual(lazy.starts, eager.starts) {
			n := min(len(lazy.starts), len(eager.starts))
			for i := 0; i < n; i++ {
				if lazy.starts[i] != eager.starts[i] {
					t.Fatalf("%s: handler start %d: lazy %+v, eager %+v", what, i, lazy.starts[i], eager.starts[i])
				}
			}
			t.Fatalf("%s: lazy ran %d handlers, eager %d", what, len(lazy.starts), len(eager.starts))
		}
	}
	var cursor sim.Time
	for i := 0; i+3 <= len(schedule); i += 3 {
		step := [3]byte(schedule[i : i+3])
		lc, l := lazy.apply(step, cursor)
		_, e := eager.apply(step, cursor)
		cursor = lc
		if l != nil {
			compare(fmt.Sprintf("step %d, quiescent at %v", i/3, cursor), *l, *e)
		}
	}
	end := cursor + 4*rigConfig.TimerPeriod
	lazy.eng.RunUntil(end)
	eager.eng.RunUntil(end)
	compare("drained", lazy.read(), eager.read())
	lazy.core.Stop()
	eager.core.Stop()
	compare("stopped", lazy.read(), eager.read())
}

// tieSchedules are the four ways a Post can land exactly on the instant
// a handler ends. The busy handler is always the one a class-1 packet
// starts at tick 40 on an idle core (60 instructions: 160 ticks, done at
// tick 200).
var tieSchedules = map[string][]byte{
	// (i) The handler itself schedules the follow-up, under a lower
	// sequence number than its completion: key 6 = DMA at exactly +160.
	"class 0 with a lower sequence": {0, 40, 6},
	// (ii) A class-0 stimulus starts the handler and then schedules the
	// follow-up at exactly +160, under a higher sequence number.
	"class 0 with a higher sequence": {2, 40, 4},
	// (iii) A second class-1 delivery at exactly tick 200.
	"class 1 delivery": {0, 40, 0, 0, 160, 0},
	// (iv) The chunk ends at exactly tick 200 and the host posts there;
	// then once more with the completion one tick ahead of the boundary
	// and one tick behind it.
	"quiescence": {0, 40, 0, 3, 160, 1, 0, 40, 0, 3, 159, 0, 0, 41, 0, 3, 161, 2},
}

// TestElidedCompletionMatchesEager is the differential test behind the
// claim that eliding a completion changes nothing but the event count:
// the same seeded schedule of packets, DMA completions and timer ticks,
// on a grid coarse enough that Posts keep landing exactly on the instant
// a handler ends — from a class-0 event with a lower and with a higher
// sequence number than the reserved one, from a class-1 delivery, and
// from outside any event between RunUntil calls — must give the same
// handler start times, counters and Domain.Scheduled() as the eager
// oracle. Hand mutations this must catch (each was tried): the tie test
// of sim.Engine.passed inverted; the completion's sequence number drawn
// when it is armed instead of when the handler is dispatched; Sync made
// a no-op before the counters (an export) are read.
func TestElidedCompletionMatchesEager(t *testing.T) {
	for name, schedule := range tieSchedules {
		t.Run(name, func(t *testing.T) { runSchedule(t, schedule) })
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		schedule := make([]byte, 3*(1+rng.Intn(200)))
		rng.Read(schedule)
		for i := 1; i < len(schedule); i += 3 {
			// Gaps around a handler's length, so the core is busy about
			// half the time and ties are common.
			schedule[i] = byte(100 + rng.Intn(120))
		}
		runSchedule(t, schedule)
	}
}

// FuzzCoreCompletion lets the fuzzer look for a schedule on which the
// lazy core and the eager oracle part ways.
func FuzzCoreCompletion(f *testing.F) {
	for _, schedule := range tieSchedules {
		f.Add(schedule)
	}
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 3*4096 {
			t.Skip("longer than any seed needs")
		}
		runSchedule(t, schedule)
	})
}
