package chip

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spinngo/internal/kernel"
	"spinngo/internal/packet"
	"spinngo/internal/sim"
)

// The row-fetch fold is held to the eager pair: eagerDMA, which schedules
// every transfer's completion as an event, posting to a core with no
// fetcher attached — the core whose own elided completion
// internal/kernel's TestElidedCompletionMatchesEager holds to its eager
// oracle. The lazy side is the controller Attached to its core, as the
// machine wires them.

// fetchTick is the grain of everything in the schedule: one instruction
// at 200 MIPS, and one byte of transfer at 1 GB/s is a fifth of it, so
// transfer sizes on a 5-byte grid land fetches on handler boundaries.
const fetchTick = 5 * sim.Nanosecond

var fetchConfig = kernel.Config{MIPS: 200, TimerPeriod: 2000 * fetchTick, DispatchOverhead: 100}

// A packet handler runs 160 ticks (800 ns), 360 if key bit 3 is set,
// and for an odd key fetches a row whose transfer (150 ns + 1 ns a byte)
// lands a tick before, at, a tick after, or long after the instant the
// short handler ends, by key bits 1-2.
const packetInstr = 60

func packetCost(key uint32) uint64 { return packetInstr + 200*uint64(key>>3&1) }

func fetchSize(key uint32) int {
	at := int(fetchConfig.DispatchOverhead+packetInstr)*5 - 150
	return [4]int{at - 5, at, at + 5, 4 * at}[key>>1&3]
}

// A row handler runs 120 to 420 ticks by tag bits 5-6; with tag bit 4
// set it writes the row back, a 1000-byte transfer (230 ticks) that
// outlasts the shortest of them, so the next fetch may queue behind it.
func rowCost(tag uint32) uint64 { return 20 + 100*uint64(tag>>5&3) }

const writeBackSize = 1000

// fetchCounters is everything the two sides must agree on at every
// quiescent instant, read the way an export reads it: core, then
// controller, synced first.
type fetchCounters struct {
	Now          sim.Time
	Scheduled    uint64
	Pending      int
	Backlog      int
	BusyTime     sim.Time
	SleepTime    sim.Time
	Instructions uint64
	EventCounts  [3]uint64
	Overruns     uint64
	MaxBacklog   int
	QueueLen     int
	Completed    uint64
	MaxQueue     int
}

// fetchStep is one entry of the executed trace: a stimulus event with
// its canonical key, or a handler start with its packet key, row tag or
// tick.
type fetchStep struct {
	At   sim.Time
	What string
	Key  uint64
}

// fetchRig is one core and its DMA controller on a chip domain of their
// own engine.
type fetchRig struct {
	eng     *sim.Engine
	dom     *sim.Domain
	core    *kernel.Core
	enqueue func(DMARequest)
	dma     func() (queueLen int, completed uint64, maxQueue int)
	trace   []fetchStep
	srcSeq  uint64
}

func newFetchRig(lazy bool) *fetchRig {
	r := &fetchRig{eng: sim.New(1)}
	r.dom = r.eng.Domain(4)
	r.core = kernel.NewCore(r.dom, fetchConfig)
	sdram := NewSDRAM(r.dom)
	if lazy {
		d := NewDMAController(r.dom, sdram)
		d.Attach(r.core)
		r.enqueue = d.Enqueue
		r.dma = func() (int, uint64, int) { n := d.QueueLen(); return n, d.Completed, d.MaxQueue }
	} else {
		d := &eagerDMA{sdram: sdram, onDone: r.core.PostDMADone}
		r.enqueue = d.Enqueue
		r.dma = func() (int, uint64, int) { return d.QueueLen(), d.Completed, d.MaxQueue }
	}
	r.core.On(kernel.EvPacket, func(ev kernel.Event) uint64 {
		key := ev.Pkt.Key
		r.log("packet", uint64(key))
		if key&1 != 0 {
			r.enqueue(DMARequest{Size: fetchSize(key), Tag: key})
		}
		return packetCost(key)
	})
	r.core.On(kernel.EvDMADone, func(ev kernel.Event) uint64 {
		r.log("row", uint64(ev.Tag))
		if ev.Tag&16 != 0 {
			r.enqueue(DMARequest{Size: writeBackSize, Write: true, Tag: ev.Tag})
		}
		return rowCost(ev.Tag)
	})
	r.core.On(kernel.EvTimer, func(ev kernel.Event) uint64 {
		r.log("timer", ev.Tick)
		return 40
	})
	r.core.Start()
	return r
}

func (r *fetchRig) log(what string, key uint64) {
	r.trace = append(r.trace, fetchStep{r.eng.Now(), what, key})
}

func (r *fetchRig) read() fetchCounters {
	c := r.core
	c.Sync()
	n, completed, maxQueue := r.dma()
	return fetchCounters{r.eng.Now(), r.dom.Scheduled(), r.eng.Pending(), c.Backlog(), c.BusyTime, c.SleepTime,
		c.Instructions, c.EventCounts, c.Overruns, c.MaxBacklog, n, completed, maxQueue}
}

// apply plays one three-byte step at or after cursor and returns the new
// cursor: a packet delivered by the fabric (class 1) or by a local event
// (class 0) at the cursor, or — from outside any event, at a quiescent
// instant that may fall mid-fetch — a packet posted after the read, or
// the read alone.
func (r *fetchRig) apply(step [3]byte, cursor sim.Time) (sim.Time, *fetchCounters) {
	cursor += sim.Time(step[1]) * fetchTick
	pkt := packet.NewMC(uint32(step[2]))
	post := func() { r.core.Post(kernel.Event{Type: kernel.EvPacket, Pkt: pkt}) }
	switch step[0] % 4 {
	case 0:
		r.srcSeq++
		seq := r.srcSeq
		r.dom.DeliverAtP(cursor, 9, seq, sim.Func(func() { r.log("class 1", seq); post() }))
	case 1:
		var seq uint64
		r.dom.AtP(cursor, sim.Func(func() { r.log("class 0", seq); post() }))
		seq = r.dom.Scheduled()
	default:
		r.eng.RunUntil(cursor)
		c := r.read()
		if step[0]%4 == 2 {
			post()
		}
		return cursor, &c
	}
	return cursor, nil
}

// runFetchSchedule drives the lazy and the eager side through the same
// schedule, stops both cores stop ticks after its last step — mid-fetch
// as often as not — and drains; it fails on the first difference in
// counters or in the executed trace.
func runFetchSchedule(t testing.TB, schedule []byte, stop byte) {
	t.Helper()
	lazy, eager := newFetchRig(true), newFetchRig(false)
	compare := func(what string, l, e fetchCounters) {
		t.Helper()
		if l != e {
			t.Fatalf("%s:\n lazy  %+v\n eager %+v", what, l, e)
		}
		if !reflect.DeepEqual(lazy.trace, eager.trace) {
			for i := range min(len(lazy.trace), len(eager.trace)) {
				if lazy.trace[i] != eager.trace[i] {
					t.Fatalf("%s: trace step %d: lazy %+v, eager %+v", what, i, lazy.trace[i], eager.trace[i])
				}
			}
			t.Fatalf("%s: lazy ran %d steps, eager %d", what, len(lazy.trace), len(eager.trace))
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
	cursor += sim.Time(stop) * fetchTick
	for _, r := range []*fetchRig{lazy, eager} {
		r.eng.RunUntil(cursor)
		r.core.Stop()
	}
	compare(fmt.Sprintf("stopped at %v", cursor), lazy.read(), eager.read())
	end := cursor + 4*fetchConfig.TimerPeriod
	lazy.eng.RunUntil(end)
	eager.eng.RunUntil(end)
	compare("drained", lazy.read(), eager.read())
}

// fetchSchedules are the hand-made cases, each a schedule and a stop
// offset. The first packet of each arrives at tick 40 on an idle core
// and fetches a row; a short handler ends at tick 200.
var fetchSchedules = map[string]struct {
	schedule []byte
	stop     byte
}{
	// The fetch lands a tick before, at and a tick after the handler
	// ends, and long after it; each is read at tick 199, 200 and 201.
	"lands before": {[]byte{0, 40, 1, 3, 159, 0, 3, 1, 0, 3, 1, 0}, 50},
	"lands at":     {[]byte{0, 40, 3, 3, 159, 0, 3, 1, 0, 3, 1, 0}, 50},
	"lands after":  {[]byte{0, 40, 5, 3, 159, 0, 3, 1, 0, 3, 1, 0}, 50},
	"lands late":   {[]byte{0, 40, 7, 3, 159, 0, 3, 1, 0, 3, 1, 0}, 50},
	// A second and third packet arrive mid-handler, by fabric delivery
	// and by local event: before the fetch lands (tick 100), on its
	// instant (tick 199, where the local event's key is the lower and the
	// delivery sorts after it), and after it (tick 200, the handler
	// lengthened to end at 400).
	"packets before landing": {[]byte{0, 40, 1, 0, 60, 2, 1, 0, 0}, 200},
	"packets on landing":     {[]byte{0, 40, 1, 1, 159, 2, 0, 0, 0}, 200},
	"packets after landing":  {[]byte{0, 40, 9, 0, 160, 2, 1, 0, 0}, 255},
	// The first row writes back (200 to 430); the next packet, queued
	// behind the row handler (200 to 320), fetches while the write-back
	// is in flight, so its fetch queues behind it and cannot fold.
	"fetch behind write-back": {[]byte{0, 40, 17, 0, 210, 1, 3, 80, 0}, 255},
	// Stop and Sync mid-fetch, at tick 90 with the fold pending.
	"stop mid-fetch": {[]byte{0, 40, 1}, 50},
	"sync mid-fetch": {[]byte{0, 40, 1, 3, 50, 0}, 150},
}

// TestRowFetchMatchesEager is the differential test behind the claim
// that folding a row fetch into its core's dispatch changes nothing but
// the event count: the hand-made cases, then random schedules on the
// tick grid, where fetches keep landing exactly on handler boundaries,
// packets keep landing on fetches, write-backs keep fetches waiting and
// the reads from outside keep falling mid-fetch. Hand mutations this
// must catch (each was tried): Fold folding a fetch that lands after the
// handler ends; the fold's completion armed under a fresh key instead of
// the reserved one; dispatch, or Core.Sync, not settling the fold; the
// controller's Sync leaving a fetch still ahead unarmed; Enqueue not
// settling a lone completion before it queues.
func TestRowFetchMatchesEager(t *testing.T) {
	for name, tc := range fetchSchedules {
		t.Run(name, func(t *testing.T) { runFetchSchedule(t, tc.schedule, tc.stop) })
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		schedule := make([]byte, 3*(1+rng.Intn(150)))
		rng.Read(schedule)
		for i := 1; i < len(schedule); i += 3 {
			// Gaps around a handler's length, so the core is busy about
			// half the time and landings on its boundaries are common.
			schedule[i] = byte(60 + rng.Intn(160))
		}
		runFetchSchedule(t, schedule, byte(rng.Intn(256)))
	}
}

// FuzzRowFetch lets the fuzzer look for a schedule on which the folded
// fetch and the eager pair part ways (seeds in testdata/fuzz).
func FuzzRowFetch(f *testing.F) {
	for _, tc := range fetchSchedules {
		f.Add(tc.schedule, tc.stop)
	}
	f.Fuzz(func(t *testing.T, schedule []byte, stop byte) {
		if len(schedule) > 3*4096 {
			t.Skip("longer than any seed needs")
		}
		runFetchSchedule(t, schedule, stop)
	})
}
