package chip

import (
	"math/rand"
	"reflect"
	"testing"

	"spinngo/internal/sim"
)

// eagerDMA is the reference the elided write-back completion — and,
// posting to a core, the folded row fetch (fetch_test.go) — is held to:
// the FIFO controller with every transfer's completion scheduled as an
// event when the transfer is launched.
type eagerDMA struct {
	sdram     *SDRAM
	queue     []DMARequest
	busy      bool
	onDone    func(tag uint32)
	Completed uint64
	MaxQueue  int
}

func (d *eagerDMA) Enqueue(req DMARequest) {
	d.queue = append(d.queue, req)
	if n := d.QueueLen(); n > d.MaxQueue {
		d.MaxQueue = n
	}
	if !d.busy {
		d.next()
	}
}

func (d *eagerDMA) QueueLen() int {
	if d.busy {
		return len(d.queue) + 1
	}
	return len(d.queue)
}

func (d *eagerDMA) next() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	d.busy = true
	req := d.queue[0]
	d.queue = d.queue[1:]
	d.sdram.Transfer(req.Size, sim.Func(func() {
		d.Completed++
		if !req.Write {
			d.onDone(req.Tag)
		}
		d.next()
	}))
}

// dmaRig is one controller on a chip domain of its own engine, logging
// every read completion.
type dmaRig struct {
	eng     *sim.Engine
	dom     *sim.Domain
	enqueue func(DMARequest)
	read    func() dmaCounters
	done    []dmaDone
}

type dmaDone struct {
	At  sim.Time
	Tag uint32
}

type dmaCounters struct {
	Now       sim.Time
	Scheduled uint64
	Pending   int
	QueueLen  int
	Completed uint64
	MaxQueue  int
}

func newDMARig(lazy bool) *dmaRig {
	r := &dmaRig{eng: sim.New(1)}
	r.dom = r.eng.Domain(2)
	onDone := func(tag uint32) { r.done = append(r.done, dmaDone{r.eng.Now(), tag}) }
	if lazy {
		d := NewDMAController(r.dom, NewSDRAM(r.dom))
		d.OnDone = onDone
		r.enqueue = d.Enqueue
		r.read = func() dmaCounters {
			n := d.QueueLen() // settles the completion, as an export would
			return dmaCounters{r.eng.Now(), r.dom.Scheduled(), r.eng.Pending(), n, d.Completed, d.MaxQueue}
		}
	} else {
		d := &eagerDMA{sdram: NewSDRAM(r.dom), onDone: onDone}
		r.enqueue = d.Enqueue
		r.read = func() dmaCounters {
			return dmaCounters{r.eng.Now(), r.dom.Scheduled(), r.eng.Pending(), d.QueueLen(), d.Completed, d.MaxQueue}
		}
	}
	return r
}

// TestElidedWriteBackMatchesEager drives the controller and an eager
// oracle with the same random mix of row fetches and write-backs on a
// 10 ns grid — the grain of the transfer times, so requests keep landing
// exactly on the instant a write-back ends, from events scheduled before
// and after its key was reserved and from outside any event — and
// requires the same read-completion times, counters and
// Domain.Scheduled() at every quiescent instant. A lone write-back must
// also cost no event at all.
func TestElidedWriteBackMatchesEager(t *testing.T) {
	const grain = 10 * sim.Nanosecond
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		lazy, eager := newDMARig(true), newDMARig(false)
		var cursor sim.Time
		for step, steps := 0, 1+rng.Intn(120); step < steps; step++ {
			// Gaps around one transfer's length (150 ns + 1 ns a byte).
			cursor += sim.Time(10+rng.Intn(30)) * grain
			req := DMARequest{Size: 10 * rng.Intn(20), Write: rng.Intn(2) == 0, Tag: uint32(step)}
			quiescent := rng.Intn(4) == 0
			for _, r := range []*dmaRig{lazy, eager} {
				if quiescent {
					r.eng.RunUntil(cursor)
					r.enqueue(req)
				} else {
					r.dom.AtP(cursor, sim.Func(func() { r.enqueue(req) }))
				}
			}
			if l, e := lazy.read(), eager.read(); quiescent && l != e {
				t.Fatalf("trial %d step %d, quiescent at %v:\n lazy  %+v\n eager %+v", trial, step, cursor, l, e)
			}
		}
		lazy.eng.RunUntil(cursor + 10*sim.Microsecond)
		eager.eng.RunUntil(cursor + 10*sim.Microsecond)
		if l, e := lazy.read(), eager.read(); l != e || !reflect.DeepEqual(lazy.done, eager.done) {
			t.Fatalf("trial %d drained:\n lazy  %+v\n eager %+v\n lazy  reads %v\n eager reads %v", trial, l, e, lazy.done, eager.done)
		}
	}

	// The tie itself shows only in MaxQueue — the SDRAM starts the next
	// transfer at the same instant either way: a request landing exactly
	// when a lone 50-byte write-back ends (200 ns) finds the controller
	// idle if its event was scheduled after the write-back's key was
	// reserved, and still busy if before.
	for _, before := range []bool{false, true} {
		for _, r := range []*dmaRig{newDMARig(true), newDMARig(false)} {
			arrive := func() { r.dom.AtP(200*sim.Nanosecond, sim.Func(func() { r.enqueue(DMARequest{Size: 50}) })) }
			if before {
				arrive()
			}
			r.enqueue(DMARequest{Size: 50, Write: true})
			if !before {
				arrive()
			}
			r.eng.RunUntil(sim.Microsecond)
			want := dmaCounters{Now: sim.Microsecond, Scheduled: 3, Completed: 2, MaxQueue: 1}
			if before {
				want.MaxQueue = 2
			}
			if got := r.read(); got != want || len(r.done) != 1 || r.done[0].At != 400*sim.Nanosecond {
				t.Errorf("request scheduled before the write-back: %v: %+v, reads %v; want %+v and one read done at 400ns", before, got, r.done, want)
			}
		}
	}

	r := newDMARig(true)
	r.enqueue(DMARequest{Size: 64, Write: true})
	if n := r.eng.Pending(); n != 0 {
		t.Errorf("a lone write-back left %d events pending, want none", n)
	}
	r.eng.RunUntil(sim.Microsecond)
	if c := r.read(); c.Completed != 1 || c.QueueLen != 0 || c.Scheduled != 1 || r.eng.Processed() != 0 {
		t.Errorf("after the write-back's instant: %+v with %d events run; want 1 completed, idle, 1 key drawn, 0 events", c, r.eng.Processed())
	}
}
