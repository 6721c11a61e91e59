//go:build !race

package sim

import "testing"

// These tests pin the zero-allocation contract of the flattened event
// path: a steady-state schedule/dispatch cycle — slab-recycled event
// records, payload re-arming instead of fresh closures, reused window
// scratch — must not allocate. They are build-gated out of -race runs
// (the race runtime instruments allocations) and gated in CI.

// rearmPayload schedules itself left more times, the shape of every
// steady-state hot path (kernel dispatch, timers, router drains).
type rearmPayload struct {
	d    *Domain
	left int
}

func (p *rearmPayload) Run() {
	if p.left > 0 {
		p.left--
		p.d.AfterP(10, p)
	}
}

func (p *rearmPayload) EventDesc() *Desc { return &Desc{Kind: "test.rearm"} }

func TestDispatchZeroAlloc(t *testing.T) {
	eng := New(1)
	d := eng.Domain(0)
	p := &rearmPayload{d: d}
	cycle := func() {
		p.left = 256
		d.AfterP(1, p)
		eng.Run()
	}
	cycle() // warm the slab, free list and bucket capacities
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("steady-state event dispatch allocates %.1f times per 257 events, want 0", allocs)
	}
}

// TestFuncScheduleZeroAlloc pins that the Func adapter costs nothing per
// event: a func value is pointer-shaped, so boxing a pre-built one into
// the Payload interface does not allocate.
func TestFuncScheduleZeroAlloc(t *testing.T) {
	eng := New(1)
	d := eng.Domain(0)
	ran := 0
	f := Func(func() { ran++ })
	cycle := func() {
		for i := 0; i < 16; i++ { // below the queue's first resize
			d.AfterP(Time(i), f)
		}
		eng.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("scheduling a pre-built Func allocates %.1f times per 16 events, want 0", allocs)
	}
}

func TestWindowDispatchZeroAlloc(t *testing.T) {
	t.Run("inline", func(t *testing.T) { windowDispatchZeroAlloc(t, 1) })
	// Shared with a resident helper: the hand-off itself — job list,
	// ticket, countdown, park and wake — allocates nothing either.
	// (AllocsPerRun drops to one processor, so this is also a helper
	// and a coordinator spinning against each other on a single P.)
	t.Run("pooled", func(t *testing.T) { windowDispatchZeroAlloc(t, 2) })
}

func windowDispatchZeroAlloc(t *testing.T, workers int) {
	pe := NewParallel(1, 2, workers)
	defer pe.Close()
	pe.SetLookahead(100)
	d0 := pe.Shard(0).Domain(0)
	d1 := pe.Shard(1).Domain(1)
	p0 := &rearmPayload{d: d0}
	p1 := &rearmPayload{d: d1}
	var deadline Time
	cycle := func() {
		p0.left, p1.left = 128, 128
		d0.AfterP(1, p0)
		d1.AfterP(1, p1)
		deadline += 10 * 128 * 4
		pe.RunUntil(deadline)
	}
	cycle() // warm shard queues and window scratch
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("steady-state window execution allocates %.1f times per cycle, want 0", allocs)
	}
}

// mailPayload ping-pongs between two shards through the per-source mail
// arenas: each delivery posts the payload back across the cut with the
// pre-allocated PostP variant, so the steady state exercises arena
// append, barrier drain and scrub without constructing anything.
type mailPayload struct {
	pe       *ParallelEngine
	src, dst int
	dstDom   *Domain
	peer     *mailPayload
	seq      uint64
	left     int
}

func (p *mailPayload) Run() {
	if p.left > 0 {
		p.left--
		p.peer.left = p.left
		p.seq++
		at := p.pe.Shard(p.src).Now() + 100
		p.pe.PostP(p.src, p.dst, p.dstDom, at, int32(p.src), p.seq, p.peer)
	}
}

func (p *mailPayload) EventDesc() *Desc { return &Desc{Kind: "test.mail"} }

func TestArenaMailZeroAlloc(t *testing.T) {
	pe := NewParallel(1, 2, 1)
	pe.SetLookahead(100)
	d0 := pe.Shard(0).Domain(0)
	a := &mailPayload{pe: pe, src: 0, dst: 1, dstDom: pe.Shard(1).Domain(1)}
	b := &mailPayload{pe: pe, src: 1, dst: 0, dstDom: d0}
	a.peer, b.peer = b, a
	var deadline Time
	cycle := func() {
		a.left = 128
		d0.AfterP(1, a)
		deadline += 100 * 128 * 2
		pe.RunUntil(deadline)
	}
	cycle() // warm the arenas to steady-state capacity
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("steady-state arena mail traffic allocates %.1f times per cycle, want 0", allocs)
	}
}

func TestBatchedHandoffZeroAlloc(t *testing.T) {
	// One busy shard next to an empty one: every RunUntil resolves to
	// batched solo runs (the horizon proof always holds), so this pins
	// the runSoloBatch path itself allocation-free.
	pe := NewParallel(1, 2, 1)
	pe.SetLookahead(100)
	d0 := pe.Shard(0).Domain(0)
	p0 := &rearmPayload{d: d0}
	var deadline Time
	cycle := func() {
		p0.left = 256
		d0.AfterP(1, p0)
		deadline += 10 * 256 * 2
		pe.RunUntil(deadline)
	}
	cycle()
	if pe.BatchRuns() == 0 {
		t.Fatal("solo workload never took the batched hand-off path")
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("steady-state batched hand-off allocates %.1f times per cycle, want 0", allocs)
	}
}
