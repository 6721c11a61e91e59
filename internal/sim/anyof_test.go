package sim

import (
	"slices"
	"testing"
)

// runUntilAnyOf's contract: halt at the exact event that flips the
// condition, leave every clock at that instant and everything later
// pending, for any shard count — or run to exactly the deadline when
// the condition never fires.

func TestRunUntilAnyOfHaltsAtExactEvent(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		pe := NewParallel(1, shards, shards)
		defer pe.Close()
		pe.SetLookahead(100)
		doms := make([]*Domain, shards)
		for i := 0; i < shards; i++ {
			doms[i] = pe.Shard(i).Domain(i)
		}
		watch := doms[0]
		fired := false
		var haltAt Time
		watch.AtP(1000, Func(func() { fired = true; haltAt = watch.Now() }))
		// Later events everywhere — on the watch shard at the same
		// instant (later key) and on every shard beyond it. None may run.
		lateSame, lateBeyond := false, false
		watch.AtP(1000, Func(func() { lateSame = true }))
		for _, d := range doms {
			d := d
			d.AtP(5000, Func(func() { lateBeyond = true }))
		}
		halted := pe.RunUntilAnyOf(Forever, watch, func() bool { return fired })
		if !halted || !fired {
			t.Fatalf("shards=%d: cond did not halt the run", shards)
		}
		if lateBeyond {
			t.Errorf("shards=%d: event beyond the halting instant executed", shards)
		}
		if lateSame {
			t.Errorf("shards=%d: same-instant later-key event on the watch shard executed", shards)
		}
		if pe.Now() != haltAt || pe.Now() != 1000 {
			t.Errorf("shards=%d: Now()=%v after halt, want exactly 1000", shards, pe.Now())
		}
		for i := 0; i < shards; i++ {
			if pe.Shard(i).Now() != 1000 {
				t.Errorf("shards=%d: shard %d clock %v, want 1000 (synchronised)", shards, i, pe.Shard(i).Now())
			}
		}
		if keys := pendingKeys(pe); len(keys) != shards+1 || keys[0].at != 1000 {
			t.Errorf("shards=%d: pending events lost (%d pending)", shards, len(pendingKeys(pe)))
		}
	}
}

func TestRunUntilAnyOfDeadline(t *testing.T) {
	for _, shards := range []int{1, 3} {
		pe := NewParallel(1, shards, shards)
		defer pe.Close()
		pe.SetLookahead(50)
		watch := pe.Shard(0).Domain(0)
		ran := 0
		for i := 0; i < 10; i++ {
			watch.AtP(Time(100*(i+1)), Func(func() { ran++ }))
		}
		halted := pe.RunUntilAnyOf(550, watch, func() bool { return false })
		if halted {
			t.Fatalf("shards=%d: halted without a condition", shards)
		}
		if ran != 5 {
			t.Errorf("shards=%d: %d events ran by the deadline, want 5", shards, ran)
		}
		if pe.Now() != 550 {
			t.Errorf("shards=%d: clocks at %v, want exactly the 550 deadline", shards, pe.Now())
		}
	}
}

// TestRunUntilAnyOfMatchesSequentialStepping pins the equivalence the
// host link depends on: halting on a condition under parallel windows
// leaves the machine in the state global-order stepping (stepGlobal)
// until the condition reaches, including cross-shard traffic in flight.
func TestRunUntilAnyOfMatchesSequentialStepping(t *testing.T) {
	build := func(shards int) (*ParallelEngine, []*Domain, *int) {
		pe := NewParallel(9, shards, shards)
		pe.SetLookahead(100)
		doms := make([]*Domain, 4)
		for i := range doms {
			doms[i] = pe.Shard(i % shards).Domain(i)
		}
		// A relay chain bouncing between domains, counting hops. Posts
		// route through the engine like fabric traffic: mailboxed inside
		// a window, delivered directly when stepped outside one.
		hops := new(int)
		var bounce func(i int)
		bounce = func(i int) {
			*hops++
			if *hops >= 9 {
				return
			}
			j := (i + 1) % len(doms)
			src := doms[i]
			pe.PostP(i%shards, j%shards, doms[j], src.Now()+100,
				int32(src.ID()), uint64(*hops), Func(func() { bounce(j) }))
		}
		doms[0].AtP(10, Func(func() { bounce(0) }))
		return pe, doms, hops
	}

	// Reference: global-order stepping until the fifth hop.
	ref, _, refHops := build(1)
	defer ref.Close()
	for *refHops < 5 {
		if !stepGlobal(ref) {
			t.Fatal("reference drained early")
		}
	}
	ref.syncClocks()
	refNow, refPending := ref.Now(), ref.Pending()

	for _, shards := range []int{1, 2, 4} {
		pe, _, hops := build(shards)
		halted := pe.RunUntilAnyOf(Forever, pe.Shard(0).q.doms[0], func() bool { return *hops >= 5 })
		if !halted || *hops != 5 {
			t.Fatalf("shards=%d: halted=%v hops=%d, want halt at hop 5", shards, halted, *hops)
		}
		if pe.Now() != refNow {
			t.Errorf("shards=%d: Now()=%v, want %v (global-order reference)", shards, pe.Now(), refNow)
		}
		if pe.Pending() != refPending {
			t.Errorf("shards=%d: %d pending, want %d", shards, pe.Pending(), refPending)
		}
		pe.Close()
	}
}

// pendingKeys lists the canonical keys of every pending event of pe, in
// canonical order: the pending set, independent of the shard layout.
func pendingKeys(pe *ParallelEngine) []eventKey {
	var keys []eventKey
	for _, s := range pe.shards {
		s.q.forEach(func(ev *event) { keys = append(keys, ev.key) })
	}
	slices.SortFunc(keys, func(a, b eventKey) int {
		if a.less(b) {
			return -1
		}
		if b.less(a) {
			return 1
		}
		return 0
	})
	return keys
}

// TestRunUntilAnyOfHaltsInsideSoloBatch pins the halt on the batch path:
// the watch shard runs a dense chain alone for many windows while every
// peer waits far more than a lookahead ahead, so the windows batch under
// one hand-off, and the condition flips mid-batch. The halt instant,
// every shard's clock and the pending set must be what global-order
// stepping (stepGlobal) reaches, for every shard count.
func TestRunUntilAnyOfHaltsInsideSoloBatch(t *testing.T) {
	const period, flip = 10, 537 // the 537th link runs at 5360, mid-window
	build := func(shards int) (*ParallelEngine, *Domain, *int) {
		pe := NewParallel(3, shards, shards)
		pe.SetLookahead(100)
		doms := make([]*Domain, 4)
		for i := range doms {
			doms[i] = pe.Shard(i % shards).Domain(i)
		}
		n := new(int)
		var link func()
		link = func() {
			*n++
			doms[0].AfterP(period, Func(link))
		}
		doms[0].AtP(0, Func(link))
		for i, d := range doms[1:] {
			d.AtP(Time(50000+i), Func(func() {}))
		}
		return pe, doms[0], n
	}
	for _, shards := range []int{1, 2, 4} {
		ref, _, refN := build(shards)
		for *refN < flip {
			stepGlobal(ref)
		}
		ref.syncClocks()
		ref.Close()

		pe, watch, n := build(shards)
		if !pe.RunUntilAnyOf(Forever, watch, func() bool { return *n >= flip }) || *n != flip {
			t.Fatalf("shards=%d: ran %d links, want a halt at link %d", shards, *n, flip)
		}
		if pe.Now() != ref.Now() || pe.Now() != (flip-1)*period {
			t.Errorf("shards=%d: halted at %v, want %v", shards, pe.Now(), ref.Now())
		}
		for i := range shards {
			if got := pe.Shard(i).Now(); got != ref.Shard(i).Now() {
				t.Errorf("shards=%d: shard %d clock %v, want %v", shards, i, got, ref.Shard(i).Now())
			}
		}
		if got, want := pendingKeys(pe), pendingKeys(ref); !slices.Equal(got, want) {
			t.Errorf("shards=%d: pending %+v, want %+v", shards, got, want)
		}
		if shards > 1 && pe.BatchRuns() == 0 {
			t.Errorf("shards=%d: no solo batch ran; the halt was not tested on the batch path", shards)
		}
		pe.Close()
	}
}

// TestRunUntilAnyOfCountsTransitions pins the amortisation figure: one
// transition per wait, however many windows it spans.
func TestRunUntilAnyOfCountsTransitions(t *testing.T) {
	pe := NewParallel(1, 2, 2)
	defer pe.Close()
	pe.SetLookahead(10)
	watch := pe.Shard(0).Domain(0)
	other := pe.Shard(1).Domain(1)
	n := 0
	for i := 0; i < 50; i++ {
		watch.AtP(Time(100*(i+1)), Func(func() { n++ }))
		other.AtP(Time(100*(i+1)+5), Func(func() {}))
	}
	if pe.Transitions() != 0 {
		t.Fatalf("fresh engine has %d transitions", pe.Transitions())
	}
	pe.RunUntilAnyOf(Forever, watch, func() bool { return n >= 50 })
	if got := pe.Transitions(); got != 1 {
		t.Errorf("one wait cost %d transitions, want 1", got)
	}
	if w := pe.Windows(); w < 50 {
		t.Errorf("windows=%d; the wait should still account its windows", w)
	}
}

// TestRunUntilAnyOfConditionAlreadyTrue: an already-satisfied wait is
// free and touches nothing.
func TestRunUntilAnyOfConditionAlreadyTrue(t *testing.T) {
	pe := NewParallel(1, 2, 2)
	defer pe.Close()
	watch := pe.Shard(0).Domain(0)
	ran := false
	watch.AtP(100, Func(func() { ran = true }))
	if !pe.RunUntilAnyOf(Forever, watch, func() bool { return true }) {
		t.Fatal("satisfied condition reported not halted")
	}
	if ran || pe.Now() != 0 {
		t.Errorf("satisfied wait executed events (ran=%v now=%v)", ran, pe.Now())
	}
}
