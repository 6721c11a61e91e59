package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// within fails the test if f has not returned after d: a broken hand-off
// shows up as a coordinator or helper waiting forever, and a named
// failure beats the package timeout's goroutine dump.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v", what, d)
	}
}

// eventually polls cond for up to five seconds.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return cond()
}

// setProcs pins GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestHandoffOversubscribed is the determinism matrix's shape — more
// shards and workers than processors — on the hand-off alone: the
// helper count follows GOMAXPROCS, no spin loop starves the lane it
// waits for, and the trajectory is the sequential one.
func TestHandoffOversubscribed(t *testing.T) {
	const la, windows = 100, 50000
	ref := NewParallel(1, 8, 1)
	want := pingPongOn(ref, 2, 5, la, windows*la, false)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			pe := NewParallel(1, 8, 8)
			defer pe.Close()
			pe.SetLookahead(la)
			helpers := 0
			if p := pe.pool.Load(); p != nil {
				helpers = p.helpers
			}
			if helpers != procs-1 {
				t.Fatalf("%d helpers on %d processors, want %d", helpers, procs, procs-1)
			}
			var got []string
			within(t, 60*time.Second, "oversubscribed run", func() {
				got = pingPongOn(pe, 2, 5, la, windows*la, true)
			})
			if pe.Windows() < windows {
				t.Fatalf("ran %d windows, want at least %d", pe.Windows(), windows)
			}
			if procs > 1 && pe.ParallelWindows() < windows-2 {
				t.Errorf("only %d of %d windows were shared with the helper", pe.ParallelWindows(), pe.Windows())
			}
			if len(got) != len(want) {
				t.Fatalf("ran %d events, sequential engine %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trace diverged at %d: %s vs %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestHelpersParkWhenIdle: an engine nobody is driving burns no CPU.
func TestHelpersParkWhenIdle(t *testing.T) {
	setProcs(t, 4)
	pe := NewParallel(1, 4, 4)
	defer pe.Close()
	pe.SetLookahead(100)
	pool := pe.pool.Load()
	if pool == nil || pool.helpers != 3 {
		t.Fatal("expected three resident helpers")
	}
	allParked := func() bool { return int(pool.parked.Load()) == pool.helpers }
	if !eventually(allParked) {
		t.Fatalf("fresh engine: %d of %d helpers parked", pool.parked.Load(), pool.helpers)
	}
	pingPong(pe, 100, 2000*100, true)
	if pe.ParallelWindows() == 0 {
		t.Fatal("no window was shared with the helpers")
	}
	start := time.Now()
	if !eventually(allParked) {
		t.Fatalf("after RunUntil: %d of %d helpers parked", pool.parked.Load(), pool.helpers)
	}
	t.Logf("helpers parked %v after RunUntil returned", time.Since(start))
	// And they come back: a parked pool still shares the next windows.
	before := pe.ParallelWindows()
	pe.Shard(0).AtP(pe.Now()+1, Func(func() {}))
	pe.Shard(1).AtP(pe.Now()+1, Func(func() {}))
	within(t, 30*time.Second, "window after parking", func() { pe.RunUntil(pe.Now() + 10) })
	if pe.ParallelWindows() == before {
		t.Error("window after parking ran inline")
	}
}

// lockstep re-arms itself one lookahead ahead, so every window holds
// exactly one event per shard, and checks the two things a broken
// hand-off breaks: a shard run by two lanes at once, and a shard left
// out of its window (its event then runs under a later window's limit).
// Each event burns a pseudo-random few hundred nanoseconds at most, so
// lanes finish in every order: helper first, coordinator first, a
// straggler still leaving one window while the next is published.
type lockstep struct {
	pe      *ParallelEngine
	d       *Domain
	peer    *lockstep
	rng     uint64
	sink    uint64
	busy    atomic.Int32
	bad     atomic.Int32
	overlap atomic.Int32 // events that saw the peer shard running: lanes really were concurrent
}

func (p *lockstep) Run() {
	if !p.busy.CompareAndSwap(0, 1) {
		p.bad.Add(1)
	}
	if Time(p.pe.curLimit.Load()) != p.d.Now()+p.pe.lookahead {
		p.bad.Add(1)
	}
	p.rng = p.rng*6364136223846793005 + 1442695040888963407
	for i := p.rng >> 55; i > 0; i-- {
		p.sink += i
	}
	if p.peer.busy.Load() == 1 {
		p.overlap.Add(1)
	}
	p.d.AfterP(p.pe.lookahead, p)
	p.busy.Store(0)
}
func (p *lockstep) EventDesc() *Desc { return nil }

// TestHandoffStress drives the ticket protocol through a million
// near-empty windows, where the coordinator publishes the next window
// while helpers are still leaving the last one. Two things it pins: the
// countdown is in place before the ticket is (a helper's decrement must
// never be overwritten), and a straggler can never run a job off a list
// the coordinator has since refilled.
func TestHandoffStress(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two processors: with one the engine starts no helper")
	}
	windows := 1000000
	if testing.Short() {
		windows /= 10
	}
	const la, chunk = 100, 1000
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Helpers that have a real processor each: threads taking
			// turns on one core measure the host's scheduler, not us.
			setProcs(t, min(shards, runtime.NumCPU()))
			pe := NewParallel(1, shards, shards)
			defer pe.Close()
			pe.SetLookahead(la)
			steps := make([]*lockstep, shards)
			for i := range steps {
				steps[i] = &lockstep{pe: pe, d: pe.Shard(i).Domain(i), rng: uint64(i)}
				steps[i].d.AtP(0, steps[i])
			}
			for i, s := range steps {
				s.peer = steps[(i+1)%shards]
			}
			within(t, 5*time.Minute, "stress run", func() {
				for done := 0; done < windows; done += chunk {
					pe.RunUntil(Time(done+chunk)*la - 1)
					for i := range steps {
						if got := pe.Shard(i).Processed(); got != uint64(done+chunk) {
							t.Errorf("shard %d ran %d events after %d windows", i, got, done+chunk)
							return
						}
					}
				}
			})
			var overlap int32
			for i, s := range steps {
				if n := s.bad.Load(); n != 0 {
					t.Errorf("shard %d: %d events ran twice at once or outside their window", i, n)
				}
				overlap += s.overlap.Load()
			}
			if overlap == 0 {
				t.Error("no two shards were ever seen running at once: the helpers took no part")
			}
			t.Logf("%d of %d events overlapped their neighbour shard's", overlap, windows*shards)
			if pe.Windows() != uint64(windows) || pe.ParallelWindows() != uint64(windows) {
				t.Errorf("%d windows, %d shared; want %d of each", pe.Windows(), pe.ParallelWindows(), windows)
			}
		})
	}
}

// helpersGone waits for the goroutine count to fall back to base.
func helpersGone(base int) bool {
	return eventually(func() bool {
		runtime.GC() // runs pending finalizers' Close for dropped engines
		return runtime.NumGoroutine() <= base
	})
}

func TestCloseStopsHelpersSpinningOrParked(t *testing.T) {
	setProcs(t, 4)
	base := runtime.NumGoroutine()
	for _, wait := range []bool{false, true} {
		pe := NewParallel(1, 4, 4)
		pe.SetLookahead(100)
		pingPong(pe, 100, 500*100, true)
		pool := pe.pool.Load()
		if wait {
			// Close-while-parked; the other pass closes helpers that are
			// still inside their spin budget.
			if !eventually(func() bool { return int(pool.parked.Load()) == pool.helpers }) {
				t.Fatal("helpers never parked")
			}
		}
		pe.Close()
		pe.Close()
		if !helpersGone(base) {
			t.Fatalf("parked=%v: %d goroutines left, started with %d", wait, runtime.NumGoroutine(), base)
		}
	}
}

func TestEnginesLeaveNoHelperBehind(t *testing.T) {
	setProcs(t, 4)
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		pe := NewParallel(1, 4, 4)
		pe.SetLookahead(100)
		pingPong(pe, 100, 20*100, true)
		pe.Close()
	}
	if !helpersGone(base) {
		t.Fatalf("closed engines: %d goroutines left, started with %d", runtime.NumGoroutine(), base)
	}
	// Dropped without Close: the helpers hold the pool, never the engine,
	// so the engine is collected and its finalizer stops them.
	for i := 0; i < 20; i++ {
		pe := NewParallel(1, 4, 4)
		pe.SetLookahead(100)
		pingPong(pe, 100, 20*100, true)
	}
	if !helpersGone(base) {
		t.Fatalf("dropped engines: %d goroutines left, started with %d", runtime.NumGoroutine(), base)
	}
}
