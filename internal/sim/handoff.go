package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The window hand-off. A pooled window is a handful of microseconds of
// work per shard, so the hand-off must cost well under that: the
// coordinator publishes the window through one atomic word, resident
// helpers spin on that word, and completion is an atomic countdown the
// coordinator spins on. A futex wake costs more than the window it
// would hand over, so parking is reserved for helpers that have found
// nothing to run for a whole spin budget — between a driver's calls and
// across long single-shard stretches, never per window.
const (
	// spinBudget is how many looks at the ticket a helper takes, counted
	// from the last job it ran, before it parks.
	spinBudget = 20000
	// yieldEvery is how often every spin loop — helper and coordinator
	// alike — yields its P, so a spinner can never starve the peer it is
	// waiting for when goroutines outnumber the processors running them.
	yieldEvery = 128
	// maxJobs is what the ticket's 16-bit fields can count.
	maxJobs = 1<<16 - 1
)

// helperPool owns an engine's resident helper goroutines, started once
// with the engine. Shutdown is a compare-and-swap on closed, so it
// happens exactly once.
//
// Helpers hold the pool and nothing else, and the pool holds shard
// engines but never the ParallelEngine — which is what lets an abandoned
// ParallelEngine be collected and its finalizer stop the helpers.
//
// Protocol. ticket packs {epoch:32, hi:16, lo:16}: jobs[lo:hi] are
// unclaimed. The coordinator fills jobs and last, stores the countdown,
// then stores the ticket {epoch+1, n, 0} — that one store publishes the
// window, and the countdown must already be in place: a helper may
// claim, run and count down the instant the ticket lands. A job is
// claimed by compare-and-swap on the ticket, the coordinator from the
// front (lo++) and helpers from the back (hi--), so each lane keeps
// meeting the same shards and their working sets stay in its cache.
// Every claim is a swap on the very word that published the window, so
// it can only succeed against the current window, and the coordinator
// does not touch jobs or last again until every claimed job has counted
// down: a claimant reads them only while they are immutable, however
// late it arrives, and a straggler from an earlier window finds either
// nothing to claim or a job that is legitimately its own. (The epoch
// makes every window's ticket values distinct, so none of this leans on
// an ABA argument.) The coordinator claims too, so a window completes
// even if no helper ever turns up.
type helperPool struct {
	jobs    []*Engine
	last    Time
	epoch   uint32 // coordinator-owned; the published copy lives in ticket
	helpers int

	ticket atomic.Uint64
	remain atomic.Int64
	parked atomic.Int32
	closed atomic.Bool
	mu     sync.Mutex // guards the park/wake rendezvous only
	wake   sync.Cond
}

// newHelperPool starts helpers resident goroutines able to share
// windows of up to shards jobs.
func newHelperPool(helpers, shards int) *helperPool {
	p := &helperPool{helpers: helpers, jobs: make([]*Engine, 0, shards)}
	p.wake.L = &p.mu
	for i := 0; i < helpers; i++ {
		go p.helper()
	}
	return p
}

// helperCount is how many resident helpers an engine with this worker
// bound gets: one lane per processor actually available, minus the
// coordinator's own. A helper spinning without a processor of its own
// would only take turns with the lane it is waiting for.
func helperCount(workers int) int {
	return min(workers, runtime.GOMAXPROCS(0)) - 1
}

// close stops the pool's helpers exactly once, spinning or parked;
// nil-safe.
func (p *helperPool) close() {
	if p != nil && p.closed.CompareAndSwap(false, true) {
		p.mu.Lock()
		p.wake.Broadcast()
		p.mu.Unlock()
	}
}

// run executes one window — every active shard but skip, through last —
// across the coordinator (the caller) and whichever helpers turn up,
// and returns when all of it is done.
func (p *helperPool) run(shards []*Engine, active []int, skip int, last Time) {
	for _, i := range active {
		if i != skip {
			p.jobs = append(p.jobs, shards[i])
		}
	}
	p.last = last
	n := len(p.jobs)
	p.epoch++
	p.remain.Store(int64(n))
	p.ticket.Store(uint64(p.epoch)<<32 | uint64(n)<<16)
	// Helpers still spinning will see the ticket; wake parked ones only
	// for the jobs the spinners cannot cover.
	if short := n - 1 - (p.helpers - int(p.parked.Load())); short > 0 {
		p.mu.Lock()
		for ; short > 0; short-- {
			p.wake.Signal()
		}
		p.mu.Unlock()
	}
	p.work(true)
	for spins := 1; p.remain.Load() != 0; spins++ {
		if spins%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	p.jobs = p.jobs[:0]
}

// unclaimed reports whether ticket value t still has a job to give.
func unclaimed(t uint64) bool { return t&maxJobs < t>>16&maxJobs }

// work claims and runs jobs of the current window until none is left,
// from the front of the list or from the back, and reports whether it
// ran any.
func (p *helperPool) work(front bool) (ran bool) {
	for {
		t := p.ticket.Load()
		if !unclaimed(t) {
			return ran
		}
		job, claimed := t&maxJobs, t+1
		if !front {
			job, claimed = t>>16&maxJobs-1, t-1<<16
		}
		if p.ticket.CompareAndSwap(t, claimed) {
			p.jobs[job].RunThrough(p.last, nil)
			p.remain.Add(-1)
			ran = true
		}
	}
}

// helper is the resident loop: spin on the ticket, share whatever window
// it offers, and park once spinBudget looks have gone by without a job.
// It must not reach the ParallelEngine — see helperPool.
func (p *helperPool) helper() {
	for spins := 1; ; spins++ {
		if p.work(false) {
			spins = 0
			continue
		}
		if spins%yieldEvery != 0 {
			continue
		}
		if p.closed.Load() {
			return
		}
		if spins < spinBudget {
			runtime.Gosched()
			continue
		}
		// Park. Raising parked before the last look at the ticket pairs
		// with run's store-then-load of the same two words: either this
		// helper sees the new window, or the coordinator sees it parked.
		p.mu.Lock()
		p.parked.Add(1)
		for !unclaimed(p.ticket.Load()) && !p.closed.Load() {
			p.wake.Wait()
		}
		p.parked.Add(-1)
		p.mu.Unlock()
		spins = 0
	}
}
