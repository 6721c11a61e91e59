package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// pingPong builds a 2-shard model where each shard's events post events
// back to the other with latency la, recording a trace of (shard, time)
// pairs. It returns the trace after running to the deadline.
func pingPong(pe *ParallelEngine, la Time, deadline Time, parallel bool) []string {
	return pingPongOn(pe, 0, 1, la, deadline, parallel)
}

// pingPongOn is pingPong between two chosen shards of a possibly wider
// engine: every window holds one event on each, and each event posts
// the next across the cut, so the trace depends on every window's
// barrier.
func pingPongOn(pe *ParallelEngine, a, b int, la, deadline Time, parallel bool) []string {
	shard := [2]int{a, b}
	// Each shard appends only to its own trace slice, so the recording
	// itself cannot race under parallel execution.
	var per [2][]string
	doms := [2]*Domain{pe.Shard(a).Domain(a), pe.Shard(b).Domain(b)}
	var seqs [2]uint64 // per-sender, as the canonical key requires
	var hop func(side int)
	hop = func(side int) {
		eng := pe.Shard(shard[side])
		per[side] = append(per[side], fmt.Sprintf("s%d@%d", shard[side], eng.Now()))
		other := 1 - side
		if at := eng.Now() + la; at <= deadline {
			seqs[side]++
			pe.PostP(shard[side], shard[other], doms[other], at, int32(shard[side]), seqs[side],
				Func(func() { hop(other) }))
		}
	}
	pe.Shard(a).AtP(0, Func(func() { hop(0) }))
	pe.Shard(b).AtP(la/2, Func(func() { hop(1) }))
	if parallel {
		pe.RunUntil(deadline)
	} else {
		pe.Run()
	}
	// Merge per-shard traces deterministically for comparison.
	return append(per[0], per[1]...)
}

func TestParallelMatchesSequential(t *testing.T) {
	const la = 100
	const deadline = 100 * la
	build := func() *ParallelEngine {
		pe := NewParallel(1, 2, 2)
		pe.SetLookahead(la)
		return pe
	}
	seq := pingPong(build(), la, deadline, false)
	par := pingPong(build(), la, deadline, true)
	if len(seq) == 0 {
		t.Fatal("no events ran")
	}
	if len(seq) != len(par) {
		t.Fatalf("sequential ran %d events, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("trace diverged at %d: %s vs %s", i, seq[i], par[i])
		}
	}
}

func TestParallelSingleShardDelegates(t *testing.T) {
	pe := NewParallel(42, 1, 1)
	ref := New(42)
	// Same seed must mean the same control RNG stream.
	for i := 0; i < 8; i++ {
		if a, b := pe.RNG().Uint64(), ref.RNG().Uint64(); a != b {
			t.Fatalf("draw %d: parallel %d, engine %d", i, a, b)
		}
	}
	ran := 0
	pe.Shard(0).AtP(10, Func(func() { ran++ }))
	pe.RunUntil(20)
	if ran != 1 || pe.Now() != 20 {
		t.Errorf("ran=%d Now()=%v, want 1 and 20", ran, pe.Now())
	}
}

func TestMailboxMergeOrderIsDeterministic(t *testing.T) {
	// Two source shards post to shard 2 at the same timestamp; the
	// barrier drain must order them by source shard regardless of which
	// goroutine finished first.
	for trial := 0; trial < 20; trial++ {
		pe := NewParallel(1, 3, 3)
		pe.SetLookahead(10)
		dst := pe.Shard(2).Domain(2)
		var got []int
		pe.Shard(1).AtP(0, Func(func() { pe.PostP(1, 2, dst, 10, 1, 1, Func(func() { got = append(got, 1) })) }))
		pe.Shard(0).AtP(0, Func(func() { pe.PostP(0, 2, dst, 10, 0, 1, Func(func() { got = append(got, 0) })) }))
		pe.RunUntil(20)
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("trial %d: delivery order %v, want [0 1]", trial, got)
		}
	}
}

func TestPostLookaheadViolationPanics(t *testing.T) {
	pe := NewParallel(1, 2, 2)
	pe.SetLookahead(100)
	dst := pe.Shard(1).Domain(1)
	pe.Shard(0).AtP(50, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("posting inside the lookahead window did not panic")
			}
		}()
		// Window is [50, 150); a post at 60 violates conservative PDES.
		pe.PostP(0, 1, dst, 60, 0, 1, Func(func() {}))
	}))
	pe.RunUntil(200)
}

func TestSequentialStepGlobalOrder(t *testing.T) {
	pe := NewParallel(1, 2, 2)
	var got []int
	pe.Shard(1).AtP(5, Func(func() { got = append(got, 15) }))
	pe.Shard(0).AtP(5, Func(func() { got = append(got, 5) }))
	pe.Shard(1).AtP(3, Func(func() { got = append(got, 13) }))
	pe.Run()
	want := []int{13, 5, 15} // time order, shard index breaking the tie
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParallelRunUntilAdvancesAllShards(t *testing.T) {
	pe := NewParallel(1, 4, 4)
	pe.SetLookahead(100)
	pe.Shard(2).AtP(10, Func(func() {}))
	pe.RunUntil(1000)
	for i := 0; i < pe.Shards(); i++ {
		if now := pe.Shard(i).Now(); now != 1000 {
			t.Errorf("shard %d clock at %v after RunUntil(1000)", i, now)
		}
	}
}

func TestPersistentPoolSurvivesRepeatedRunUntil(t *testing.T) {
	// The stepping-loop pattern the pool exists for: many short RunUntil
	// calls against the same engine. Cross-shard traffic must flow on
	// every call, and the window counters must accumulate.
	pe := NewParallel(1, 2, 2)
	defer pe.Close()
	pe.SetLookahead(100)
	doms := []*Domain{pe.Shard(0).Domain(0), pe.Shard(1).Domain(1)}
	var seq [2]uint64
	var count [2]int
	var hop func(shard int)
	hop = func(shard int) {
		count[shard]++
		other := 1 - shard
		seq[shard]++
		pe.PostP(shard, other, doms[other], pe.Shard(shard).Now()+100,
			int32(shard), seq[shard], Func(func() { hop(other) }))
	}
	pe.Shard(0).AtP(0, Func(func() { hop(0) }))
	for step := Time(0); step < 10000; step += 1000 {
		pe.RunUntil(step + 1000)
	}
	if count[0]+count[1] != 101 {
		t.Errorf("ping-pong ran %d hops over 10 RunUntil calls, want 101", count[0]+count[1])
	}
	if pe.Windows() == 0 {
		t.Error("no windows recorded")
	}
	if pe.EventsPerWindow() <= 0 {
		t.Error("no events attributed to windows")
	}
}

func TestCloseIsIdempotentAndRunUntilStillWorks(t *testing.T) {
	pe := NewParallel(1, 2, 2)
	pe.Close()
	pe.Close() // double close must not panic
	ran := 0
	pe.Shard(0).AtP(10, Func(func() { ran++ }))
	pe.Shard(1).AtP(10, Func(func() { ran++ }))
	pe.RunUntil(20) // pool closed: windows fall back to inline execution
	if ran != 2 {
		t.Errorf("ran %d events after Close, want 2", ran)
	}
}

// TestShardLaneFillsOneCacheLine pins shardLane's hand-computed padding:
// a field added or removed without re-sizing the pad would silently put
// two shards' lanes on one cache line.
func TestShardLaneFillsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(shardLane{}); got != 64 {
		t.Errorf("shardLane is %d bytes, want one 64-byte cache line", got)
	}
}

func TestWiderLookaheadReducesWindows(t *testing.T) {
	// The same workload under a wider lookahead must synchronise less:
	// cross-shard events at latency 210 can run under a lookahead of
	// either 100 or 210, but the narrow bound pays a barrier roughly
	// every event while the wide one batches them.
	const eventLatency = 210
	run := func(la Time) (windows uint64, trace []string) {
		pe := NewParallel(1, 2, 2)
		defer pe.Close()
		pe.SetLookahead(la)
		trace = pingPong(pe, eventLatency, 200*eventLatency, true)
		return pe.Windows(), trace
	}
	wideWindows, wideTrace := run(eventLatency)
	narrowWindows, narrowTrace := run(100)
	if wideWindows >= narrowWindows {
		t.Errorf("lookahead %d used %d windows, lookahead 100 used %d — wider must mean fewer barriers",
			eventLatency, wideWindows, narrowWindows)
	}
	// And the trajectory is identical either way: lookahead is an
	// execution parameter, not a model parameter.
	if len(wideTrace) != len(narrowTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(wideTrace), len(narrowTrace))
	}
	for i := range wideTrace {
		if wideTrace[i] != narrowTrace[i] {
			t.Fatalf("trace diverged at %d: %s vs %s", i, wideTrace[i], narrowTrace[i])
		}
	}
}

// quietCut builds a workload with long provably single-shard stretches:
// shard 0 steps a dense self-chain (period 10) while shard 1 wakes only
// every 2000 ticks; each shard 1 wake posts a cross-shard event back to
// shard 0, and every 100th shard 0 step posts one to shard 1. Between
// those exchanges the horizons prove shard 0 is alone, so the engine
// may batch its windows under one hand-off.
func quietCut(pe *ParallelEngine, deadline Time) []string {
	const period, wake, la = 10, 2000, 100
	per := make([][]string, pe.Shards())
	doms := []*Domain{pe.Shard(0).Domain(0), pe.Shard(1).Domain(1)}
	var seq [2]uint64
	var n0 int
	// Self-chains via rearming payloads, so both shards keep native work.
	var rearm0 func()
	rearm0 = func() {
		eng := pe.Shard(0)
		per[0] = append(per[0], fmt.Sprintf("s0@%d", eng.Now()))
		n0++
		if n0%100 == 0 && eng.Now()+la <= deadline {
			seq[0]++
			pe.PostP(0, 1, doms[1], eng.Now()+la, 0, seq[0], Func(func() {
				per[1] = append(per[1], fmt.Sprintf("s1m@%d", pe.Shard(1).Now()))
			}))
		}
		if eng.Now()+period <= deadline {
			eng.AtP(eng.Now()+period, Func(rearm0))
		}
	}
	var rearm1 func()
	rearm1 = func() {
		eng := pe.Shard(1)
		per[1] = append(per[1], fmt.Sprintf("s1@%d", eng.Now()))
		if eng.Now()+la <= deadline {
			seq[1]++
			pe.PostP(1, 0, doms[0], eng.Now()+la, 1, seq[1], Func(func() {
				per[0] = append(per[0], fmt.Sprintf("s0m@%d", pe.Shard(0).Now()))
			}))
		}
		if eng.Now()+wake <= deadline {
			eng.AtP(eng.Now()+wake, Func(rearm1))
		}
	}
	pe.Shard(0).AtP(0, Func(rearm0))
	pe.Shard(1).AtP(5, Func(rearm1))
	pe.RunUntil(deadline)
	return append(per[0], per[1]...)
}

func TestBatchedSoloMatchesSequential(t *testing.T) {
	// The batched hand-off path is pure execution strategy: the quiet-cut
	// workload must yield the identical per-shard trace whether windows
	// run one-per-hand-off (sequential reference) or batched.
	const deadline = 20000
	run := func(parallel bool) (*ParallelEngine, []string) {
		pe := NewParallel(1, 2, 2)
		pe.SetLookahead(100)
		if !parallel {
			// Sequential global-order reference: no windows at all.
			per := quietCutSequential(pe, deadline)
			return pe, per
		}
		return pe, quietCut(pe, deadline)
	}
	peSeq, seq := run(false)
	pePar, par := run(true)
	defer peSeq.Close()
	defer pePar.Close()
	if len(seq) == 0 {
		t.Fatal("no events ran")
	}
	if len(seq) != len(par) {
		t.Fatalf("sequential ran %d events, batched parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("trace diverged at %d: %s vs %s", i, seq[i], par[i])
		}
	}
	// And batching must actually have engaged on this workload.
	if pePar.BatchRuns() == 0 || pePar.BatchedWindows() == 0 {
		t.Errorf("quiet-cut workload ran %d batch runs over %d windows; expected batching to engage",
			pePar.BatchRuns(), pePar.BatchedWindows())
	}
	if pePar.Handoffs() >= pePar.Windows() {
		t.Errorf("handoffs %d >= windows %d; batching saved nothing",
			pePar.Handoffs(), pePar.Windows())
	}
}

// quietCutSequential replays the quietCut workload under Run()'s global
// event order (the ground-truth trajectory, no windows or batching).
func quietCutSequential(pe *ParallelEngine, deadline Time) []string {
	const period, wake, la = 10, 2000, 100
	per := make([][]string, pe.Shards())
	doms := []*Domain{pe.Shard(0).Domain(0), pe.Shard(1).Domain(1)}
	var seq [2]uint64
	var n0 int
	var rearm0 func()
	rearm0 = func() {
		eng := pe.Shard(0)
		per[0] = append(per[0], fmt.Sprintf("s0@%d", eng.Now()))
		n0++
		if n0%100 == 0 && eng.Now()+la <= deadline {
			seq[0]++
			pe.PostP(0, 1, doms[1], eng.Now()+la, 0, seq[0], Func(func() {
				per[1] = append(per[1], fmt.Sprintf("s1m@%d", pe.Shard(1).Now()))
			}))
		}
		if eng.Now()+period <= deadline {
			eng.AtP(eng.Now()+period, Func(rearm0))
		}
	}
	var rearm1 func()
	rearm1 = func() {
		eng := pe.Shard(1)
		per[1] = append(per[1], fmt.Sprintf("s1@%d", eng.Now()))
		if eng.Now()+la <= deadline {
			seq[1]++
			pe.PostP(1, 0, doms[0], eng.Now()+la, 1, seq[1], Func(func() {
				per[0] = append(per[0], fmt.Sprintf("s0m@%d", pe.Shard(0).Now()))
			}))
		}
		if eng.Now()+wake <= deadline {
			eng.AtP(eng.Now()+wake, Func(rearm1))
		}
	}
	pe.Shard(0).AtP(0, Func(rearm0))
	pe.Shard(1).AtP(5, Func(rearm1))
	pe.Run()
	return append(per[0], per[1]...)
}

func TestBatchAccountingInvariant(t *testing.T) {
	// Every conceptual window pays exactly one hand-off unless it ran
	// inside a batch: windows - batchedWindows == handoffs - batchRuns,
	// and hand-offs never exceed windows.
	pe := NewParallel(1, 2, 2)
	defer pe.Close()
	pe.SetLookahead(100)
	quietCut(pe, 20000)
	w, bw := pe.Windows(), pe.BatchedWindows()
	h, br := pe.Handoffs(), pe.BatchRuns()
	if w-bw != h-br {
		t.Errorf("accounting broken: windows %d - batched %d != handoffs %d - batchRuns %d", w, bw, h, br)
	}
	if h > w {
		t.Errorf("handoffs %d > windows %d", h, w)
	}
}

func TestBatchingPreservesStatistics(t *testing.T) {
	// Interleaved ping-pong traffic never proves a solo run mid-stream —
	// each shard's next event sits within one lookahead of the other's —
	// so it must pay a hand-off for essentially every window. The only
	// legal batch is the tail, once the far shard has drained to empty.
	pe := NewParallel(1, 2, 2)
	defer pe.Close()
	pe.SetLookahead(100)
	pingPong(pe, 100, 300*100, true)
	if pe.BatchedWindows() > 2 {
		t.Errorf("interleaved ping-pong batched %d windows; only the drained tail may batch",
			pe.BatchedWindows())
	}
	if h, w, bw, br := pe.Handoffs(), pe.Windows(), pe.BatchedWindows(), pe.BatchRuns(); w-bw != h-br {
		t.Errorf("accounting broken: windows %d - batched %d != handoffs %d - batchRuns %d", w, bw, h, br)
	}
}

func TestTimeStatsMergeOrderIndependent(t *testing.T) {
	var a, b, whole TimeStats
	samples := []Time{5, 3, 9, 1, 12, 7}
	for i, s := range samples {
		whole.Add(s)
		if i%2 == 0 {
			a.Add(s)
		} else {
			b.Add(s)
		}
	}
	merged := b // merge in the "wrong" order on purpose
	merged.Merge(a)
	if merged != whole {
		t.Errorf("merged %+v != whole %+v", merged, whole)
	}
	if whole.MeanMicros() == 0 || whole.MaxMicros() != samples[4].Micros() {
		t.Errorf("summary wrong: %+v", whole)
	}
}

func TestSingleShardRunUntilAccountsWindows(t *testing.T) {
	pe := NewParallel(1, 1, 1)
	dom := pe.Shard(0).Domain(0)
	for i := Time(1); i <= 8; i++ {
		dom.AtP(i*10, Func(func() {}))
	}
	pe.RunUntil(100)
	if pe.Windows() != 1 {
		t.Errorf("Windows() = %d, want 1 (one barrier-free span)", pe.Windows())
	}
	if got := pe.EventsPerWindow(); got != 8 {
		t.Errorf("EventsPerWindow() = %v, want 8", got)
	}
	// An empty span accounts nothing.
	pe.RunUntil(200)
	if pe.Windows() != 1 {
		t.Errorf("empty span recorded a window: Windows() = %d", pe.Windows())
	}
}

// TestCloseChurnRace exercises the shutdown paths under the race
// detector: concurrent explicit Closes, and engines dropped without
// Close so the finalizer backstop fires during GC churn.
func TestCloseChurnRace(t *testing.T) {
	for i := 0; i < 40; i++ {
		pe := NewParallel(1, 4, 4)
		pe.Shard(0).Domain(0).AtP(1, Func(func() {}))
		pe.RunUntil(10)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pe.Close()
			}()
		}
		wg.Wait()
		if i%8 == 0 {
			runtime.GC()
		}
	}
	// Finalizer path: drop engines that still own live pools.
	for i := 0; i < 40; i++ {
		pe := NewParallel(1, 4, 4)
		pe.Shard(0).Domain(0).AtP(1, Func(func() {}))
		pe.RunUntil(10)
	}
	runtime.GC()
	runtime.GC()
}
