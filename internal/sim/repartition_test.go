package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// ringHarness is a 3-domain ring where each domain's event posts to the
// next with a fixed latency, resolving ownership through a mutable
// owner table exactly the way the fabric resolves node shards. It is
// the smallest model that exercises re-binding: after a Repartition the
// same domains keep exchanging events under a different shard layout.
type ringHarness struct {
	pe    *ParallelEngine
	owner []int // domain id -> shard, updated on repartition
	doms  []*Domain
	seqs  []uint64
	per   [][]string // per-domain traces: no shared appends under parallel windows
	la    Time
	stop  Time
}

func newRing(pe *ParallelEngine, owner []int, la, stop Time) *ringHarness {
	h := &ringHarness{pe: pe, owner: owner, la: la, stop: stop,
		seqs: make([]uint64, 3), per: make([][]string, 3)}
	for d := 0; d < 3; d++ {
		h.doms = append(h.doms, pe.Shard(owner[d]).Domain(d))
	}
	h.doms[0].AtP(0, Func(func() { h.hop(0) }))
	return h
}

func (h *ringHarness) hop(d int) {
	h.per[d] = append(h.per[d], h.doms[d].Now().String())
	next := (d + 1) % 3
	at := h.doms[d].Now() + h.la
	if at > h.stop {
		return
	}
	h.seqs[d]++
	if h.owner[d] == h.owner[next] {
		h.doms[next].DeliverAtP(at, int32(d), h.seqs[d], Func(func() { h.hop(next) }))
	} else {
		h.pe.PostP(h.owner[d], h.owner[next], h.doms[next], at, int32(d), h.seqs[d],
			Func(func() { h.hop(next) }))
	}
}

func (h *ringHarness) trace() []string {
	var out []string
	for _, p := range h.per {
		out = append(out, p...)
	}
	return out
}

// pendingByDomain counts every shard's pending events per domain id,
// reading the domain lists each shard's queue holds (cross-domain
// deliveries count at their destination; the anonymous domain is
// skipped).
func pendingByDomain(pe *ParallelEngine, n int) []uint64 {
	counts := make([]uint64, n)
	for _, s := range pe.shards {
		for _, d := range s.q.doms {
			if d.id >= 0 && int(d.id) < n {
				counts[d.id] += uint64(len(d.pend))
			}
		}
	}
	return counts
}

// repartition rebinds the harness to a new owner table through
// ParallelEngine.Repartition; every domain must arrive with exactly the
// events it had pending.
func (h *ringHarness) repartition(t *testing.T, shards int, owner []int) {
	t.Helper()
	before := pendingByDomain(h.pe, len(h.doms))
	if err := h.pe.Repartition(shards, shards, func(d int32) int { return owner[d] }); err != nil {
		t.Fatalf("repartition to %d shards: %v", shards, err)
	}
	after := pendingByDomain(h.pe, len(h.doms))
	for d := range before {
		if before[d] != after[d] || int(after[d]) != len(h.doms[d].pend) {
			t.Fatalf("domain %d: %d pending before repartition, %d after (list holds %d)",
				d, before[d], after[d], len(h.doms[d].pend))
		}
	}
	h.owner = owner
}

func TestRepartitionPreservesTrace(t *testing.T) {
	const la = 100
	const stop = 200 * la
	// Reference: the ring on a fixed 2-shard layout, uninterrupted.
	ref := NewParallel(7, 2, 2)
	defer ref.Close()
	ref.SetLookahead(la)
	rh := newRing(ref, []int{0, 0, 1}, la, stop)
	ref.RunUntil(stop + la)
	refRNG := ref.RNG().Uint64()

	// Same ring, re-partitioned twice mid-run: out to 3 shards, then
	// down to 1 (the sequential collapse), then back to 2.
	pe := NewParallel(7, 2, 2)
	defer pe.Close()
	pe.SetLookahead(la)
	h := newRing(pe, []int{0, 0, 1}, la, stop)
	pe.RunUntil(50 * la)
	h.repartition(t, 3, []int{0, 1, 2})
	pe.RunUntil(120 * la)
	h.repartition(t, 1, []int{0, 0, 0})
	pe.RunUntil(160 * la)
	h.repartition(t, 2, []int{1, 0, 1})
	pe.RunUntil(stop + la)

	want, got := rh.trace(), h.trace()
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("trace lengths differ: ref %d, repartitioned %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trace diverged at %d: %s vs %s", i, want[i], got[i])
		}
	}
	if reps := pe.Repartitions(); reps != 3 {
		t.Errorf("Repartitions() = %d, want 3", reps)
	}
	// The control-plane RNG stream must survive the swaps mid-stream.
	if got := pe.RNG().Uint64(); got != refRNG {
		t.Errorf("control RNG diverged after repartition: %d vs %d", got, refRNG)
	}
	// Processed is cumulative across layouts.
	if pe.Processed() != ref.Processed() {
		t.Errorf("Processed() = %d, want %d", pe.Processed(), ref.Processed())
	}
}

func TestRepartitionMovesPendingEvents(t *testing.T) {
	pe := NewParallel(1, 2, 2)
	defer pe.Close()
	pe.SetLookahead(10)
	a := pe.Shard(0).Domain(0)
	b := pe.Shard(1).Domain(1)
	// Each domain holds several events, scheduled out of time order, with
	// same-instant ties between local events and a delivery; got records
	// the order they fire in, want is the canonical one.
	var got []string
	fire := func(d *Domain, name string) Payload {
		return Func(func() { got = append(got, fmt.Sprintf("%s@%d", name, d.Now())) })
	}
	a.AtP(90, fire(a, "a1"))
	a.AtP(50, fire(a, "a2"))
	a.DeliverAtP(50, 1, 1, fire(a, "a-from-b"))
	a.AtP(50, fire(a, "a3"))
	b.AtP(70, fire(b, "b1"))
	b.AtP(50, fire(b, "b2"))
	// An anonymous event pins to the control shard, whichever engine that is.
	pe.Shard(0).AtP(60, Func(func() { got = append(got, fmt.Sprintf("anon@%d", pe.Shard(0).Now())) }))
	want := []string{"a2@50", "a3@50", "a-from-b@50", "b2@50", "anon@60", "b1@70", "a1@90"}
	if pe.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", pe.Pending())
	}
	// Swap ownership entirely: both domains onto what used to be the
	// other's shard layout, via a fresh 2-shard split.
	if err := pe.Repartition(2, 2, func(d int32) int { return 1 - int(d) }); err != nil {
		t.Fatal(err)
	}
	if pe.Pending() != 7 || len(a.pend) != 4 || len(b.pend) != 2 {
		t.Fatalf("after repartition: %d pending, %d on a, %d on b; want 7, 4, 2", pe.Pending(), len(a.pend), len(b.pend))
	}
	if counts := pendingByDomain(pe, 2); counts[0] != 4 || counts[1] != 2 {
		t.Fatalf("pending by domain = %v, want [4 2]", counts)
	}
	if a.Engine() != pe.Shard(1) || b.Engine() != pe.Shard(0) {
		t.Fatal("domains not re-bound to their new owning shards")
	}
	pe.Run()
	if !slices.Equal(got, want) {
		t.Errorf("migrated events fired as %v, want %v", got, want)
	}
}

func TestRepartitionRefusesNonQuiescence(t *testing.T) {
	pe := NewParallel(1, 2, 2)
	defer pe.Close()
	pe.Shard(0).Domain(0).AtP(5, Func(func() {}))
	pe.Shard(1).Domain(1).AtP(9, Func(func() {}))
	pe.Step() // shard 0's clock moves to 5; shard 1 stays at 0
	if err := pe.Repartition(2, 2, func(d int32) int { return int(d) }); err == nil {
		t.Fatal("repartition accepted diverged shard clocks")
	}
	pe.SyncClocks()
	if err := pe.Repartition(2, 2, func(d int32) int { return int(d) }); err != nil {
		t.Fatalf("repartition at synced clocks: %v", err)
	}
	// A broken owner map must be rejected before any state moves.
	if err := pe.Repartition(2, 2, func(d int32) int { return 5 }); err == nil {
		t.Fatal("repartition accepted an out-of-range owner map")
	}
	pe.Run()
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
// detector: concurrent explicit Closes, Close racing a Repartition's
// pool swap, and engines dropped without Close so the finalizer
// backstop fires during GC churn.
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
	// Repartition swaps pools while another goroutine Closes.
	for i := 0; i < 40; i++ {
		pe := NewParallel(1, 4, 4)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			pe.Close()
		}()
		_ = pe.Repartition(2, 2, func(d int32) int { return 0 })
		wg.Wait()
		pe.Close()
	}
}
