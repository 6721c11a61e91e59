package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The canonical (time, domain, class, k1, k2) key is the invariant every
// determinism test in the repo silently relies on: if it were not a
// strict total order, or if heap merges were sensitive to insertion
// order, "byte-identical for every worker count" would be luck rather
// than a property. These tests pin it directly.

// heapQueue is the reference pending-event structure: one binary heap
// over full canonical keys, the queue the engine first shipped with. Its
// correctness is easy to see, so the differential tests below hold the
// engine's two-level queue to its pop order.
type heapQueue struct{ h eventHeap }

func (q *heapQueue) len() int      { return len(q.h) }
func (q *heapQueue) push(ev event) { heap.Push(&q.h, ev) }
func (q *heapQueue) pop() event    { return heap.Pop(&q.h).(event) }

// cancel removes the event keyed k, reporting whether it was pending.
func (q *heapQueue) cancel(k eventKey) bool {
	for i := range q.h {
		if q.h[i].key == k {
			heap.Remove(&q.h, i)
			return true
		}
	}
	return false
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].key.less(h[j].key) }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// randomKey draws a key from a space narrow enough that equal fields —
// the tie-break paths — actually occur.
func randomKey(rng *rand.Rand) eventKey {
	return eventKey{
		at:     Time(rng.Intn(4)),
		domain: int32(rng.Intn(3)) - 1,
		class:  uint8(rng.Intn(2)),
		k1:     uint64(rng.Intn(3)),
		k2:     uint64(rng.Intn(3)),
	}
}

func TestEventKeyStrictTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]eventKey, 300)
	for i := range keys {
		keys[i] = randomKey(rng)
	}
	for _, a := range keys {
		if a.less(a) {
			t.Fatalf("irreflexivity violated: %+v < itself", a)
		}
		for _, b := range keys {
			ab, ba := a.less(b), b.less(a)
			// Antisymmetry: at most one direction holds.
			if ab && ba {
				t.Fatalf("antisymmetry violated: %+v <> %+v", a, b)
			}
			// Trichotomy: incomparable keys must be equal field-for-field.
			if !ab && !ba && a != b {
				t.Fatalf("trichotomy violated: %+v and %+v incomparable but unequal", a, b)
			}
			// Transitivity over the sampled triples.
			if ab {
				for _, c := range keys[:40] {
					if b.less(c) && !a.less(c) {
						t.Fatalf("transitivity violated: %+v < %+v < %+v but not %+v < %+v",
							a, b, c, a, c)
					}
				}
			}
		}
	}
}

func TestEventKeyFieldPrecedence(t *testing.T) {
	base := eventKey{at: 5, domain: 2, class: 1, k1: 7, k2: 9}
	cases := []struct {
		name   string
		lo, hi eventKey
	}{
		{"time dominates all", eventKey{at: 4, domain: 9, class: 1, k1: 99, k2: 99}, base},
		{"domain before class", eventKey{at: 5, domain: 1, class: 1, k1: 99, k2: 99}, base},
		{"class before k1", eventKey{at: 5, domain: 2, class: 0, k1: 99, k2: 99}, base},
		{"k1 before k2", eventKey{at: 5, domain: 2, class: 1, k1: 6, k2: 99}, base},
		{"k2 last", eventKey{at: 5, domain: 2, class: 1, k1: 7, k2: 8}, base},
	}
	for _, c := range cases {
		if !c.lo.less(c.hi) || c.hi.less(c.lo) {
			t.Errorf("%s: want %+v < %+v", c.name, c.lo, c.hi)
		}
	}
}

// TestHeadMinMatchesLess holds the tournament's branch-free select to
// head.less at the edges of both fields — the first and last instants,
// the anonymous domain, idle — and on random heads, half of them drawn
// from a narrow range so that equal instants occur.
func TestHeadMinMatchesLess(t *testing.T) {
	var heads []head
	for _, at := range []Time{0, 1, Forever - 1, Forever} {
		for _, id := range []int32{-1, 0, 1, 63, math.MaxInt32 - 1} {
			heads = append(heads, head{at: at, id: id, leaf: int32(len(heads))})
		}
	}
	heads = append(heads, idle)
	want := func(a, b head) head {
		if b.less(a) {
			return b
		}
		return a
	}
	for _, a := range heads {
		for _, b := range heads {
			if got := a.min(b); got != want(a, b) {
				t.Fatalf("%+v.min(%+v) = %+v, want %+v", a, b, got, want(a, b))
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	random := func(leaf int32) head {
		if rng.Intn(2) == 0 {
			return head{at: Time(rng.Intn(3)), id: int32(rng.Intn(4)) - 1, leaf: leaf}
		}
		return head{at: Time(rng.Int63()), id: rng.Int31n(math.MaxInt32) - 1, leaf: leaf}
	}
	for i := 0; i < 100000; i++ {
		a, b := random(0), random(1)
		if got := a.min(b); got != want(a, b) {
			t.Fatalf("%+v.min(%+v) = %+v, want %+v", a, b, got, want(a, b))
		}
	}
}

// queueHarness drives a queue the way an engine does: every event goes
// through the one Domain carrying its id (-1 is the anonymous domain),
// bound on first use.
type queueHarness struct {
	q    queue
	doms map[int32]*Domain
}

func newQueueHarness() *queueHarness { return &queueHarness{doms: make(map[int32]*Domain)} }

func (h *queueHarness) push(ev event) {
	d := h.doms[ev.key.domain]
	if d == nil {
		d = &Domain{id: ev.key.domain}
		h.doms[ev.key.domain] = d
		h.q.bind(d)
	}
	h.q.push(d, ev)
}

// check verifies the two invariants queue.go states, that settle leaves
// no hole behind, and the counters.
func (h *queueHarness) check(t *testing.T) {
	t.Helper()
	q := &h.q
	q.settle()
	total := 0
	for i, d := range q.doms {
		if d.hole {
			t.Fatalf("domain %d still holds a hole after settle", d.id)
		}
		want := idle
		if len(d.pend) > 0 {
			want = head{at: d.pend[0].key.at, id: d.id, leaf: int32(i)}
		}
		if d.slot != i || q.tree[q.leaves+i] != want {
			t.Fatalf("leaf %d = %+v, want %+v (domain %d, slot %d, %d pending)",
				i, q.tree[q.leaves+i], want, d.id, d.slot, len(d.pend))
		}
		for j := 1; j < len(d.pend); j++ {
			if d.pend[j].key.before(&d.pend[(j-1)/2].key) {
				t.Fatalf("domain %d: pending heap violated at %d", d.id, j)
			}
		}
		total += len(d.pend)
	}
	for p := 1; p < q.leaves; p++ {
		want := q.tree[2*p]
		if q.tree[2*p+1].less(want) {
			want = q.tree[2*p+1]
		}
		if q.tree[p] != want {
			t.Fatalf("tournament node %d = %+v, want %+v", p, q.tree[p], want)
		}
	}
	visited := 0
	q.forEach(func(*event) { visited++ })
	if total != q.len() || visited != q.len() {
		t.Fatalf("len() = %d, lists hold %d, forEach visited %d", q.len(), total, visited)
	}
}

// popBoth pops the queue and the reference heap and requires the same
// key, as peekKey and peekAt announced it beforehand.
func popBoth(t *testing.T, h *queueHarness, ref *heapQueue) eventKey {
	t.Helper()
	peek, ok := h.q.peekKey()
	next, _ := h.q.peekAt()
	at, _ := h.q.pop()
	want := ref.pop().key
	if !ok || peek != want || next != want.at || at != want.at {
		t.Fatalf("queue peeked %+v (%v, at %d) and popped at %d, heap popped %+v", peek, ok, next, at, want)
	}
	return want
}

// TestQueueMatchesHeap is the differential property test behind the
// queue's correctness claim: driven by the same stream of canonical-key
// pushes and pops — with the monotone time floor the engine enforces —
// the two-level queue and the reference heap must pop the identical
// sequence. The generator produces the shapes a machine does: four
// far-future timers parked on each of 64 domains and re-armed when they
// fire, same-instant bursts across many domains, anonymous (-1) events,
// out-of-order class-1 keys, domains that empty and refill (the
// timerless trials, and every full drain), and a final stretch a few
// ticks short of Forever.
func TestQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 24; trial++ {
		h, ref := newQueueHarness(), &heapQueue{}
		seen := make(map[eventKey]bool)
		var floor Time
		var seq uint64
		ahead := func(jump Time) Time { // saturating: the last stretch runs into Forever
			if jump > Forever-floor {
				return Forever
			}
			return floor + jump
		}
		push := func(at Time, domain int32, class uint8) {
			seq++
			key := eventKey{at: at, domain: domain, class: class, k1: seq}
			if class == 1 { // keyed by sender: k1 arrives out of order
				key.k1, key.k2 = uint64(rng.Intn(64)), uint64(rng.Intn(8))
			}
			if seen[key] {
				return // domains never reuse a canonical key
			}
			seen[key] = true
			h.push(event{key: key})
			ref.push(event{key: key})
		}
		rearm := true // until the final drain
		pop := func() {
			key := popBoth(t, h, ref)
			if key.at < floor {
				t.Fatalf("trial %d: pop regressed to %d below floor %d", trial, key.at, floor)
			}
			floor = key.at
			if rearm && key.class == 0 && key.at%Millisecond == Time(key.domain+1) {
				push(key.at+Millisecond, key.domain, 0) // a timer re-arms
			}
		}
		if trial%3 != 0 {
			for i := 0; i < 256; i++ {
				d := int32(i % 64)
				push(Time(1+i/64)*Millisecond+Time(d+1), d, 0)
			}
		}
		run := func(ops int) {
			for op := 0; op < ops; op++ {
				switch r := rng.Intn(10); {
				case r < 4 && h.q.len() > 0:
					for n := 1 + rng.Intn(30); n > 0 && h.q.len() > 0; n-- {
						pop()
					}
				case r < 7: // one instant, many domains
					at := ahead(Time(rng.Intn(400)))
					for n := 1 + rng.Intn(40); n > 0; n-- {
						push(at, int32(rng.Intn(65))-1, uint8(rng.Intn(2)))
					}
				case r < 9: // one domain, a spread of instants
					d := int32(rng.Intn(65)) - 1
					for n := 1 + rng.Intn(40); n > 0; n-- {
						push(ahead(Time(rng.Intn(4096))), d, uint8(rng.Intn(2)))
					}
				default: // a far jump
					push(ahead(Time(rng.Int63n(1<<40))), int32(rng.Intn(65))-1, 0)
				}
				if op%64 == 0 {
					h.check(t)
				}
			}
			for rearm = false; h.q.len() > 0; {
				pop()
			}
			h.check(t)
		}
		run(600)
		floor = Forever - 1<<21
		push(Forever, -1, 0)
		push(Forever, 63, 1)
		push(Forever-1, 0, 0)
		run(200)
		if _, ok := h.q.peekKey(); ok || ref.len() != 0 {
			t.Fatalf("trial %d: queues not empty after drain: queue %d, heap %d", trial, h.q.len(), ref.len())
		}
	}
}

// tag is a comparable payload naming its event, so a cancel can find it.
type tag struct{ key eventKey }

func (*tag) Run()             {}
func (*tag) EventDesc() *Desc { return nil }

// FuzzQueueOrder drives the queue with fuzz-chosen pushes, pops and
// cancels and checks the pop order against the reference heap. The
// first byte picks the starting instant (up to a few ticks short of
// Forever); after it a zero byte pops, 0xf0 cancels a pending event —
// the newest and the oldest in turn, so both a buried event and one at
// or near its domain's head go — and any other byte pushes: the high
// nibble scales the timestamp jump exponentially (0 keeps a burst at one
// instant), the low bits and the push count spread the events over 64
// domains and the anonymous one.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x00, 0x7f, 0xff, 0x00, 0x00})
	// One instant across many domains, drained, then the same again: a
	// burst per chip, every domain emptying and refilling.
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x0f, 0x0e, 0x0d, 0x0c, 0x0b, 0x00, 0x00, 0x00, 0x00, 0x00})
	// Far timers parked behind near traffic.
	f.Add([]byte{0x01, 0xa1, 0xa2, 0xa3, 0xa4, 0x11, 0x12, 0x00, 0x13, 0x00, 0x00, 0x21, 0x00, 0x00, 0x00, 0x00})
	// A chain of maximal jumps from the highest anchor saturates at Forever.
	f.Add([]byte{0x03, 0xf1, 0x00, 0xf2, 0x00, 0xf3, 0xf4, 0xff, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00})
	// Pushes land on domain 1 every fifth push: a pop from it, then four
	// pushes elsewhere and one that fills the hole the pop left, three
	// times over.
	f.Add([]byte{0x00, 0x19, 0x50, 0x50, 0x50, 0x50, 0x2c, 0x00, 0x50, 0x50, 0x50, 0x50, 0x18,
		0x00, 0x60, 0x60, 0x60, 0x60, 0x11, 0x00, 0x00, 0x00})
	// Cancels while a hole is pending: of the holed domain's last event,
	// then of an event on another domain.
	f.Add([]byte{0x00, 0x19, 0x50, 0x50, 0x50, 0x50, 0x2c, 0x00, 0xf0, 0x50, 0x50, 0x50, 0x50, 0x25,
		0x00, 0xf0, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		anchors := [4]Time{0, 1 << 40, 1 << 62, Forever - 1<<21}
		floor := anchors[data[0]&3]
		h, ref := newQueueHarness(), &heapQueue{}
		var seq uint64
		var pushed []*tag // in push order, popped and cancelled ones included
		gone := make(map[eventKey]bool)
		cancels := 0
		cancel := func() {
			for len(pushed) > 0 {
				var tg *tag
				if cancels%2 == 0 {
					tg, pushed = pushed[len(pushed)-1], pushed[:len(pushed)-1]
				} else {
					tg, pushed = pushed[0], pushed[1:]
				}
				d := h.doms[tg.key.domain]
				if gone[tg.key] {
					if h.q.cancel(d, tg) {
						t.Fatalf("cancelled %+v, which is no longer pending", tg.key)
					}
					continue
				}
				gone[tg.key] = true
				cancels++
				if !h.q.cancel(d, tg) || !ref.cancel(tg.key) {
					t.Fatalf("pending event %+v could not be cancelled", tg.key)
				}
				h.check(t)
				return
			}
		}
		for _, b := range data[1:] {
			if b == 0 {
				if h.q.len() > 0 {
					key := popBoth(t, h, ref)
					floor, gone[key] = key.at, true
				}
				continue
			}
			if b == 0xf0 {
				cancel()
				continue
			}
			at := floor
			if exp := uint(b >> 4); exp > 0 {
				at += Time(uint64(b&0x0f+1) << (3 * exp))
			}
			if at < floor {
				at = Forever
			}
			seq++
			key := eventKey{at: at, domain: int32((uint64(b)*5+seq*7)%65) - 1, class: b & 1, k1: seq}
			tg := &tag{key}
			pushed = append(pushed, tg)
			h.push(event{key: key, payload: tg})
			ref.push(event{key: key, payload: tg})
		}
		h.check(t)
		for h.q.len() > 0 {
			popBoth(t, h, ref)
		}
		h.check(t)
		if ref.len() != 0 {
			t.Fatalf("heap retains %d events after the queue drained", ref.len())
		}
	})
}

// TestHeapMergePermutationInvariant pins the property the barrier
// mailboxes depend on: a heap loaded with the same event set in any
// insertion order — including split across two heaps that are then
// merged — pops the identical sequence.
func TestHeapMergePermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := make([]event, 200)
	for i := range events {
		events[i] = event{key: randomKey(rng)}
	}
	// Duplicate keys cannot occur in a real engine (domains stamp unique
	// sequences); dedupe so "identical pop order" is well-defined.
	sort.Slice(events, func(i, j int) bool { return events[i].key.less(events[j].key) })
	uniq := events[:0]
	for i, e := range events {
		if i == 0 || events[i-1].key != e.key {
			uniq = append(uniq, e)
		}
	}
	events = uniq

	drain := func(hs ...*eventHeap) []eventKey {
		// Merge by repeatedly popping the least head — exactly how the
		// parallel engine's sequential mode consumes shard heaps.
		var out []eventKey
		for {
			best := -1
			for i, h := range hs {
				if h.Len() == 0 {
					continue
				}
				if best < 0 || (*h)[0].key.less((*hs[best])[0].key) {
					best = i
				}
			}
			if best < 0 {
				return out
			}
			out = append(out, heap.Pop(hs[best]).(event).key)
		}
	}

	var ref []eventKey
	for trial := 0; trial < 8; trial++ {
		perm := rng.Perm(len(events))
		// Alternate between one heap and a random two-way split.
		var a, b eventHeap
		for k, idx := range perm {
			if trial%2 == 0 || rng.Intn(2) == 0 {
				heap.Push(&a, events[idx])
			} else {
				heap.Push(&b, events[idx])
			}
			_ = k
		}
		got := drain(&a, &b)
		if trial == 0 {
			ref = got
			for i := 1; i < len(ref); i++ {
				if !ref[i-1].less(ref[i]) {
					t.Fatalf("merged drain not sorted at %d: %+v then %+v", i, ref[i-1], ref[i])
				}
			}
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("trial %d drained %d events, want %d", trial, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("trial %d diverged at %d: %+v vs %+v", trial, i, got[i], ref[i])
			}
		}
	}
}
