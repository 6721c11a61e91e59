package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

// The canonical (time, domain, class, k1, k2) key is the invariant every
// determinism test in the repo silently relies on: if it were not a
// strict total order, or if heap merges were sensitive to insertion
// order, "byte-identical for every worker count" would be luck rather
// than a property. These tests pin it directly.

// heapQueue is the reference pending-event structure: the binary heap
// the engine shipped with before the calendar queue replaced it. Its
// correctness is easy to see, so the differential tests below hold
// calQueue to its pop order.
type heapQueue struct{ h eventHeap }

func (q *heapQueue) len() int      { return len(q.h) }
func (q *heapQueue) push(ev event) { heap.Push(&q.h, ev) }
func (q *heapQueue) pop() event    { return heap.Pop(&q.h).(event) }

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

// TestHeapMergePermutationInvariant pins the property the barrier
// mailboxes depend on: a heap loaded with the same event set in any
// insertion order — including split across two heaps that are then
// merged, the shape of a re-partition migration — pops the identical
// sequence.
// TestCalendarQueueMatchesHeap is the differential property test behind
// the wheel's correctness claim: driven by the same randomized stream
// of canonical-key pushes and pops — with the monotone time floor the
// engine enforces, and occasional year-scale jumps that force bucket
// rollover — the calendar queue and the reference heap must pop the
// identical event sequence.
func TestCalendarQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		wheel := &calQueue{minIdx: -1}
		ref := &heapQueue{}
		seen := make(map[eventKey]bool)
		var floor Time
		pending := 0
		for op := 0; op < 4000; op++ {
			if pending > 0 && rng.Intn(3) == 0 {
				a, b := wheel.pop(), ref.pop()
				if a.key != b.key {
					t.Fatalf("trial %d op %d: wheel popped %+v, heap popped %+v", trial, op, a.key, b.key)
				}
				floor = a.key.at
				pending--
				continue
			}
			// Jumps span the wheel's regimes: same-bucket ties, nearby
			// slots, multi-year leaps that trigger the rotation fallback.
			var jump Time
			switch rng.Intn(10) {
			case 0:
				jump = 0
			case 1, 2, 3, 4, 5:
				jump = Time(rng.Intn(64))
			case 6, 7:
				jump = Time(rng.Intn(4096))
			case 8:
				jump = Time(rng.Intn(1 << 20))
			case 9:
				jump = Time(rng.Int63n(1 << 40))
			}
			key := eventKey{
				at:     floor + jump,
				domain: int32(rng.Intn(4)) - 1,
				class:  uint8(rng.Intn(2)),
				k1:     uint64(rng.Intn(4)),
				k2:     uint64(rng.Intn(4)),
			}
			if seen[key] {
				continue // domains never reuse a canonical key
			}
			seen[key] = true
			wheel.push(event{key: key})
			ref.push(event{key: key})
			pending++
		}
		for pending > 0 {
			a, b := wheel.pop(), ref.pop()
			if a.key != b.key {
				t.Fatalf("trial %d drain: wheel popped %+v, heap popped %+v", trial, a.key, b.key)
			}
			pending--
		}
		if wheel.len() != 0 || ref.len() != 0 {
			t.Fatalf("trial %d: queues not empty after drain: wheel %d, heap %d", trial, wheel.len(), ref.len())
		}
	}
}

// FuzzCalendarQueueRollover drives the wheel with fuzz-chosen timestamp
// deltas — the seeds pin year-boundary rollovers and jumps far beyond a
// full bucket rotation — and checks the pop order against the reference
// heap. Each input byte pair encodes one push (delta exponent + tie
// fields); a zero byte pops.
func FuzzCalendarQueueRollover(f *testing.F) {
	f.Add([]byte{0x11, 0x22, 0x00, 0x7f, 0xff, 0x00, 0x00})
	// One push per slot width, then a jump past a whole rotation
	// (calMinBuckets*calInitWidth = 1024 ns) and another past 2^40.
	f.Add([]byte{0x31, 0x32, 0x33, 0x34, 0xa1, 0x00, 0x00, 0x00, 0xf1, 0x00})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0x00, 0xfc, 0x00, 0x01, 0x02, 0x00})
	// A chain of maximal jumps marches the floor ~2^51 ns out — dozens
	// of back-to-back rotation fallbacks at ever higher anchors.
	f.Add([]byte{0xf1, 0x00, 0xf2, 0x00, 0xf3, 0x00, 0xf4, 0x00, 0xf5, 0x00,
		0xf6, 0x00, 0xf7, 0x00, 0xf8, 0x01, 0x02, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		wheel := &calQueue{minIdx: -1}
		ref := &heapQueue{}
		seen := make(map[eventKey]bool)
		var floor Time
		var seq uint64
		for _, b := range data {
			if b == 0 {
				if wheel.len() == 0 {
					continue
				}
				a, r := wheel.pop(), ref.pop()
				if a.key != r.key {
					t.Fatalf("wheel popped %+v, heap popped %+v", a.key, r.key)
				}
				floor = a.key.at
				continue
			}
			// High nibble scales the jump exponentially: 0 keeps ties in
			// one slot, 15 leaps ~2^45 ns — thousands of rotations.
			exp := uint(b >> 4)
			jump := Time(0)
			if exp > 0 {
				jump = Time(uint64(b&0x0f+1) << (3 * exp))
			}
			seq++
			key := eventKey{at: floor + jump, domain: int32(b & 3), k1: seq}
			if seen[key] {
				continue
			}
			seen[key] = true
			wheel.push(event{key: key})
			ref.push(event{key: key})
		}
		for wheel.len() > 0 {
			a, r := wheel.pop(), ref.pop()
			if a.key != r.key {
				t.Fatalf("drain: wheel popped %+v, heap popped %+v", a.key, r.key)
			}
		}
		if ref.len() != 0 {
			t.Fatalf("heap retains %d events after wheel drained", ref.len())
		}
	})
}

// TestCalendarQueueResizeExtremes drives the wheel's resize and
// rotation machinery at the far end of the time axis, where arithmetic
// slips would hide: dense same-slot bursts force grow resizes whose
// derived width collapses to 1 ns, a sparse halo six orders of
// magnitude wider forces the next resize to re-derive a usable width
// from a huge span, and the drain between anchors crosses empty
// stretches the rotation fallback must leap — at anchors up to a few
// ticks short of Forever. The reference heap arbitrates every pop, and
// popped timestamps must never regress.
func TestCalendarQueueResizeExtremes(t *testing.T) {
	wheel := &calQueue{minIdx: -1}
	ref := &heapQueue{}
	rng := rand.New(rand.NewSource(23))
	seen := make(map[eventKey]bool)
	pending := 0
	var floor Time
	push := func(at Time, k1 uint64) {
		key := eventKey{
			at:     at,
			domain: int32(rng.Intn(4)) - 1,
			class:  uint8(rng.Intn(2)),
			k1:     k1,
			k2:     uint64(rng.Intn(4)),
		}
		if seen[key] {
			return
		}
		seen[key] = true
		wheel.push(event{key: key})
		ref.push(event{key: key})
		pending++
	}
	popN := func(n int) {
		for ; n > 0 && pending > 0; n-- {
			a, b := wheel.pop(), ref.pop()
			if a.key != b.key {
				t.Fatalf("floor %d: wheel popped %+v, heap popped %+v", floor, a.key, b.key)
			}
			if a.key.at < floor {
				t.Fatalf("pop regressed: %d after floor %d", a.key.at, floor)
			}
			floor = a.key.at
			pending--
		}
	}
	anchors := []Time{0, 1 << 20, 1 << 40, 1 << 55, 1 << 62, Forever - (1 << 21)}
	for _, anchor := range anchors {
		// A same-timestamp blast: one slot holds hundreds of full-key
		// ties across multiple grow resizes.
		for i := 0; i < 200; i++ {
			push(anchor, uint64(i))
		}
		// A dense burst over a handful of slots (spacing ~1 ns, so the
		// re-derived bucket width bottoms out at its 1 ns floor).
		for i := 0; i < 400; i++ {
			push(anchor+Time(rng.Intn(32)), uint64(rng.Intn(8)))
		}
		// A sparse halo ~2^20 ns wide: the next resize sees a span six
		// orders of magnitude above the burst spacing.
		for i := 0; i < 50; i++ {
			push(anchor+Time(rng.Int63n(1<<20)), uint64(rng.Intn(8)))
		}
		popN(pending / 2) // shrink resizes fire mid-drain
		popN(pending)     // full drain; next anchor needs the rotation fallback
	}
	if wheel.len() != 0 || ref.len() != 0 {
		t.Fatalf("queues not empty after drain: wheel %d, heap %d", wheel.len(), ref.len())
	}
}

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
