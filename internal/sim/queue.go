package sim

const (
	calMinBuckets = 16
	calMaxBuckets = 1 << 16
	calInitWidth  = 64 // ns per bucket before the first adaptive resize
)

// calQueue is the pending-event structure behind one Engine: a calendar
// queue (Brown 1988) tuned for the simulator's dense, nearly-monotone
// event streams, popping in exactly the canonical (time, domain, class,
// k1, k2) order. It is a power-of-two array of buckets, each a
// key-sorted slice of slab indices, with bucket i covering the time
// slots congruent to i modulo the bucket count.
// Event records live in a slab recycled through a free list, so a
// steady-state push/pop cycle allocates nothing. Finding the minimum
// walks one "year" of slots starting at the last popped timestamp —
// amortised O(1) when the bucket width tracks the mean event spacing —
// and falls back to a direct scan of bucket heads (each head is its
// bucket's minimum) when a rotation finds nothing, which is what makes
// large time jumps safe rather than slow.
//
// Correctness leans on two invariants. First, scanAt is a lower bound
// on every pending timestamp: pops set it to the popped time (all
// remaining keys sort after), and a push below it rewinds it. Second,
// equal timestamps always share a bucket (the slot is a function of the
// timestamp alone), so the first slot in scan order that holds an
// in-slot head holds the global minimum, full-key ties included.
type calQueue struct {
	slab    []event
	free    []int32
	buckets [][]int32
	mask    uint64
	width   uint64
	n       int
	scanAt  Time  // lower bound on pending timestamps; scan origin
	maxAt   Time  // highest timestamp ever pushed (resize heuristic)
	minIdx  int32 // slab index of the cached minimum, -1 when unknown
}

func newCalQueue() calQueue { return calQueue{minIdx: -1} }

func (q *calQueue) len() int { return q.n }

func (q *calQueue) push(ev event) {
	if q.buckets == nil {
		q.buckets = make([][]int32, calMinBuckets)
		q.mask = calMinBuckets - 1
		q.width = calInitWidth
	}
	var idx int32
	if k := len(q.free); k > 0 {
		idx = q.free[k-1]
		q.free = q.free[:k-1]
	} else {
		q.slab = append(q.slab, event{})
		idx = int32(len(q.slab) - 1)
	}
	q.slab[idx] = ev
	q.insert(idx)
	q.n++
	if ev.key.at > q.maxAt {
		q.maxAt = ev.key.at
	}
	if ev.key.at < q.scanAt {
		q.scanAt = ev.key.at
	}
	if q.minIdx >= 0 && ev.key.less(q.slab[q.minIdx].key) {
		q.minIdx = idx
	}
	if q.n > 2*len(q.buckets) && len(q.buckets) < calMaxBuckets {
		q.resize(2 * len(q.buckets))
	}
}

// insert places a live slab index into its bucket, keeping the bucket
// sorted by full canonical key.
func (q *calQueue) insert(idx int32) {
	key := q.slab[idx].key
	b := (uint64(key.at) / q.width) & q.mask
	bk := q.buckets[b]
	lo, hi := 0, len(bk)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.slab[bk[mid]].key.less(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	bk = append(bk, 0)
	copy(bk[lo+1:], bk[lo:])
	bk[lo] = idx
	q.buckets[b] = bk
}

// peekKey reports the canonical key of the least pending event.
func (q *calQueue) peekKey() (eventKey, bool) {
	if q.n == 0 {
		return eventKey{}, false
	}
	if q.minIdx < 0 {
		q.findMin()
	}
	return q.slab[q.minIdx].key, true
}

// findMin locates the least pending event. One year of slots is walked
// from the slot containing scanAt; since every pending timestamp is
// >= scanAt, the first slot whose bucket head lies in that slot holds
// the minimum (a head in a later slot means its whole bucket is later).
// If a full rotation finds nothing — the next event is more than a year
// ahead — the minimum is taken directly over bucket heads.
func (q *calQueue) findMin() {
	nb := uint64(len(q.buckets))
	start := uint64(q.scanAt) / q.width
	for i := uint64(0); i < nb; i++ {
		slot := start + i
		bk := q.buckets[slot&q.mask]
		if len(bk) == 0 {
			continue
		}
		if uint64(q.slab[bk[0]].key.at)/q.width == slot {
			q.minIdx = bk[0]
			return
		}
	}
	best := int32(-1)
	for _, bk := range q.buckets {
		if len(bk) == 0 {
			continue
		}
		if best < 0 || q.slab[bk[0]].key.less(q.slab[best].key) {
			best = bk[0]
		}
	}
	q.minIdx = best
}

// pop removes and returns the least pending event. It panics when the
// queue is empty.
func (q *calQueue) pop() event {
	if q.n == 0 {
		panic("sim: pop from empty event queue")
	}
	if q.minIdx < 0 {
		q.findMin()
	}
	idx := q.minIdx
	ev := q.slab[idx]
	// The global minimum is necessarily the head of its bucket.
	b := (uint64(ev.key.at) / q.width) & q.mask
	bk := q.buckets[b]
	copy(bk, bk[1:])
	q.buckets[b] = bk[:len(bk)-1]
	q.slab[idx] = event{} // release the payload reference
	q.free = append(q.free, idx)
	q.n--
	q.minIdx = -1
	q.scanAt = ev.key.at
	if q.n < len(q.buckets)/2 && len(q.buckets) > calMinBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return ev
}

// resize rebuilds the bucket array at the new count and re-derives the
// bucket width from the live span: pending events occupy roughly
// [scanAt, maxAt], so span/(n+1) approximates the mean event spacing —
// the width at which the year scan terminates in O(1) slots.
func (q *calQueue) resize(nb int) {
	span := uint64(q.maxAt-q.scanAt) + 1
	w := span / uint64(q.n+1)
	if w < 1 {
		w = 1
	}
	old := q.buckets
	q.buckets = make([][]int32, nb)
	q.mask = uint64(nb - 1)
	q.width = w
	for _, bk := range old {
		for _, idx := range bk {
			q.insert(idx)
		}
	}
}

// forEach visits every pending event in unspecified order; used for
// snapshot export, migration and ownership audits. The pointer is valid
// only during the call.
func (q *calQueue) forEach(fn func(*event)) {
	for _, bk := range q.buckets {
		for _, idx := range bk {
			fn(&q.slab[idx])
		}
	}
}

// reset drops all pending events and releases their payloads.
func (q *calQueue) reset() {
	for i := range q.slab {
		q.slab[i] = event{}
	}
	q.slab = q.slab[:0]
	q.free = q.free[:0]
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.n = 0
	q.minIdx = -1
	q.scanAt = 0
	q.maxAt = 0
}
