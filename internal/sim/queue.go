package sim

import (
	"math"
	"math/bits"
	"slices"
)

// The pending-event structure behind one Engine is shaped like the
// canonical key (at, domain, class, k1, k2) itself, in two levels:
//
//   - every Domain owns its pending events in a small heap ordered by
//     (at, class, k1, k2) — the domain field is the same for all of them
//     (the engine's anonymous events live in a Domain with id -1);
//   - the Engine keeps a tournament over its domains' head events,
//     ordered by (at, domain id).
//
// A machine's events are GALS like its chips: a few timers parked a
// millisecond out on every chip, and packet events a few hundred
// nanoseconds ahead arriving in same-instant bursts across many chips.
// Keyed by chip first, the far timers never stand in the way of a near
// insert (each list holds only one chip's handful of events), a burst
// at one instant is one leaf per chip in the tournament, and both levels
// stay O(log n) when one domain holds thousands of events.
//
// Pop order is exactly the canonical order under two invariants:
//
//  1. Per-domain heap: d.pend[0] is the least of d's events by
//     (at, class, k1, k2), so with the domain fixed it is d's least
//     canonical key — for every domain but late, whose d.pend[0] may be
//     the hole its last pop left, once settled for all.
//  2. Tournament: every inner node is the lesser of its two children
//     by (at, id), and leaf tree[leaves+d.slot] holds (d.pend[0].key.at,
//     d.id), or idle while d has nothing pending — for every domain but
//     late, once settled for all. Ids are unique per engine, so a
//     settled tree[1] names the domain whose head event is the global
//     minimum.
//
// A leaf changes in two ways, each with its own walk: after a pop the
// late domain's leaf only rises (raise), and a push giving another
// domain a new head only lowers that leaf (lower) — also across the
// late domain's stale path, which shows less than its truth until
// settle raises it.
//
// Events are stored by value in their domain's list and the lists keep
// their capacity, so a steady-state push/pop cycle allocates nothing.
type queue struct {
	doms   []*Domain // doms[i] plays on leaf i
	tree   []head    // 2*leaves nodes: tree[1] the winner, tree[leaves+i] leaf i
	leaves int       // a power of two >= len(doms)
	n      int
	// late is the domain last popped from, whose leaf still shows the
	// popped event and whose list may still hold its hole. Most events
	// schedule their successor on their own chip, so the successor fills
	// the hole and the leaf's raise waits for it: a pop and a push cost
	// one walk down the list and one up the tree. Neither the winner nor
	// late's list is read before settle has caught them up.
	late *Domain
}

// head is one tournament node: the ordering fields of a domain's first
// pending event and the leaf it came from.
type head struct {
	at   Time
	id   int32
	leaf int32
}

// idle is the leaf of a domain with nothing pending; it loses to every
// real head.
var idle = head{at: Forever, id: math.MaxInt32, leaf: -1}

func (a head) less(b head) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// min is the lesser of a and b by (at, id), a on a tie, chosen without a
// branch: (at, id+1) compared as one 128-bit unsigned number through a
// borrow chain, the borrow widened to a mask that selects the fields.
// id+1 maps the anonymous domain (-1) to 0 and idle (MaxInt32) to the
// top; at is never negative — the clock starts at 0, a push below now
// panics and RestoreClock refuses to go back — so unsigned order is
// time order.
func (a head) min(b head) head {
	_, borrow := bits.Sub64(uint64(b.id)+1, uint64(a.id)+1, 0)
	_, borrow = bits.Sub64(uint64(b.at), uint64(a.at), borrow)
	m := -borrow // all ones when b < a
	a.at ^= (a.at ^ b.at) & Time(m)
	a.id ^= (a.id ^ b.id) & int32(m)
	a.leaf ^= (a.leaf ^ b.leaf) & int32(m)
	return a
}

// before orders two events of one domain (the domain field is skipped).
func (a *eventKey) before(b *eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	return a.k2 < b.k2
}

// add inserts ev into the domain's list and reports whether it became
// the head.
func (d *Domain) add(ev event) bool {
	h := append(d.pend, ev)
	d.pend = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.key.before(&h[p].key) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	return i == 0
}

// take pops the domain's head event and returns its instant and payload
// (two registers' worth), keeping the rest of the key that Passed needs.
// The head's slot stays behind as a hole: most events schedule their
// successor on their own domain, and fill drops that push straight into
// the hole; settle removes a hole nothing filled.
func (d *Domain) take() (Time, Payload) {
	h := &d.pend[0]
	at, payload := h.key.at, h.payload
	d.runClass, d.runK1 = h.key.class, h.key.k1
	h.payload = nil // release the payload reference
	d.hole = true
	return at, payload
}

// fill puts ev into the hole at the root of the domain's list, where a
// pop and a push would each have walked the list.
func (d *Domain) fill(ev event) {
	d.hole = false
	sink(d.pend, ev)
}

// unhole removes a hole nothing filled: the list's last event fills it.
func (d *Domain) unhole() {
	d.hole = false
	h := d.pend
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the payload reference
	h = h[:n]
	d.pend = h
	if n > 0 {
		sink(h, last)
	}
}

// sink puts ev into the hole at the root of h bottom-up: it walks the
// hole down the lesser-child path to a leaf, then lifts ev from there.
// ev nearly always belongs near the bottom — a successor is scheduled
// past most of what is pending, and the last event came from there — so
// this costs one comparison a level where a sift-down costs two.
func sink(h []event, ev event) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			// The timestamps nearly always decide, and deciding them
			// without a branch spares a long list a misprediction a level.
			l, r := &h[c].key, &h[c+1].key
			b := 0
			if r.at < l.at {
				b = 1
			}
			if r.at == l.at && r.before(l) {
				b = 1
			}
			c += b
		}
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !ev.key.before(&h[p].key) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// remove deletes the event at index i of the domain's list: last fills
// the hole and moves up or down to where it belongs.
func (d *Domain) remove(i int) {
	h := d.pend
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the payload reference
	h = h[:n]
	d.pend = h
	if i == n {
		return
	}
	for i > 0 {
		p := (i - 1) / 2
		if !last.key.before(&h[p].key) {
			break
		}
		h[i] = h[p]
		i = p
	}
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].key.before(&h[c].key) {
			c++
		}
		if !h[c].key.before(&last.key) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
}

// cancel removes d's pending event carrying p, found by identity, and
// reports whether there was one. The leaf is rebuilt from the list's
// new head after every leaf is settled, so the walk reads exact
// siblings.
func (q *queue) cancel(d *Domain, p Payload) bool {
	q.settle()
	i := slices.IndexFunc(d.pend, func(ev event) bool { return ev.payload == p })
	if i < 0 {
		return false
	}
	d.remove(i)
	q.n--
	q.raise(d)
	return true
}

func (q *queue) len() int { return q.n }

// bind gives d, a new domain with nothing pending, a leaf of this
// engine's tournament. A fresh leaf is idle, as d's head is.
func (q *queue) bind(d *Domain) {
	d.slot = len(q.doms)
	q.doms = append(q.doms, d)
	if len(q.doms) <= q.leaves {
		return
	}
	// Out of leaves: double them and enter every head into an idle tree.
	q.leaves = max(1, 2*q.leaves)
	q.tree = make([]head, 2*q.leaves)
	for i := range q.tree {
		q.tree[i] = idle
	}
	for _, each := range q.doms {
		q.lower(each)
	}
}

// top is the leaf d's pending list calls for.
func (d *Domain) top() head {
	if len(d.pend) == 0 {
		return idle
	}
	return head{at: d.pend[0].key.at, id: d.id, leaf: int32(d.slot)}
}

// raise brings d's leaf up to its list after a pop and rebuilds every
// node above it from its two children, with no per-level branch.
func (q *queue) raise(d *Domain) {
	h := d.top()
	i := q.leaves + d.slot
	if q.tree[i] == h {
		return // the next event is at the same instant
	}
	for ; i > 1; i >>= 1 {
		q.tree[i] = h
		h = h.min(q.tree[i^1])
	}
	q.tree[1] = h
}

// lower enters d's head after it came no later than the leaf shows: a
// node's new value is the lesser of it and the head, so the climb ends
// at the first node the head does not beat and reads no sibling.
func (q *queue) lower(d *Domain) {
	h := d.top()
	for i := q.leaves + d.slot; i > 0 && h.less(q.tree[i]); i >>= 1 {
		q.tree[i] = h
	}
}

// settle removes the late domain's hole if nothing filled it and brings
// its leaf up to date. Whatever reads a pending list settles first.
func (q *queue) settle() {
	if q.late != nil {
		q.catchUp()
	}
}

// catchUp is settle's work, out of line so that settle inlines.
func (q *queue) catchUp() {
	d := q.late
	if d.hole {
		d.unhole()
	}
	q.raise(d)
	q.late = nil
}

// push schedules ev, whose key.domain must be d.id, on d's list. Only the
// late domain has a hole, and its leaf waits for settle.
func (q *queue) push(d *Domain, ev event) {
	q.n++
	if d.hole {
		d.fill(ev)
		return
	}
	if d.add(ev) && d != q.late {
		q.lower(d)
	}
}

// peekAt reports the instant of the least pending event.
func (q *queue) peekAt() (Time, bool) {
	if q.n == 0 {
		return 0, false
	}
	q.settle()
	return q.tree[1].at, true
}

// pop removes the least pending event and returns its instant and
// payload. It panics when the queue is empty.
func (q *queue) pop() (Time, Payload) {
	if q.n == 0 {
		panic("sim: pop from empty event queue")
	}
	q.settle()
	d := q.doms[q.tree[1].leaf]
	q.late = d
	q.n--
	return d.take()
}

// forEach visits every pending event in unspecified order; used for
// snapshot export and ownership audits. The pointer is valid only
// during the call.
func (q *queue) forEach(fn func(*event)) {
	q.settle()
	for _, d := range q.doms {
		for i := range d.pend {
			fn(&d.pend[i])
		}
	}
}

// reset drops all pending events and releases their payloads.
func (q *queue) reset() {
	q.settle()
	for _, d := range q.doms {
		clear(d.pend)
		d.pend = d.pend[:0]
	}
	for i := range q.tree {
		q.tree[i] = idle
	}
	q.n = 0
}
