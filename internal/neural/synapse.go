package neural

import (
	"fmt"
	"slices"

	"spinngo/internal/snap"
)

// SynWord is one packed synapse, in the layout SpiNNaker kernels use so
// a whole row fits a DMA burst:
//
//	bits 31..16  weight   (unsigned 16-bit, fixed-point scaled)
//	bits 15..13  unused
//	bit  12      inhibitory flag
//	bits 11..8   delay    (1..15 ticks)
//	bits  7..0   target neuron index within the core's population slice
//
// The 4-bit delay field is why axonal delays above 15 ms need the
// deferred-event ring to be sized accordingly (section 3.2: delay
// re-insertion is "one of the most expensive functions ... in terms of
// the cost of data storage").
type SynWord uint32

// MaxSynDelay is the largest representable delay in ticks.
const MaxSynDelay = 15

// MaxRowTargets is the largest target index per core.
const MaxRowTargets = 256

// MakeSynWord packs a synapse. It panics on out-of-range fields, which
// indicate a toolchain bug, not a runtime condition.
func MakeSynWord(weight uint16, delay int, inhibitory bool, target int) SynWord {
	if delay < 1 || delay > MaxSynDelay {
		panic(fmt.Sprintf("neural: synapse delay %d out of range 1..%d", delay, MaxSynDelay))
	}
	if target < 0 || target >= MaxRowTargets {
		panic(fmt.Sprintf("neural: synapse target %d out of range", target))
	}
	w := SynWord(weight) << 16
	if inhibitory {
		w |= 1 << 12
	}
	w |= SynWord(delay&0xf) << 8
	w |= SynWord(target & 0xff)
	return w
}

// Weight reports the unsigned weight field.
func (w SynWord) Weight() uint16 { return uint16(w >> 16) }

// Delay reports the delay in ticks.
func (w SynWord) Delay() int { return int(w>>8) & 0xf }

// Inhibitory reports the sign flag.
func (w SynWord) Inhibitory() bool { return w&(1<<12) != 0 }

// Target reports the target neuron index within the core.
func (w SynWord) Target() int { return int(w & 0xff) }

// WeightFix converts the weight field to a signed fixed-point current:
// the stored 16-bit weight is an integer count of `scale` units (e.g.
// scale = 1/256 nA), so the current is weight * scale.
func (w SynWord) WeightFix(scale Fix) Fix {
	v64 := int64(w.Weight()) * int64(scale)
	if v64 > int64(1<<31-1) {
		v64 = 1<<31 - 1
	}
	v := Fix(v64)
	if w.Inhibitory() {
		return -v
	}
	return v
}

// Row is the synaptic row for one presynaptic neuron: every synapse it
// makes onto neurons resident on one core. Rows live in SDRAM and are
// DMA-ed into DTCM when that neuron's spike packet arrives (Fig 7).
type Row []SynWord

// SizeBytes reports the DMA transfer size for the row.
func (r Row) SizeBytes() int { return 4 * len(r) }

// Matrix is a core's synaptic store: row per presynaptic key. It models
// the SDRAM-resident connectivity block of section 5.3: every row's
// synapses sit back to back in one arena, and one packed open-addressed
// table says where. A slot holds everything about its row but the
// words — key, extent, plastic flag — so the packet handler, which only
// needs the row's size to launch its DMA and finds no row at all for
// most keys, reads one table line per packet and nothing else; the
// DMA-done handler goes from the slot straight to the words.
type Matrix struct {
	slots []rowSlot // linear probing; a power of two long, at most half full
	shift uint8     // 32 - log2(len(slots)): the hash keeps the product's high bits
	rows  int
	words []SynWord // the rows' synapses, each row contiguous
	// Bytes tracks total storage, checked against the SDRAM share.
	Bytes int
}

// rowSlot is one table entry: the row of key occupies words[off:off+n].
// The zero slot is an empty one.
type rowSlot struct {
	key   uint32
	off   uint32
	n     uint32
	flags uint32
}

const (
	slotUsed    = 1 << iota // the slot holds a row (possibly an empty one)
	slotPlastic             // the row is subject to STDP
)

// NewMatrix returns an empty synaptic store.
func NewMatrix() *Matrix { return &Matrix{slots: make([]rowSlot, 8), shift: 32 - 3} }

// slot returns the slot holding key, or the empty one it would take.
func (m *Matrix) slot(key uint32) *rowSlot {
	mask := uint32(len(m.slots) - 1)
	for i := key * 0x9E3779B1 >> m.shift; ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.flags == 0 || s.key == key {
			return s
		}
	}
}

// Reserve sizes the table for rows rows and the arena for words synapses
// in one step, so a store whose final shape is known up front is built
// without regrowth or slack.
func (m *Matrix) Reserve(rows, words int) {
	for 2*rows > len(m.slots) {
		m.grow()
	}
	m.words = slices.Grow(m.words, words)
}

// grow doubles the table and re-seats every row's slot.
func (m *Matrix) grow() {
	old := m.slots
	m.slots = make([]rowSlot, 2*len(old))
	m.shift--
	for _, o := range old {
		if o.flags != 0 {
			*m.slot(o.key) = o
		}
	}
}

// resize makes room for n synapses under key and returns them for the
// caller to fill. A key seen before keeps its flags; its row keeps its
// place in the arena unless it grows, in which case it moves to the end
// and the old extent is left behind (rows are resized when a snapshot
// of a differently shaped build is overlaid, not in the steady state).
func (m *Matrix) resize(key uint32, n int) Row {
	s := m.slot(key)
	if s.flags == 0 {
		if 2*(m.rows+1) > len(m.slots) {
			m.grow()
			s = m.slot(key)
		}
		m.rows++
		*s = rowSlot{key: key, off: uint32(len(m.words)), flags: slotUsed}
	}
	if uint32(n) > s.n {
		s.off = uint32(len(m.words))
		m.words = append(m.words, make([]SynWord, n)...)
	}
	m.Bytes += 4 * (n - int(s.n))
	s.n = uint32(n)
	return m.words[s.off : s.off+s.n : s.off+s.n]
}

// AddRow installs a copy of row under a presynaptic routing key,
// replacing any row already stored under it.
func (m *Matrix) AddRow(key uint32, row Row) { copy(m.resize(key, len(row)), row) }

// SetPlastic marks the row stored under key as subject to STDP; the
// mark outlives any later replacement of the row.
func (m *Matrix) SetPlastic(key uint32) {
	if s := m.slot(key); s.flags != 0 {
		s.flags |= slotPlastic
	}
}

// RowBytes reports the DMA transfer size of the row for a key — all the
// packet handler needs, and all of it in the table slot.
func (m *Matrix) RowBytes(key uint32) (int, bool) {
	s := m.slot(key)
	return 4 * int(s.n), s.flags != 0
}

// Lookup fetches the row for a key, aliasing the store (STDP updates the
// weights in place), and whether it is plastic.
func (m *Matrix) Lookup(key uint32) (row Row, plastic, ok bool) {
	s := m.slot(key)
	if s.flags == 0 {
		return nil, false, false
	}
	return m.words[s.off : s.off+s.n : s.off+s.n], s.flags&slotPlastic != 0, true
}

// Row is Lookup without the plastic flag.
func (m *Matrix) Row(key uint32) (Row, bool) {
	row, _, ok := m.Lookup(key)
	return row, ok
}

// NumRows reports the number of stored rows.
func (m *Matrix) NumRows() int { return m.rows }

// Snap codes every stored row in ascending key order; decoding writes
// each recorded row over the rebuilt one, in place when the shapes agree
// (they do whenever the image and the rebuild come from the same
// network), and rejects a synapse whose target is not one of the
// population's neurons (row processing indexes per-neuron arrays by it).
// The plastic marks are the rebuild's: they are a property of the
// network, which the image carries separately.
func (m *Matrix) Snap(c *snap.Codec, neurons int) {
	keys := m.Keys()
	snap.Slice(c, &keys)
	for i := 0; i < len(keys) && c.Err() == nil; i++ {
		c.U32(&keys[i])
		row, _ := m.Row(keys[i])
		if n := c.Len(len(row)); c.Decoding() {
			row = m.resize(keys[i], n)
		}
		for j := range row {
			c.U32((*uint32)(&row[j]))
			if c.Decoding() && row[j].Target() >= neurons {
				c.Fail(fmt.Errorf("neural: row %#x synapse %d targets neuron %d of %d", keys[i], j, row[j].Target(), neurons))
			}
		}
	}
}

// Keys lists the stored presynaptic keys in ascending order. The order
// is part of the determinism contract: callers fold floating-point
// sums over it (mean weights), and table order would make those
// observables depend on the table's size history.
func (m *Matrix) Keys() []uint32 {
	out := make([]uint32, 0, m.rows)
	for _, s := range m.slots {
		if s.flags != 0 {
			out = append(out, s.key)
		}
	}
	slices.Sort(out)
	return out
}

// InputRing is the deferred-event buffer (section 3.2): synaptic input
// scheduled for future ticks accumulates in ring slots; slot (tick+d) %
// size gathers everything due d ticks from now. Advance returns and
// clears the current slot.
//
// One accumulator per neuron per slot; excitatory and inhibitory inputs
// share the accumulator with signed weights.
type InputRing struct {
	slots   [][]Fix
	neurons int
	cur     int
	// Dropped counts deposits with delays beyond the ring (lost input).
	Dropped uint64
}

// NewInputRing sizes a ring for the given neuron count and maximum delay
// in ticks (ring holds maxDelay+1 slots so delay maxDelay is exact).
func NewInputRing(neurons, maxDelay int) *InputRing {
	if neurons <= 0 || maxDelay < 1 {
		panic("neural: invalid ring shape")
	}
	r := &InputRing{neurons: neurons, slots: make([][]Fix, maxDelay+1)}
	for i := range r.slots {
		r.slots[i] = make([]Fix, neurons)
	}
	return r
}

// Slots reports the ring depth.
func (r *InputRing) Slots() int { return len(r.slots) }

// Deposit adds weight w to the accumulator of neuron due in delay ticks
// (delay >= 1: input lands on a future tick, never the current one).
func (r *InputRing) Deposit(delay, neuron int, w Fix) {
	if delay < 1 || delay >= len(r.slots) {
		r.Dropped++
		return
	}
	r.slots[(r.cur+delay)%len(r.slots)][neuron] += w
}

// Advance moves to the next tick, returning the inputs due now. The
// returned slice is valid until the ring wraps back to this slot; the
// caller consumes it immediately (as the timer handler does).
func (r *InputRing) Advance() []Fix {
	r.cur = (r.cur + 1) % len(r.slots)
	slot := r.slots[r.cur]
	return slot
}

// ClearCurrent zeroes the just-consumed slot; call after using the slice
// from Advance.
func (r *InputRing) ClearCurrent() {
	slot := r.slots[r.cur]
	for i := range slot {
		slot[i] = 0
	}
}

// Snap codes the ring's dynamic state — the slot accumulators in storage
// order plus the cursor — onto a ring of the same shape.
func (r *InputRing) Snap(c *snap.Codec) {
	c.Int(&r.cur)
	c.U64(&r.Dropped)
	if !c.FixedLen(len(r.slots), "input ring slots") {
		return
	}
	for _, slot := range r.slots {
		if !c.FixedLen(len(slot), "input ring slot neurons") {
			return
		}
		for j := range slot {
			c.I32((*int32)(&slot[j]))
		}
	}
	if c.Decoding() && (r.cur < 0 || r.cur >= len(r.slots)) {
		c.Fail(fmt.Errorf("neural: ring cursor %d outside %d slots", r.cur, len(r.slots)))
	}
}
