package neural

import (
	"cmp"
	"fmt"
	"math/bits"
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
// the SDRAM-resident connectivity block of section 5.3: the rows sit back
// to back in one arena in ascending key order, so a row is known by its
// rank, and row r is words[offs[r]:offs[r+1]].
//
// The index is a small open-addressed table with one entry per 64-key
// block that holds a row: the block's presence bits and the rank of its
// first row. Routing is per fragment, so nearly every key a core hears
// lands in a block it holds; the packet handler, which finds no row for
// most keys, reads one bit of a table small enough to stay in cache
// (a 16-byte entry covers up to 64 rows), and a hit's rank is the block's
// base plus a popcount of the bits below the key's.
type Matrix struct {
	blocks  []rowBlock // linear probing; a power of two long, at most ¾ full
	mask    uint32     // len(blocks) - 1
	shift   uint8      // 32 - log2(len(blocks)): the hash keeps the product's high bits
	used    int        // non-empty blocks
	offs    []uint32   // rows+1 arena offsets
	words   []SynWord  // the rows' synapses in key order, each row contiguous
	plastic []uint64   // bit r: row r is subject to STDP
	last    uint32     // the highest key stored, valid once a row is
}

// rowBlock is one index entry: bit k of bits says key (hi-1)<<6|k has a
// row, whose rank is base plus the set bits below k. The zero entry is an
// empty one.
type rowBlock struct {
	hi   uint32 // key>>6 + 1
	base uint32
	bits uint64
}

// NewMatrix returns an empty synaptic store.
func NewMatrix() *Matrix {
	return &Matrix{blocks: make([]rowBlock, 1), shift: 32, offs: []uint32{0}}
}

// block returns the entry of key's block, or the empty one it would take.
func (m *Matrix) block(key uint32) *rowBlock {
	i := key >> 6 * 0x9E3779B1 >> m.shift
	for {
		if b := &m.blocks[i]; b.hi == key>>6+1 || b.hi == 0 {
			return b
		}
		i = (i + 1) & m.mask
	}
}

// rank reports the rank of key's row, if it has one. An empty entry has
// no bits set, so a key in no stored block misses on the same bit test.
func (m *Matrix) rank(key uint32) (uint32, bool) {
	b := m.block(key)
	below := b.bits << (63 - key&63) // key's bit and the bits under it
	return b.base + uint32(bits.OnesCount64(below)) - 1, below>>63 != 0
}

// reserve sizes the arena for rows rows of words synapses in all, so a
// store whose final shape is known up front is built without regrowth or
// slack.
func (m *Matrix) reserve(rows, words int) {
	m.offs = slices.Grow(m.offs, rows)
	m.words = slices.Grow(m.words, words)
	m.plastic = slices.Grow(m.plastic, (rows+63)/64)
}

// grow doubles the index and re-seats every block.
func (m *Matrix) grow() {
	old := m.blocks
	m.blocks = make([]rowBlock, 2*len(old))
	m.mask = 2*m.mask + 1
	m.shift--
	for _, o := range old {
		if o.hi != 0 {
			*m.block((o.hi - 1) << 6) = o
		}
	}
}

// add appends a row of n synapses under key, which must be above every
// key stored so far, and returns it for the caller to fill.
func (m *Matrix) add(key uint32, n int, plastic bool) Row {
	r := m.NumRows()
	if r > 0 && key <= m.last {
		panic(fmt.Sprintf("neural: row %#x added after row %#x", key, m.last))
	}
	b := m.block(key)
	if b.hi == 0 {
		if 4*(m.used+1) > 3*len(m.blocks) {
			m.grow()
			b = m.block(key)
		}
		*b = rowBlock{hi: key>>6 + 1, base: uint32(r)}
		m.used++
	}
	b.bits |= 1 << (key & 63)
	m.last = key
	if r%64 == 0 {
		m.plastic = append(m.plastic, 0)
	}
	if plastic {
		m.plastic[r/64] |= 1 << (r % 64)
	}
	off := len(m.words)
	m.words = append(m.words, make([]SynWord, n)...)
	m.offs = append(m.offs, uint32(off+n))
	return m.words[off : off+n : off+n]
}

// AddRow stores a copy of row under a presynaptic routing key, marked
// subject to STDP if plastic. Rows are added in ascending key order; a
// key at or below one already stored is a toolchain bug and panics.
func (m *Matrix) AddRow(key uint32, row Row, plastic bool) { copy(m.add(key, len(row), plastic), row) }

// RowBytes reports the DMA transfer size of the row for a key — all the
// packet handler needs.
func (m *Matrix) RowBytes(key uint32) (int, bool) {
	r, ok := m.rank(key)
	if !ok {
		return 0, false
	}
	return 4 * int(m.offs[r+1]-m.offs[r]), true
}

// Lookup fetches the row for a key, aliasing the store (STDP updates the
// weights in place), its rank (which indexes STDP's per-row state), and
// whether it is plastic.
func (m *Matrix) Lookup(key uint32) (row Row, rank uint32, plastic, ok bool) {
	r, ok := m.rank(key)
	if !ok {
		return nil, 0, false, false
	}
	return m.row(int(r)), r, m.isPlastic(int(r)), true
}

// NumRows reports the number of stored rows.
func (m *Matrix) NumRows() int { return len(m.offs) - 1 }

// Bytes reports the synapses' total storage, checked against the SDRAM
// share.
func (m *Matrix) Bytes() int { return 4 * len(m.words) }

// Synapses returns every stored synapse, the rows back to back in
// ascending key order, aliasing the store.
func (m *Matrix) Synapses() Row { return m.words }

// row returns the row of rank r.
func (m *Matrix) row(r int) Row { return m.words[m.offs[r]:m.offs[r+1]:m.offs[r+1]] }

// isPlastic reports the plastic mark of the row of rank r.
func (m *Matrix) isPlastic(r int) bool { return m.plastic[r/64]&(1<<(r%64)) != 0 }

// Snap codes every stored row in ascending key order. Decoding merges the
// image into the rebuilt store in one pass: a recorded row replaces the
// rebuilt one under its key, a rebuilt row the image does not record
// stays, and the plastic marks are the rebuild's — they are a property
// of the network, which the image carries separately. Keys that do not
// strictly ascend, and a synapse whose target is not one of the
// population's neurons (row processing indexes per-neuron arrays by it),
// are decode errors; the store is left as it was.
func (m *Matrix) Snap(c *snap.Codec, neurons int) {
	keys := m.Keys()
	if c.Decoding() {
		m.decode(c, neurons, keys)
		return
	}
	snap.Slice(c, &keys)
	for i := range keys {
		c.U32(&keys[i])
		row := m.row(i)
		c.Len(len(row))
		for j := range row {
			c.U32((*uint32)(&row[j]))
		}
	}
}

// decode is Snap's decoding half; rebuilt lists m's keys. The merged
// store is sized for the rebuild's shape, which is the image's whenever
// both come from the same network.
func (m *Matrix) decode(c *snap.Codec, neurons int, rebuilt []uint32) {
	rows := c.Len(0)
	out, next := NewMatrix(), 0
	out.reserve(max(rows, len(rebuilt)), len(m.words))
	keep := func(below uint64) { // carries over the rebuilt rows under below
		for ; next < len(rebuilt) && uint64(rebuilt[next]) < below; next++ {
			out.AddRow(rebuilt[next], m.row(next), m.isPlastic(next))
		}
	}
	for i := 0; i < rows; i++ {
		var key uint32
		if c.U32(&key); c.Err() != nil {
			return
		}
		if i > 0 && key <= out.last {
			c.Fail(fmt.Errorf("neural: row %#x follows row %#x", key, out.last))
			return
		}
		keep(uint64(key))
		plastic := false
		if next < len(rebuilt) && rebuilt[next] == key {
			plastic = m.isPlastic(next)
			next++
		}
		row := out.add(key, c.Len(0), plastic)
		for j := range row {
			c.U32((*uint32)(&row[j]))
			if row[j].Target() >= neurons {
				c.Fail(fmt.Errorf("neural: row %#x synapse %d targets neuron %d of %d", key, j, row[j].Target(), neurons))
			}
		}
		if c.Err() != nil {
			return
		}
	}
	keep(1 << 32)
	*m = *out
}

// Keys lists the stored presynaptic keys in ascending order, which is
// rank order.
func (m *Matrix) Keys() []uint32 {
	blocks := make([]rowBlock, 0, m.used)
	for _, b := range m.blocks {
		if b.hi != 0 {
			blocks = append(blocks, b)
		}
	}
	slices.SortFunc(blocks, func(a, b rowBlock) int { return cmp.Compare(a.hi, b.hi) })
	keys := make([]uint32, 0, m.NumRows())
	for _, b := range blocks {
		for set := b.bits; set != 0; set &= set - 1 {
			keys = append(keys, (b.hi-1)<<6|uint32(bits.TrailingZeros64(set)))
		}
	}
	return keys
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
