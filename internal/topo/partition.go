package topo

// A Partition decomposes a torus into shards, the unit of parallelism
// for the sharded simulation engine, in one of two ways. Bands cut the
// torus along its longer dimension into contiguous bands of whole rows
// (or columns): every chip has at most two off-shard neighbouring bands.
// A tiled partition cuts an r×c grid of blocks of whole tiles of one
// packaging level: at the 1x1 chip tile these are plain 2D blocks,
// whose perimeter (~ r+c) crosses fewer links than bands (~ shards) on
// square-ish tori at high shard counts; at a board or cabinet tile every
// shard boundary is that level's edge and every cut link one of its
// cables, whose slower hops buy a wider conservative lookahead at the
// price of shard granularity limited to whole units. Every partition is
// the same kind of object — a total, deterministic chip->shard map — so
// the engine and fabric are agnostic to which one produced it; they
// differ only in which inter-chip links the cut crosses, which is what
// bounds cross-shard traffic and therefore synchronisation cost.

// Bands is the Level of a band partition, which follows no packaging
// level's edges.
const Bands = -1

// BoundaryLink is one directed inter-chip link whose endpoints live in
// different shards. Packets crossing such links are the only traffic
// that must pass through the parallel engine's barrier mailboxes, so
// the size of this set is the partition's communication cost.
type BoundaryLink struct {
	From Coord
	Dir  Dir
}

// Partition is a decomposition of a torus into shards. The chip->shard
// map depends only on the torus shape, the geometry and the shard
// count, never on execution order, so every run with the same
// configuration shards identically.
type Partition struct {
	t        Torus
	level    int  // packaging level the blocks are cut from; Bands for bands
	tile     Tile // the grid cell: that level's tile, 1x1 for bands
	shards   int
	rows     int   // grid rows (bands-by-row have rows=shards)
	cols     int   // grid columns
	shardOf  []int // by node index
	boundary []BoundaryLink
}

// NewBands decomposes t into at most shards contiguous bands of whole
// rows (or columns, when the torus is wider than tall). The effective
// shard count is clamped to the extent of the cut dimension (a band
// must hold at least one full row or column) and to a minimum of one.
func NewBands(t Torus, shards int) Partition {
	byRow := t.H >= t.W
	extent := t.H
	if !byRow {
		extent = t.W
	}
	if shards < 1 {
		shards = 1
	}
	if shards > extent {
		shards = extent
	}
	p := Partition{t: t, level: Bands, tile: Tile{W: 1, H: 1}, shards: shards}
	if byRow {
		p.rows, p.cols = shards, 1
	} else {
		p.rows, p.cols = 1, shards
	}
	p.build()
	return p
}

// NewTiled decomposes t into at most shards r×c blocks of whole tiles
// of packaging level level, so every shard boundary runs along that
// level's edges (any edge at all for the 1x1 chip tile). The grid is
// chosen to minimise the number of cut links: the effective shard count
// is the largest s <= shards that factorises as r·c within the tile
// grid (so it clamps to the tile count), and among the factorisations
// of that s the grid crossing the fewest directed inter-chip links wins
// (ties break toward the squarest grid, then toward more rows). Since
// 1×s and s×1 grids are always candidates, a chip-tiled partition never
// cuts more links than the band partition with the same effective shard
// count. It errors when tile does not tile t.
func NewTiled(t Torus, level int, tile Tile, shards int) (Partition, error) {
	if err := tile.Validate(t); err != nil {
		return Partition{}, err
	}
	gw, gh := tile.Grid(t)
	shards = min(max(shards, 1), gw*gh)
	best := Partition{}
	found := false
	for s := shards; s >= 1 && !found; s-- {
		for r := 1; r <= s && r <= gh; r++ {
			if s%r != 0 {
				continue
			}
			c := s / r
			if c > gw {
				continue
			}
			cand := Partition{t: t, level: level, tile: tile, shards: s, rows: r, cols: c}
			cand.build()
			if !found || cand.betterGridThan(best) {
				best = cand
				found = true
			}
		}
	}
	return best, nil
}

// betterGridThan orders candidate grids with the same shard count:
// fewest cut links first, then squarest (smallest |rows-cols|), then
// more rows — a total, deterministic order.
func (p Partition) betterGridThan(q Partition) bool {
	if len(p.boundary) != len(q.boundary) {
		return len(p.boundary) < len(q.boundary)
	}
	pa, qa := abs(p.rows-p.cols), abs(q.rows-q.cols)
	if pa != qa {
		return pa < qa
	}
	return p.rows > q.rows
}

// build fills the chip->shard map from the rows×cols grid and
// enumerates the boundary links. Grid cell (i, j) — row band i of rows,
// column band j of cols — is shard i·cols + j; bands along each axis
// differ in extent by at most one (the first remainder bands are one
// wider). The bands run over tile cells rather than chips, which is
// exactly what pins a tiled partition's shard boundaries to its level's
// edges.
func (p *Partition) build() {
	extW, extH := p.tile.Grid(p.t)
	rowOf := bandOf(extH, p.rows)
	colOf := bandOf(extW, p.cols)
	p.shardOf = make([]int, p.t.Size())
	for i := range p.shardOf {
		x, y := p.tile.CellOf(p.t.CoordOf(i))
		p.shardOf[i] = rowOf(y)*p.cols + colOf(x)
	}
	p.boundary = nil
	for i := range p.shardOf {
		from := p.t.CoordOf(i)
		for d := Dir(0); int(d) < NumDirs; d++ {
			if p.shardOf[p.t.Index(p.t.Neighbor(from, d))] != p.shardOf[i] {
				p.boundary = append(p.boundary, BoundaryLink{From: from, Dir: d})
			}
		}
	}
}

// bandOf returns the map from a coordinate along one axis to its band
// index when extent is split into n near-equal contiguous bands: the
// first extent%n bands have one extra entry.
func bandOf(extent, n int) func(v int) int {
	base := extent / n
	rem := extent % n
	return func(v int) int {
		if v < rem*(base+1) {
			return v / (base + 1)
		}
		return rem + (v-rem*(base+1))/base
	}
}

// Torus reports the decomposed torus.
func (p Partition) Torus() Torus { return p.t }

// Level reports the packaging level whose tiles the shard blocks are
// cut from, or Bands.
func (p Partition) Level() int { return p.level }

// Shards reports the effective shard count.
func (p Partition) Shards() int { return p.shards }

// Grid reports the block-grid dimensions (rows×cols == Shards()); a
// band partition is a degenerate 1×s or s×1 grid, and a tiled partition
// reports its grid of tile bands.
func (p Partition) Grid() (rows, cols int) { return p.rows, p.cols }

// Shard reports the shard owning the chip at c.
func (p Partition) Shard(c Coord) int { return p.shardOf[p.t.Index(c)] }

// ShardOfIndex reports the shard owning node index i.
func (p Partition) ShardOfIndex(i int) int { return p.shardOf[i] }

// Chips reports the chip set of one shard, in node-index order.
func (p Partition) Chips(shard int) []Coord {
	var out []Coord
	for i, s := range p.shardOf {
		if s == shard {
			out = append(out, p.t.CoordOf(i))
		}
	}
	return out
}

// BoundaryLinks enumerates every directed inter-chip link that crosses
// a shard boundary, in (node index, direction) order. These are exactly
// the links whose traffic travels through the parallel engine's barrier
// mailboxes.
func (p Partition) BoundaryLinks() []BoundaryLink { return p.boundary }

// CutLinks reports the number of directed links crossing shard
// boundaries — the partition's communication cost, and the quantity
// NewTiled minimises.
func (p Partition) CutLinks() int { return len(p.boundary) }

// Equal reports whether two partitions assign every chip to the same
// shard — the test a runtime re-partitioner uses to recognise a no-op
// swap. Levels are ignored: a 4-band partition and a 4x1 block grid of
// the same torus are equal if their chip->shard maps agree.
func (p Partition) Equal(q Partition) bool {
	if p.t != q.t || len(p.shardOf) != len(q.shardOf) {
		return false
	}
	for i, s := range p.shardOf {
		if q.shardOf[i] != s {
			return false
		}
	}
	return true
}

// Diff reports how a re-partition from p to q would move the machine:
// moved counts chips whose owning shard index changes (the domains an
// engine must re-bind and whose pending events must migrate), and
// cutDelta is the change in directed cut links (q minus p). Both
// partitions must decompose the same torus.
func (p Partition) Diff(q Partition) (moved, cutDelta int) {
	for i, s := range p.shardOf {
		if q.shardOf[i] != s {
			moved++
		}
	}
	return moved, q.CutLinks() - p.CutLinks()
}

// CutComposition counts the boundary links per packaging level: levelOf
// places each directed link in [0, levels) — the highest level whose
// unit it leaves, as router.Params.ClassOf does — so the counts
// partition the cut. A partition tiled at level k by the same tiles
// counts zero below k — its shard boundaries are level-k edges by
// construction — which is what entitles it to that level's wider
// conservative lookahead.
func (p Partition) CutComposition(levels int, levelOf func(Coord, Dir) int) []int {
	out := make([]int, levels)
	for _, bl := range p.boundary {
		out[levelOf(bl.From, bl.Dir)]++
	}
	return out
}
