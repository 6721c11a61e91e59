package topo

import "testing"

func TestPartitionCoversTorus(t *testing.T) {
	for _, tc := range []struct{ w, h, shards, want int }{
		{4, 4, 4, 4},
		{4, 4, 1, 1},
		{4, 4, 64, 4},  // clamped to rows
		{8, 3, 4, 4},   // wider than tall: cut columns
		{3, 3, 2, 2},   // uneven bands
		{1, 1, 8, 1},   // degenerate
		{12, 12, 0, 1}, // non-positive request
	} {
		tor := MustTorus(tc.w, tc.h)
		p := NewBands(tor, tc.shards)
		if p.Shards() != tc.want {
			t.Errorf("%dx%d/%d: shards = %d, want %d", tc.w, tc.h, tc.shards, p.Shards(), tc.want)
			continue
		}
		seen := make([]int, p.Shards())
		for i := 0; i < tor.Size(); i++ {
			s := p.ShardOfIndex(i)
			if s < 0 || s >= p.Shards() {
				t.Fatalf("%dx%d/%d: node %d in shard %d out of range", tc.w, tc.h, tc.shards, i, s)
			}
			if p.Shard(tor.CoordOf(i)) != s {
				t.Fatalf("Shard and ShardOfIndex disagree at node %d", i)
			}
			seen[s]++
		}
		for s, n := range seen {
			if n == 0 {
				t.Errorf("%dx%d/%d: shard %d owns no chips", tc.w, tc.h, tc.shards, s)
			}
		}
	}
}

func TestPartitionIsContiguousBands(t *testing.T) {
	tor := MustTorus(5, 7)
	p := NewBands(tor, 3)
	// Split along the taller dimension: every row lives in one shard,
	// and shard indexes are non-decreasing with y.
	last := 0
	for y := 0; y < tor.H; y++ {
		s := p.Shard(Coord{X: 0, Y: y})
		for x := 1; x < tor.W; x++ {
			if p.Shard(Coord{X: x, Y: y}) != s {
				t.Fatalf("row %d split across shards", y)
			}
		}
		if s < last {
			t.Fatalf("bands not contiguous: row %d in shard %d after shard %d", y, s, last)
		}
		last = s
	}
}

func TestPartitionBalance(t *testing.T) {
	// Band sizes may differ by at most one row/column.
	tor := MustTorus(4, 10)
	p := NewBands(tor, 3)
	counts := make(map[int]int)
	for i := 0; i < tor.Size(); i++ {
		counts[p.ShardOfIndex(i)]++
	}
	min, max := tor.Size(), 0
	for _, n := range counts {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > tor.W {
		t.Errorf("imbalance: min %d max %d chips per shard", min, max)
	}
}

// checkPartitionInvariants verifies the properties every geometry must
// provide: a total chip->shard map onto [0, Shards()), no empty shard,
// chip sets that tile the torus, and a boundary enumeration that lists
// exactly the directed links whose endpoints differ in shard.
func checkPartitionInvariants(t *testing.T, p Partition) {
	t.Helper()
	tor := p.Torus()
	seen := make([]int, p.Shards())
	for i := 0; i < tor.Size(); i++ {
		s := p.ShardOfIndex(i)
		if s < 0 || s >= p.Shards() {
			t.Fatalf("node %d in shard %d out of range [0,%d)", i, s, p.Shards())
		}
		if p.Shard(tor.CoordOf(i)) != s {
			t.Fatalf("Shard and ShardOfIndex disagree at node %d", i)
		}
		seen[s]++
	}
	total := 0
	for s, n := range seen {
		if n == 0 {
			t.Errorf("shard %d owns no chips", s)
		}
		if got := len(p.Chips(s)); got != n {
			t.Errorf("Chips(%d) lists %d chips, shard owns %d", s, got, n)
		}
		total += n
	}
	if total != tor.Size() {
		t.Errorf("chip sets cover %d chips, torus has %d", total, tor.Size())
	}
	// Brute-force the cut set and compare with the enumeration.
	want := 0
	for i := 0; i < tor.Size(); i++ {
		from := tor.CoordOf(i)
		for d := Dir(0); int(d) < NumDirs; d++ {
			if p.Shard(tor.Neighbor(from, d)) != p.ShardOfIndex(i) {
				want++
			}
		}
	}
	if got := p.CutLinks(); got != want {
		t.Errorf("CutLinks() = %d, brute force counts %d", got, want)
	}
	for _, bl := range p.BoundaryLinks() {
		if p.Shard(bl.From) == p.Shard(tor.Neighbor(bl.From, bl.Dir)) {
			t.Errorf("boundary link %v/%v does not cross shards", bl.From, bl.Dir)
		}
	}
	if rows, cols := p.Grid(); rows*cols != p.Shards() {
		t.Errorf("grid %dx%d inconsistent with %d shards", rows, cols, p.Shards())
	}
}

// newBlocks is the plain 2D block partition: NewTiled at the chip tile,
// which tiles every torus.
func newBlocks(t Torus, shards int) Partition {
	p, err := NewTiled(t, 0, chip, shards)
	if err != nil {
		panic(err)
	}
	return p
}

func TestBlocks2DEdgeCases(t *testing.T) {
	for _, tc := range []struct{ w, h, shards, want int }{
		{8, 8, 4, 4},   // clean 2x2 grid
		{5, 7, 4, 4},   // non-divisible dimensions
		{5, 7, 6, 6},   // 2x3 over uneven extents
		{3, 3, 100, 9}, // shards > chips: one chip per shard
		{1, 8, 4, 4},   // 1xN torus degenerates to bands
		{8, 1, 3, 3},   // Nx1 torus
		{1, 1, 5, 1},   // degenerate
		{4, 4, 0, 1},   // non-positive request
		{6, 6, 7, 6},   // 7 factorises only as 7x1, which fits neither axis of 6x6; fall back to 6
	} {
		p := newBlocks(MustTorus(tc.w, tc.h), tc.shards)
		if p.Shards() != tc.want {
			t.Errorf("blocks %dx%d/%d: shards = %d, want %d", tc.w, tc.h, tc.shards, p.Shards(), tc.want)
			continue
		}
		if p.Level() != 0 {
			t.Errorf("blocks %dx%d/%d: level = %d", tc.w, tc.h, tc.shards, p.Level())
		}
		checkPartitionInvariants(t, p)
	}
}

func TestBandsEdgeCases(t *testing.T) {
	for _, tc := range []struct{ w, h, shards int }{
		{5, 7, 3}, {1, 8, 4}, {8, 1, 3}, {1, 1, 5}, {4, 4, 64},
	} {
		p := NewBands(MustTorus(tc.w, tc.h), tc.shards)
		if p.Level() != Bands {
			t.Errorf("bands %dx%d/%d: level = %d", tc.w, tc.h, tc.shards, p.Level())
		}
		checkPartitionInvariants(t, p)
	}
}

func TestBlocksNeverCutMoreThanBandsOnSquareTori(t *testing.T) {
	// A 1xS grid is always a chip-tiled candidate, so at equal effective
	// shard counts the block cut can never exceed the band cut; on
	// square tori at shard counts with 2D factorisations it should be
	// strictly smaller once the grid beats the band perimeter.
	for _, n := range []int{4, 6, 8, 12} {
		tor := MustTorus(n, n)
		for shards := 2; shards <= n; shards++ {
			bands := NewBands(tor, shards)
			blocks := newBlocks(tor, shards)
			if blocks.Shards() < bands.Shards() {
				t.Errorf("%dx%d/%d: blocks achieved %d shards, bands %d",
					n, n, shards, blocks.Shards(), bands.Shards())
				continue
			}
			if blocks.Shards() == bands.Shards() && blocks.CutLinks() > bands.CutLinks() {
				t.Errorf("%dx%d/%d: blocks cut %d links, bands %d",
					n, n, shards, blocks.CutLinks(), bands.CutLinks())
			}
		}
	}
	// The headline case from the ROADMAP: high shard counts on a square
	// torus, where the 2D perimeter wins decisively.
	tor := MustTorus(8, 8)
	bands := NewBands(tor, 8)
	blocks := newBlocks(tor, 16)
	if blocks.CutLinks() >= bands.CutLinks() {
		t.Errorf("8x8: 16 blocks cut %d links, 8 bands cut %d — blocks should win",
			blocks.CutLinks(), bands.CutLinks())
	}
}

func TestBlocksChooseSquarestGrid(t *testing.T) {
	// 8x8 with 4 shards: the 2x2 grid (cut 120) beats 1x4/4x1 bands
	// (cut 128).
	p := newBlocks(MustTorus(8, 8), 4)
	r, c := p.Grid()
	if r != 2 || c != 2 {
		t.Errorf("8x8/4: grid %dx%d, want 2x2", r, c)
	}
	bands := NewBands(MustTorus(8, 8), 4)
	if p.CutLinks() >= bands.CutLinks() {
		t.Errorf("2x2 blocks cut %d links, 4 bands cut %d", p.CutLinks(), bands.CutLinks())
	}
}
