package topo

import "testing"

// chip is the 1x1 tile of packaging level 0.
var chip = Tile{W: 1, H: 1}

// crossing is one directed link and whether it leaves its tile.
type crossing struct {
	c    Coord
	d    Dir
	want bool
}

// levelCase is one row of levelTable: the cases of one packaging level
// above the chip on an 8x8 torus. A row's tiles are spelled as
// configuration spells them, in units of the level below (below is that
// level's chip footprint); Of scales them to chips. A board is measured
// in chips and a cabinet in boards — the only difference between the two
// levels.
type levelCase struct {
	name  string
	level int
	// Parsing: a well-formed spec, and malformed ones (trailing garbage,
	// non-positive sides).
	spec string
	want Tile
	bad  []string
	// Tiling over below: tiles that cover the torus and tiles that do
	// not (over a level below that itself does not tile, or is absent).
	below      Tile
	tiles      []Tile
	untileable []struct{ below, tile Tile }
	// Crossing of tile over crossBelow, wraps included.
	crossBelow, cross Tile
	crossings         []crossing
	// A partition tiled at this level over alignBelow (the chip
	// footprints of the levels below, chip first): aligned for every
	// shard count up to 8.
	alignBelow []Tile
	align      Tile
	// Clamping: shards requested over clampBelow, and the tile count it
	// clamps to.
	clampBelow, clamp Tile
	shards, clamped   int
}

// levelTable is the per-level table the tests below walk, one row per
// level; each per-level test runs its level's row.
var levelTable = []levelCase{
	{
		name: "board", level: 1,
		spec: "8x6", want: Tile{W: 8, H: 6},
		bad:   []string{"", "8", "x", "0x6", "8x-1", "axb", "8x2x2", "8x6mm"},
		below: chip,
		tiles: []Tile{{W: 4, H: 2}},
		untileable: []struct{ below, tile Tile }{
			{chip, Tile{W: 3, H: 2}}, {chip, Tile{W: 4, H: 3}}, {chip, Tile{W: 16, H: 8}},
		},
		crossBelow: chip, cross: Tile{W: 4, H: 4}, // 2x2 boards
		crossings: []crossing{
			{Coord{1, 1}, East, false},      // interior
			{Coord{3, 1}, East, true},       // over the x=4 board edge
			{Coord{3, 1}, West, false},      // away from the edge
			{Coord{1, 3}, North, true},      // over the y=4 board edge
			{Coord{3, 3}, NorthEast, true},  // diagonal over the corner
			{Coord{7, 1}, East, true},       // torus wrap: cabled
			{Coord{1, 0}, South, true},      // torus wrap the other way
			{Coord{4, 4}, SouthWest, true},  // diagonal back over the corner
			{Coord{5, 5}, NorthEast, false}, // interior of board (1,1)
		},
		alignBelow: []Tile{chip}, align: Tile{W: 4, H: 2}, // 2x4 board grid
		clampBelow: chip, clamp: Tile{W: 8, H: 2}, shards: 7, clamped: 4,
	},
	{
		name: "cabinet", level: 2,
		spec: "4x2", want: Tile{W: 4, H: 2},
		bad:   []string{"", "4", "x", "0x2", "4x-1", "axb", "4x2x2", "4x2u"},
		below: Tile{W: 4, H: 2}, // 2x4 board grid
		tiles: []Tile{{W: 2, H: 2}, {W: 1, H: 4}},
		untileable: []struct{ below, tile Tile }{
			{Tile{W: 4, H: 2}, Tile{W: 3, H: 2}},
			{Tile{W: 4, H: 2}, Tile{W: 2, H: 3}},
			{Tile{W: 4, H: 2}, Tile{W: 4, H: 1}},
			{Tile{}, Tile{W: 2, H: 2}},           // cabinets hold boards, not bare chips
			{Tile{W: 3, H: 2}, Tile{W: 1, H: 1}}, // over untileable boards
		},
		crossBelow: Tile{W: 2, H: 2}, cross: Tile{W: 2, H: 2}, // 4x4-chip cabinets
		crossings: []crossing{
			{Coord{1, 1}, East, false},     // interior of cabinet (0,0)
			{Coord{3, 1}, East, true},      // over the x=4 cabinet edge
			{Coord{3, 1}, West, false},     // away from the edge
			{Coord{1, 3}, North, true},     // over the y=4 cabinet edge
			{Coord{3, 3}, NorthEast, true}, // diagonal over the corner
			{Coord{7, 1}, East, true},      // torus wrap: cabled
			{Coord{1, 0}, South, true},     // torus wrap the other way
			{Coord{2, 1}, East, false},     // board edge inside the cabinet
		},
		alignBelow: []Tile{chip, {W: 2, H: 2}}, align: Tile{W: 1, H: 2}, // 4x2 cabinet grid
		clampBelow: Tile{W: 4, H: 4}, clamp: Tile{W: 1, H: 1}, shards: 9, clamped: 4,
	},
}

// classify is the per-level link classifier over chip footprints
// listed bottom-up, chip first: the highest level whose tile the link
// leaves.
func classify(tiles ...Tile) func(Coord, Dir) int {
	return func(c Coord, d Dir) int {
		for i := len(tiles) - 1; i > 0; i-- {
			if tiles[i].Crosses(c, d) {
				return i
			}
		}
		return 0
	}
}

// levelRow returns the levelTable row for the named level.
func levelRow(t *testing.T, name string) levelCase {
	t.Helper()
	for _, row := range levelTable {
		if row.name == name {
			return row
		}
	}
	t.Fatalf("no %s row in levelTable", name)
	return levelCase{}
}

func TestParseBoardGeometry(t *testing.T)   { testParseTile(t, levelRow(t, "board")) }
func TestParseCabinetGeometry(t *testing.T) { testParseTile(t, levelRow(t, "cabinet")) }

func testParseTile(t *testing.T, row levelCase) {
	g, err := ParseTile(row.spec)
	if err != nil || g != row.want {
		t.Fatalf("%s: ParseTile(%s) = %v, %v", row.name, row.spec, g, err)
	}
	if g.String() != row.spec {
		t.Errorf("%s: String() = %q, want %s", row.name, g.String(), row.spec)
	}
	for _, bad := range row.bad {
		if _, err := ParseTile(bad); err == nil {
			t.Errorf("%s: ParseTile(%q) accepted", row.name, bad)
		}
	}
}

func TestBoardGeometryValidate(t *testing.T)   { testTileValidate(t, levelRow(t, "board")) }
func TestCabinetGeometryValidate(t *testing.T) { testTileValidate(t, levelRow(t, "cabinet")) }

func testTileValidate(t *testing.T, row levelCase) {
	torus := MustTorus(8, 8)
	for _, g := range row.tiles {
		if err := g.Of(row.below).Validate(torus); err != nil {
			t.Errorf("%s: %v over %v should tile 8x8: %v", row.name, g, row.below, err)
		}
	}
	for _, u := range row.untileable {
		if err := u.tile.Of(u.below).Validate(torus); err == nil {
			t.Errorf("%s: %v over %v should not tile 8x8", row.name, u.tile, u.below)
		}
	}
}

// TestZeroAndChipTiles pins the two tiles outside levelTable: the zero
// tile (no such level) renders "none" and never crosses; the chip tile
// tiles every torus and every link leaves it.
func TestZeroAndChipTiles(t *testing.T) {
	if (Tile{}).String() != "none" {
		t.Errorf("zero String() = %q, want none", Tile{}.String())
	}
	if (Tile{}).Crosses(Coord{3, 1}, East) {
		t.Error("zero tile reported a crossing")
	}
	if err := chip.Validate(MustTorus(8, 8)); err != nil {
		t.Errorf("the chip tile must tile every torus: %v", err)
	}
	for d := Dir(0); int(d) < NumDirs; d++ {
		if !chip.Crosses(Coord{3, 3}, d) {
			t.Errorf("a link %v leaves its chip", d)
		}
	}
}

// TestTileGridAndCell pins the composed footprint: a level measured in
// units of the level below covers the torus on its own, coarser grid.
func TestTileGridAndCell(t *testing.T) {
	torus := MustTorus(8, 8)
	boards := Tile{W: 2, H: 2}         // 4x4 board grid
	cab := Tile{W: 2, H: 2}.Of(boards) // 2x2 cabinet grid, 4x4 chips each
	if cab != (Tile{W: 4, H: 4}) {
		t.Fatalf("Of = %v, want 4x4 chips", cab)
	}
	if w, h := boards.Grid(torus); w != 4 || h != 4 {
		t.Errorf("board Grid = %dx%d, want 4x4", w, h)
	}
	if w, h := cab.Grid(torus); w != 2 || h != 2 {
		t.Errorf("cabinet Grid = %dx%d, want 2x2", w, h)
	}
	for _, tc := range []struct {
		c            Coord
		wantX, wantY int
	}{
		{Coord{0, 0}, 0, 0}, {Coord{3, 3}, 0, 0},
		{Coord{4, 0}, 1, 0}, {Coord{0, 4}, 0, 1}, {Coord{7, 7}, 1, 1},
	} {
		if x, y := cab.CellOf(tc.c); x != tc.wantX || y != tc.wantY {
			t.Errorf("CellOf(%v) = (%d,%d), want (%d,%d)", tc.c, x, y, tc.wantX, tc.wantY)
		}
	}
}

// TestBoardCrosses and TestCabinetCrosses pin the link classification at
// each level: interior links stay inside the unit, links over a unit edge
// cross, and torus wrap links always cross (the physical wrap is cabled
// between edge units).
func TestBoardCrosses(t *testing.T)   { testTileCrosses(t, levelRow(t, "board")) }
func TestCabinetCrosses(t *testing.T) { testTileCrosses(t, levelRow(t, "cabinet")) }

func testTileCrosses(t *testing.T, row levelCase) {
	g := row.cross.Of(row.crossBelow)
	for _, tc := range row.crossings {
		if got := g.Crosses(tc.c, tc.d); got != tc.want {
			t.Errorf("%s: Crosses(%v, %v) = %v, want %v", row.name, tc.c, tc.d, got, tc.want)
		}
	}
}

// TestNewBoardsAligned and TestNewCabinetsAligned pin the tiled
// partition's defining property at each level: every boundary link leaves
// a unit of the partition's level, so the cut composition is zero below
// it, for every reachable shard count.
func TestNewBoardsAligned(t *testing.T)   { testTiledAligned(t, levelRow(t, "board")) }
func TestNewCabinetsAligned(t *testing.T) { testTiledAligned(t, levelRow(t, "cabinet")) }

func testTiledAligned(t *testing.T, row levelCase) {
	torus := MustTorus(8, 8)
	tile := row.align.Of(row.alignBelow[row.level-1])
	tiles := append(append([]Tile(nil), row.alignBelow...), tile)
	for shards := 1; shards <= 8; shards++ {
		p, err := NewTiled(torus, row.level, tile, shards)
		if err != nil {
			t.Fatal(err)
		}
		if p.Level() != row.level {
			t.Fatalf("%s: level = %d", row.name, p.Level())
		}
		comp := p.CutComposition(len(tiles), classify(tiles...))
		for below := 0; below < row.level; below++ {
			if comp[below] != 0 {
				t.Errorf("%s/%d: %d level-%d links in a %s-aligned cut", row.name, shards, comp[below], below, row.name)
			}
		}
		if p.Shards() > 1 && comp[row.level] == 0 {
			t.Errorf("%s/%d: multi-shard partition with an empty cut", row.name, shards)
		}
		if comp[row.level] != p.CutLinks() {
			t.Errorf("%s/%d: composition %v != CutLinks %d", row.name, shards, comp, p.CutLinks())
		}
		// Every chip maps to a shard; chips in one unit share it.
		for i := 0; i < torus.Size(); i++ {
			c := torus.CoordOf(i)
			base := Coord{X: c.X - c.X%tile.W, Y: c.Y - c.Y%tile.H}
			if p.Shard(c) != p.Shard(base) {
				t.Fatalf("%s/%d: unit split across shards at %v", row.name, shards, c)
			}
		}
	}
}

// TestNewBoardsClamps and TestNewCabinetsClamps pin the granularity at
// each level: the shard count clamps to the tile count, and an untileable
// tile errors.
func TestNewBoardsClamps(t *testing.T)   { testTiledClamps(t, levelRow(t, "board")) }
func TestNewCabinetsClamps(t *testing.T) { testTiledClamps(t, levelRow(t, "cabinet")) }

func testTiledClamps(t *testing.T, row levelCase) {
	torus := MustTorus(8, 8)
	p, err := NewTiled(torus, row.level, row.clamp.Of(row.clampBelow), row.shards)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != row.clamped {
		t.Errorf("%s: Shards() = %d, want %d (one per %s)", row.name, p.Shards(), row.clamped, row.name)
	}
	for _, u := range row.untileable {
		if _, err := NewTiled(torus, row.level, u.tile.Of(u.below), 2); err == nil {
			t.Errorf("%s: untileable %v over %v accepted", row.name, u.tile, u.below)
		}
	}
}

// TestCutCompositionMixed checks classification of a chip-granular cut
// against a board tiling: a bands cut through board interiors reports
// fast links, a bands cut along board edges reports none.
func TestCutCompositionMixed(t *testing.T) {
	torus := MustTorus(8, 8)
	levels := classify(chip, Tile{W: 8, H: 4}) // two boards stacked vertically

	aligned := NewBands(torus, 2) // boundaries at y=0 and y=4: board edges
	if c := aligned.CutComposition(2, levels); c[0] != 0 || c[1] != aligned.CutLinks() {
		t.Errorf("aligned bands: composition %v, want [0 %d]", c, aligned.CutLinks())
	}

	misaligned := NewBands(torus, 4) // boundaries at y=2 and y=6 cut board interiors
	if c := misaligned.CutComposition(2, levels); c[0] == 0 || c[1] == 0 {
		t.Errorf("misaligned bands: composition %v, want both levels present", c)
	}

	// No boards: everything is on-board.
	if c := misaligned.CutComposition(1, classify(chip)); c[0] != misaligned.CutLinks() {
		t.Errorf("uniform: composition %v, want [%d]", c, misaligned.CutLinks())
	}
}

// TestCutCompositionThreeLevels checks the three-way classification of a
// chip-granular cut: a cabinet crossing is always also a board crossing
// and must be counted exactly once, in the cabinet bucket.
func TestCutCompositionThreeLevels(t *testing.T) {
	torus := MustTorus(8, 8)
	boards := Tile{W: 4, H: 2}         // 2x4 board grid
	cab := Tile{W: 2, H: 2}.Of(boards) // 8x4-chip cabinets

	// One-chip-wide bands: boundaries at every y, cutting board interiors
	// (y=1,3,5,7 edges), board edges inside a cabinet (y=2,6) and the
	// cabinet edge (y=4, plus the wrap at y=0).
	p := NewBands(torus, 8)
	c := p.CutComposition(3, classify(chip, boards, cab))
	if c[0] == 0 || c[1] == 0 || c[2] == 0 {
		t.Fatalf("composition %v: want all three levels present", c)
	}
	if c[0]+c[1]+c[2] != p.CutLinks() {
		t.Errorf("composition %v != CutLinks %d", c, p.CutLinks())
	}

	// Without the cabinet level the third bucket folds into the second.
	c2 := p.CutComposition(2, classify(chip, boards))
	if c2[0] != c[0] || c2[1] != c[1]+c[2] {
		t.Errorf("no-cabinet composition %v, want [%d %d]", c2, c[0], c[1]+c[2])
	}
}
