package router

import (
	"strings"
	"testing"

	"spinngo/internal/packet"
	"spinngo/internal/phy"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// withBoards returns p with a board level of w x h-chip boards and the
// default board-to-board links on top of its levels.
func withBoards(p Params, w, h int) Params {
	p.Levels = append(append([]Level(nil), p.Levels...), Level{Tile: topo.Tile{W: w, H: h}, Link: phy.DefaultLink(1)})
	return p
}

// tiled cuts p's torus into at most shards blocks of whole units of
// packaging level level.
func tiled(t testing.TB, p Params, level, shards int) topo.Partition {
	t.Helper()
	part, err := topo.NewTiled(p.Torus, level, p.Levels[level].Tile, shards)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// spec spells a board level and a cabinet level as configuration does.
func spec(boards, boardLink, cabinets, cabinetLink string) []LevelSpec {
	return []LevelSpec{
		{Key: "boards", Tile: boards, LinkKey: "board_link", Link: boardLink},
		{Key: "cabinets", Tile: cabinets, LinkKey: "cabinet_link", Link: cabinetLink},
	}
}

// TestResolveLevels pins the one resolver from configuration spelling to
// levels: tiles scale to chip footprints level by level, presets pick
// the level's own default block or the one below, and every
// contradiction is an error naming the field.
func TestResolveLevels(t *testing.T) {
	torus := topo.MustTorus(8, 8)
	chipLink := phy.DefaultLink(0)
	for _, tc := range []struct {
		name  string
		specs []LevelSpec
		tiles []topo.Tile
		links []phy.LinkParams
	}{
		{"uniform fabric", spec("", "", "", ""),
			[]topo.Tile{{W: 1, H: 1}}, []phy.LinkParams{chipLink}},
		{"boards", spec("4x4", "", "", ""),
			[]topo.Tile{{W: 1, H: 1}, {W: 4, H: 4}}, []phy.LinkParams{chipLink, phy.DefaultLink(1)}},
		{"uniform boards", spec("4x4", LinkUniform, "", ""),
			[]topo.Tile{{W: 1, H: 1}, {W: 4, H: 4}}, []phy.LinkParams{chipLink, chipLink}},
		{"cabinets of boards", spec("4x2", LinkSlow, "1x2", LinkSlow),
			[]topo.Tile{{W: 1, H: 1}, {W: 4, H: 2}, {W: 4, H: 4}},
			[]phy.LinkParams{chipLink, phy.DefaultLink(1), phy.DefaultLink(2)}},
		{"uniform cabinets", spec("4x4", LinkSlow, "1x1", LinkUniform),
			[]topo.Tile{{W: 1, H: 1}, {W: 4, H: 4}, {W: 4, H: 4}},
			[]phy.LinkParams{chipLink, phy.DefaultLink(1), phy.DefaultLink(1)}},
	} {
		levels, err := ResolveLevels(torus, tc.specs...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(levels) != len(tc.tiles) {
			t.Errorf("%s: %d levels, want %d", tc.name, len(levels), len(tc.tiles))
			continue
		}
		for i, l := range levels {
			if l.Tile != tc.tiles[i] || l.Link != tc.links[i] {
				t.Errorf("%s: level %d = %+v, want %v %+v", tc.name, i, l, tc.tiles[i], tc.links[i])
			}
		}
	}
	for _, tc := range []struct {
		name  string
		specs []LevelSpec
		want  string
	}{
		{"untileable boards", spec("3x2", "", "", ""), "boards:"},
		{"malformed boards", spec("8by2", "", "", ""), "boards:"},
		{"board link without boards", spec("", LinkSlow, "", ""), "board_link:"},
		{"unknown board link preset", spec("4x4", "warp", "", ""), "board_link: unknown"},
		{"cabinets without boards", spec("", "", "2x2", ""), "cabinets: requires boards"},
		{"untileable cabinets", spec("4x4", "", "3x3", ""), "cabinets:"},
		{"malformed cabinets", spec("4x4", "", "2by2", ""), "cabinets:"},
		{"cabinet link without cabinets", spec("4x4", "", "", LinkSlow), "cabinet_link:"},
		{"unknown cabinet link preset", spec("4x4", "", "1x1", "warp"), "cabinet_link: unknown"},
	} {
		_, err := ResolveLevels(torus, tc.specs...)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not start with %q", tc.name, err, tc.want)
		}
	}
}

// TestFourLevelFabric is the evidence that a packaging level is one
// more list entry: a made-up fourth level — two-cabinet rows joined by
// an even longer cable — appended to the three the machine knows
// classes its links, cuts partitions, widens lookahead and accounts
// traffic and energy with no code that names it.
func TestFourLevelFabric(t *testing.T) {
	p := DefaultParams(16, 16)
	levels, err := ResolveLevels(p.Torus, spec("4x4", LinkSlow, "2x2", LinkSlow)...)
	if err != nil {
		t.Fatal(err)
	}
	row := phy.LinkParams{
		Level: 3, Code: phy.NRZ2of7,
		WireDelay:           100 * sim.Nanosecond,
		LogicDelay:          10 * sim.Nanosecond,
		EnergyPerTransition: 150,
	}
	p.Levels = append(levels, Level{Tile: topo.Tile{W: 2, H: 1}.Of(levels[2].Tile), Link: row})

	// ClassOf: the highest unit edge a link crosses picks its bucket.
	for _, tc := range []struct {
		c    topo.Coord
		d    topo.Dir
		want int
	}{
		{topo.Coord{X: 1, Y: 1}, topo.East, 0},  // inside a board
		{topo.Coord{X: 3, Y: 1}, topo.East, 1},  // board edge inside a cabinet
		{topo.Coord{X: 7, Y: 3}, topo.East, 2},  // cabinet edge inside a row
		{topo.Coord{X: 3, Y: 7}, topo.North, 3}, // row edge
		{topo.Coord{X: 15, Y: 3}, topo.East, 3}, // torus wrap: cabled between rows
	} {
		if got := p.ClassOf(tc.c, tc.d); got != tc.want {
			t.Errorf("ClassOf(%v, %v) = %d, want %d", tc.c, tc.d, got, tc.want)
		}
	}

	// A row-aligned partition cuts nothing below level 3 and earns its
	// hop floor as lookahead.
	part := tiled(t, p, 3, 2)
	comp := part.CutComposition(len(p.Levels), p.ClassOf)
	if comp[0] != 0 || comp[1] != 0 || comp[2] != 0 || comp[3] != part.CutLinks() || part.CutLinks() == 0 {
		t.Errorf("row-aligned cut composition %v, want [0 0 0 %d] and non-empty", comp, part.CutLinks())
	}
	if got, want := p.LookaheadFor(part), p.hopLatency(row); got != want || want <= p.hopLatency(p.Levels[2].Link) {
		t.Errorf("row-aligned lookahead %v, want the row hop floor %v above the cabinet one", got, want)
	}

	// One packet over one row link: its traversal and energy land in
	// the fourth bucket, priced by the made-up block.
	eng := sim.New(1)
	f, err := NewFabric(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := topo.Coord{X: 3, Y: 7}, topo.Coord{X: 3, Y: 8}
	km := packet.KeyMask{Key: 0xc0, Mask: 0xffffffff}
	f.Node(src).Table.Add(Entry{km, LinkRoute(topo.North)})
	f.Node(dst).Table.Add(Entry{km, CoreRoute(0)})
	f.InjectMC(src, packet.NewMC(0xc0))
	eng.RunUntil(sim.Millisecond)
	if f.DeliveredMC() != 1 {
		t.Fatalf("delivered %d packets, want 1", f.DeliveredMC())
	}
	wire := f.WireActivity()
	frame := uint64(row.FrameCost(packet.MinWireSize).Transitions)
	for level, w := range wire {
		want := uint64(0)
		if level == 3 {
			want = frame
		}
		if w.Transitions != want || w.PJ != p.Levels[level].Link.EnergyPerTransition {
			t.Errorf("level %d wire activity %+v, want %d transitions at %g pJ",
				level, w, want, p.Levels[level].Link.EnergyPerTransition)
		}
	}
	if got, want := wire[3].Joules(), float64(frame)*row.EnergyPerTransition*1e-12; got != want {
		t.Errorf("row wire energy %g J, want %g J", got, want)
	}
}
