package topo

import "fmt"

// Tile is the chip footprint of one unit of a packaging level: 1x1 for a
// chip, W x H for a board of W x H chips (the paper's 48-chip boards are
// 8x6), a multiple of the board tile for a cabinet of boards. The tiles
// of a level cover the torus exactly. A link whose endpoints sit in
// different tiles leaves the unit: it crosses the connectors and cables
// of that level. The zero Tile means "no such level" and never crosses.
type Tile struct {
	W, H int
}

// ParseTile parses the "WxH" notation configuration uses ("8x6"; "2x2"
// for a cabinet of two by two boards, scaled to chips with Of).
func ParseTile(s string) (Tile, error) {
	var g Tile
	// The %c probe rejects trailing garbage ("8x2x2", "8x6mm"), which
	// Sscanf alone would silently truncate into a different tiling.
	var trailing byte
	if n, _ := fmt.Sscanf(s, "%dx%d%c", &g.W, &g.H, &trailing); n != 2 {
		return Tile{}, fmt.Errorf("topo: bad tile %q (want \"WxH\")", s)
	}
	if g.W <= 0 || g.H <= 0 {
		return Tile{}, fmt.Errorf("topo: bad tile %q (non-positive side)", s)
	}
	return g, nil
}

// String renders the "WxH" notation; the zero tile renders "none".
func (g Tile) String() string {
	if g.IsZero() {
		return "none"
	}
	return fmt.Sprintf("%dx%d", g.W, g.H)
}

// IsZero reports whether g is the zero tile (no such level).
func (g Tile) IsZero() bool { return g == Tile{} }

// Of reports the chip footprint of g measured in units of below: a
// W x H-board cabinet of bW x bH-chip boards is a W·bW x H·bH-chip
// rectangle. Either tile being zero makes the result zero, which no
// torus accepts — a level holds units of the level below, not bare chips.
func (g Tile) Of(below Tile) Tile { return Tile{W: g.W * below.W, H: g.H * below.H} }

// Validate checks that the tiles cover t exactly: a partial unit would
// leave chips with no physical home.
func (g Tile) Validate(t Torus) error {
	if g.W <= 0 || g.H <= 0 {
		return fmt.Errorf("topo: invalid tile %dx%d", g.W, g.H)
	}
	if t.W%g.W != 0 || t.H%g.H != 0 {
		return fmt.Errorf("topo: %dx%d-chip tiles do not tile the %dx%d torus", g.W, g.H, t.W, t.H)
	}
	return nil
}

// Grid reports how many tiles cover the torus along each axis.
func (g Tile) Grid(t Torus) (w, h int) { return t.W / g.W, t.H / g.H }

// CellOf reports the tile-grid cell holding the chip at c (which must be
// a canonical on-torus coordinate).
func (g Tile) CellOf(c Coord) (x, y int) { return c.X / g.W, c.Y / g.H }

// Crosses reports whether the directed link leaving c in direction d
// leaves c's tile. Torus wrap links always cross: on the physical
// machine the wrap-around is cabled between edge units, so it crosses
// even when one unit spans that axis. The zero tile never crosses.
func (g Tile) Crosses(c Coord, d Dir) bool {
	if g.IsZero() {
		return false
	}
	dx, dy := d.Vector()
	// Unwrapped neighbour cell: floor division keeps -1 and W on the
	// far side of the tile edge, so wraps register as crossings.
	return floorDiv(c.X+dx, g.W) != c.X/g.W || floorDiv(c.Y+dy, g.H) != c.Y/g.H
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
