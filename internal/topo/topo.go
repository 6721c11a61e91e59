// Package topo provides the geometry of the SpiNNaker machine: a
// two-dimensional toroidal mesh of chips with triangular facets (paper
// Figs 1 and 2). Each chip has six links — east, north-east, north,
// west, south-west, south — and the triangular facets give every link two
// companion links forming a triangle, used by 'emergency routing' to pass
// traffic around a failed or congested link (Fig 8).
package topo

import "fmt"

// Dir is one of the six link directions, in anticlockwise order starting
// at east. The ordering matters: the emergency detour for direction d is
// the pair (d+1, d-1) mod 6, the two other sides of the triangle.
type Dir int

// The six SpiNNaker link directions.
const (
	East Dir = iota
	NorthEast
	North
	West
	SouthWest
	South
	NumDirs int = 6
)

var dirNames = [...]string{"E", "NE", "N", "W", "SW", "S"}

var dirVectors = [...][2]int{
	{1, 0},   // E
	{1, 1},   // NE
	{0, 1},   // N
	{-1, 0},  // W
	{-1, -1}, // SW
	{0, -1},  // S
}

// String names the direction ("E", "NE", ...).
func (d Dir) String() string {
	if d < 0 || int(d) >= NumDirs {
		return fmt.Sprintf("dir(%d)", int(d))
	}
	return dirNames[d]
}

// Vector reports the unit step of this direction.
func (d Dir) Vector() (dx, dy int) { return dirVectors[d][0], dirVectors[d][1] }

// Opposite reports the reverse direction; a packet sent on d arrives at
// the neighbour's Opposite input port.
func (d Dir) Opposite() Dir { return Dir((int(d) + 3) % NumDirs) }

// Emergency reports the two-leg detour around a blocked link in
// direction d: first (d+1) mod 6, then (d-1) mod 6. The leg vectors sum
// to d's vector, closing the mesh triangle of Fig 8.
func (d Dir) Emergency() (first, second Dir) {
	return Dir((int(d) + 1) % NumDirs), Dir((int(d) + 5) % NumDirs)
}

// Coord is a chip position in the mesh.
type Coord struct{ X, Y int }

// String renders "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Add applies a direction step (without torus wrapping).
func (c Coord) Add(d Dir) Coord {
	dx, dy := d.Vector()
	return Coord{c.X + dx, c.Y + dy}
}

// Torus is a W x H toroidal triangular mesh.
type Torus struct {
	W, H int
}

// NewTorus validates and returns a torus of the given dimensions.
func NewTorus(w, h int) (Torus, error) {
	if w <= 0 || h <= 0 {
		return Torus{}, fmt.Errorf("topo: invalid torus %dx%d", w, h)
	}
	return Torus{W: w, H: h}, nil
}

// MustTorus is NewTorus for static configurations; it panics on error.
func MustTorus(w, h int) Torus {
	t, err := NewTorus(w, h)
	if err != nil {
		panic(err)
	}
	return t
}

// Size reports the number of chips.
func (t Torus) Size() int { return t.W * t.H }

// Wrap maps any coordinate onto the torus.
func (t Torus) Wrap(c Coord) Coord {
	x := c.X % t.W
	if x < 0 {
		x += t.W
	}
	y := c.Y % t.H
	if y < 0 {
		y += t.H
	}
	return Coord{x, y}
}

// Contains reports whether c is a canonical on-torus coordinate.
func (t Torus) Contains(c Coord) bool {
	return c.X >= 0 && c.X < t.W && c.Y >= 0 && c.Y < t.H
}

// Index maps a coordinate to a dense node index (y*W + x).
func (t Torus) Index(c Coord) int { c = t.Wrap(c); return c.Y*t.W + c.X }

// CoordOf inverts Index.
func (t Torus) CoordOf(i int) Coord { return Coord{i % t.W, i / t.W} }

// Neighbor reports the chip one hop away in direction d.
func (t Torus) Neighbor(c Coord, d Dir) Coord { return t.Wrap(c.Add(d)) }

// hexHops is the hop count of a displacement on the triangular lattice:
// when dx and dy share a sign the diagonal covers both at once, so the
// cost is max(|dx|,|dy|); otherwise every step helps only one axis.
func hexHops(dx, dy int) int {
	if (dx >= 0) == (dy >= 0) {
		return max(abs(dx), abs(dy))
	}
	return abs(dx) + abs(dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Delta reports the minimal displacement from a to b on the torus under
// the triangular-lattice metric, considering all wrap choices.
func (t Torus) Delta(a, b Coord) (dx, dy int) {
	a, b = t.Wrap(a), t.Wrap(b)
	rawX := b.X - a.X
	rawY := b.Y - a.Y
	bestHops := -1
	for _, cx := range wrapChoices(rawX, t.W) {
		for _, cy := range wrapChoices(rawY, t.H) {
			if h := hexHops(cx, cy); bestHops < 0 || h < bestHops {
				bestHops = h
				dx, dy = cx, cy
			}
		}
	}
	return dx, dy
}

func wrapChoices(raw, size int) [2]int {
	if raw >= 0 {
		return [2]int{raw, raw - size}
	}
	return [2]int{raw, raw + size}
}

// Distance reports the minimal hop count from a to b.
func (t Torus) Distance(a, b Coord) int { return hexHops(t.Delta(a, b)) }

// NextDir reports the first hop of a shortest path from a to b; ok is
// false when a == b. The greedy rule — take the diagonal while both axes
// agree, else fix the remaining axis — reduces Distance by exactly one
// per step.
func (t Torus) NextDir(a, b Coord) (d Dir, ok bool) {
	dx, dy := t.Delta(a, b)
	switch {
	case dx == 0 && dy == 0:
		return 0, false
	case dx > 0 && dy > 0:
		return NorthEast, true
	case dx < 0 && dy < 0:
		return SouthWest, true
	case dx > 0:
		return East, true
	case dx < 0:
		return West, true
	case dy > 0:
		return North, true
	default:
		return South, true
	}
}

// MaxDistance reports the network diameter (worst-case Distance). The
// torus is vertex-transitive, so scanning distances from the origin
// suffices; for a square n x n triangular torus the diameter is ~2n/3.
func (t Torus) MaxDistance() int {
	origin := Coord{0, 0}
	d := 0
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			if h := t.Distance(origin, Coord{x, y}); h > d {
				d = h
			}
		}
	}
	return d
}
