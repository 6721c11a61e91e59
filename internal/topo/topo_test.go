package topo

import (
	"testing"
	"testing/quick"

	"spinngo/internal/sim"
)

func TestDirVectorsFormTriangles(t *testing.T) {
	// Each direction's emergency detour legs must sum to the direction
	// itself — the triangle of Fig 8 closes.
	for d := Dir(0); int(d) < NumDirs; d++ {
		f, s := d.Emergency()
		dx, dy := d.Vector()
		fx, fy := f.Vector()
		sx, sy := s.Vector()
		if fx+sx != dx || fy+sy != dy {
			t.Errorf("%v: detour %v+%v = (%d,%d), want (%d,%d)", d, f, s, fx+sx, fy+sy, dx, dy)
		}
	}
}

func TestOpposite(t *testing.T) {
	for d := Dir(0); int(d) < NumDirs; d++ {
		o := d.Opposite()
		dx, dy := d.Vector()
		ox, oy := o.Vector()
		if dx+ox != 0 || dy+oy != 0 {
			t.Errorf("%v.Opposite() = %v, vectors do not cancel", d, o)
		}
		if o.Opposite() != d {
			t.Errorf("Opposite not an involution for %v", d)
		}
	}
}

func TestWrap(t *testing.T) {
	tr := MustTorus(8, 6)
	cases := []struct{ in, want Coord }{
		{Coord{0, 0}, Coord{0, 0}},
		{Coord{8, 6}, Coord{0, 0}},
		{Coord{-1, -1}, Coord{7, 5}},
		{Coord{17, -7}, Coord{1, 5}},
	}
	for _, c := range cases {
		if got := tr.Wrap(c.in); got != c.want {
			t.Errorf("Wrap(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	tr := MustTorus(5, 7)
	for i := 0; i < tr.Size(); i++ {
		if got := tr.Index(tr.CoordOf(i)); got != i {
			t.Errorf("Index(CoordOf(%d)) = %d", i, got)
		}
	}
}

func TestDistanceKnownValues(t *testing.T) {
	tr := MustTorus(8, 8)
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{1, 0}, 1},
		{Coord{0, 0}, Coord{1, 1}, 1}, // diagonal is one hop
		{Coord{0, 0}, Coord{2, 1}, 2},
		{Coord{0, 0}, Coord{7, 0}, 1}, // wraps west
		{Coord{0, 0}, Coord{7, 1}, 2}, // W then N (opposite signs)
		{Coord{0, 0}, Coord{4, 4}, 4}, // straight diagonal
		{Coord{2, 3}, Coord{2, 3}, 0},
	}
	for _, c := range cases {
		if got := tr.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	tr := MustTorus(9, 5)
	f := func(ax, ay, bx, by uint8) bool {
		a := tr.Wrap(Coord{int(ax), int(ay)})
		b := tr.Wrap(Coord{int(bx), int(by)})
		return tr.Distance(a, b) == tr.Distance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	tr := MustTorus(7, 7)
	rng := sim.NewRNG(11)
	for i := 0; i < 2000; i++ {
		a := Coord{rng.Intn(7), rng.Intn(7)}
		b := Coord{rng.Intn(7), rng.Intn(7)}
		c := Coord{rng.Intn(7), rng.Intn(7)}
		if tr.Distance(a, c) > tr.Distance(a, b)+tr.Distance(b, c) {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestNextDirReducesDistance(t *testing.T) {
	tr := MustTorus(12, 10)
	rng := sim.NewRNG(3)
	for i := 0; i < 2000; i++ {
		a := Coord{rng.Intn(12), rng.Intn(10)}
		b := Coord{rng.Intn(12), rng.Intn(10)}
		if a == b {
			continue
		}
		d, ok := tr.NextDir(a, b)
		if !ok {
			t.Fatalf("NextDir(%v,%v) reported done for distinct nodes", a, b)
		}
		n := tr.Neighbor(a, d)
		if tr.Distance(n, b) != tr.Distance(a, b)-1 {
			t.Fatalf("step %v from %v toward %v does not reduce distance", d, a, b)
		}
	}
}

func TestPathLengthEqualsDistance(t *testing.T) {
	tr := MustTorus(16, 16)
	rng := sim.NewRNG(4)
	for i := 0; i < 500; i++ {
		a := Coord{rng.Intn(16), rng.Intn(16)}
		b := Coord{rng.Intn(16), rng.Intn(16)}
		// Following NextDir from a reaches b in exactly Distance steps.
		steps, cur := 0, tr.Wrap(a)
		for d, ok := tr.NextDir(cur, tr.Wrap(b)); ok; d, ok = tr.NextDir(cur, tr.Wrap(b)) {
			cur = tr.Neighbor(cur, d)
			if steps++; steps > tr.Distance(a, b) {
				break
			}
		}
		if steps != tr.Distance(a, b) || cur != tr.Wrap(b) {
			t.Fatalf("path from %v: %d steps to %v, want %d to %v", a, steps, cur, tr.Distance(a, b), tr.Wrap(b))
		}
	}
}

func TestNeighborsAreAdjacent(t *testing.T) {
	tr := MustTorus(6, 6)
	for d := Dir(0); int(d) < NumDirs; d++ {
		n := tr.Neighbor(Coord{3, 3}, d)
		if tr.Distance(Coord{3, 3}, n) != 1 {
			t.Errorf("neighbor in %v at distance %d", d, tr.Distance(Coord{3, 3}, n))
		}
	}
}

func TestMaxDistance(t *testing.T) {
	// For a square n x n triangular torus the diameter is ~2n/3.
	tr := MustTorus(9, 9)
	if got := tr.MaxDistance(); got != 6 {
		t.Errorf("MaxDistance(9x9) = %d, want 6", got)
	}
	tr = MustTorus(2, 2)
	if got := tr.MaxDistance(); got < 1 || got > 2 {
		t.Errorf("MaxDistance(2x2) = %d, want 1..2", got)
	}
}

func TestNewTorusRejectsBadShape(t *testing.T) {
	if _, err := NewTorus(0, 4); err == nil {
		t.Error("0-width torus accepted")
	}
	if _, err := NewTorus(4, -1); err == nil {
		t.Error("negative-height torus accepted")
	}
}

func TestNextDirSelfIsNotOK(t *testing.T) {
	tr := MustTorus(4, 4)
	if _, ok := tr.NextDir(Coord{1, 1}, Coord{1, 1}); ok {
		t.Error("NextDir to self should report !ok")
	}
}

func TestDeltaMinimality(t *testing.T) {
	// Delta must pick the wrap combination minimising hexHops, and
	// walking that delta greedily must reach the target.
	tr := MustTorus(10, 10)
	f := func(ax, ay, bx, by uint8) bool {
		a := tr.Wrap(Coord{int(ax), int(ay)})
		b := tr.Wrap(Coord{int(bx), int(by)})
		dx, dy := tr.Delta(a, b)
		return tr.Wrap(Coord{a.X + dx, a.Y + dy}) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
