package sim

import (
	"math"
	"slices"
	"testing"
)

// boolHits is the reference EachBool must match: n calls of Bool(p).
func boolHits(r *RNG, n int, p float64) []int {
	var hits []int
	for j := 0; j < n; j++ {
		if r.Bool(p) {
			hits = append(hits, j)
		}
	}
	return hits
}

// checkEachBool runs EachBool and the Bool loop from the same state and
// requires the same hits and the same final state.
func checkEachBool(t *testing.T, r *RNG, n int, p float64) {
	t.Helper()
	ref := *r
	want := boolHits(&ref, n, p)
	var got []int
	r.EachBool(n, p, func(j int) { got = append(got, j) })
	if !slices.Equal(got, want) {
		t.Errorf("n=%d p=%g: EachBool hit %d trials, Bool %d (first hits %v vs %v)",
			n, p, len(got), len(want), prefix(got), prefix(want))
	}
	if r.s != ref.s {
		t.Errorf("n=%d p=%g: EachBool left state %x, Bool %x", n, p, r.s, ref.s)
	}
}

func prefix(s []int) []int { return s[:min(len(s), 8)] }

func TestEachBoolMatchesBool(t *testing.T) {
	ps := []float64{0, 0x1p-60, 1e-9, 0.0125, 1.0 / 3, 0.5, 1 - 0x1p-53, 1, 1.5, -1, math.NaN()}
	for _, n := range []int{0, 1, 100_000} {
		for i, p := range ps {
			checkEachBool(t, NewRNG(uint64(n*len(ps)+i+1)), n, p)
		}
	}
	// At p = k/2^53 the threshold is exact: a draw with x>>11 = k misses
	// and one with x>>11 = k-1 hits. Peek each draw's k, then try both
	// sides of it, and the next float above k/2^53, which the draw hits.
	r := NewRNG(42)
	for range 1000 {
		at := *r
		k := r.Uint64() >> 11
		for _, c := range []struct {
			p   float64
			hit bool
		}{
			{float64(k) / (1 << 53), false},
			{float64(k+1) / (1 << 53), true},
			{math.Nextafter(float64(k)/(1<<53), 1), true},
		} {
			trial := at
			hit := false
			trial.EachBool(1, c.p, func(int) { hit = true })
			if hit != c.hit {
				t.Fatalf("x>>11 = %d, p = %d/2^53: hit %v, want %v", k, uint64(c.p*(1<<53)), hit, c.hit)
			}
			trial = at
			checkEachBool(t, &trial, 1, c.p)
		}
		// Move on with a run long enough to land some hits.
		checkEachBool(t, r, 64, float64(k)/(1<<53))
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1600} {
		r := NewRNG(uint64(n) + 5)
		ref := *r
		want := ref.Perm(n)
		got := make([]int, n)
		for i := range got {
			got[i] = -1 // PermInto must not read what p held
		}
		r.PermInto(got)
		if !slices.Equal(got, want) {
			t.Errorf("n=%d: PermInto %v, Perm %v", n, prefix(got), prefix(want))
		}
		if r.s != ref.s {
			t.Errorf("n=%d: PermInto left state %x, Perm %x", n, r.s, ref.s)
		}
	}
}
