package sim

import (
	"math"
	"testing"
)

func TestStatsMoments(t *testing.T) {
	var s Stats
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if s.Max() != 9 {
		t.Errorf("Max = %g, want 9", s.Max())
	}
	var neg Stats
	neg.Add(-3)
	neg.Add(-5)
	if neg.Max() != -3 {
		t.Errorf("Max of negative samples = %g, want -3", neg.Max())
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Max() != 0 || s.N() != 0 {
		t.Error("empty stats should be all-zero")
	}
}
