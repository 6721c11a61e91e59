package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestStatsMoments(t *testing.T) {
	s := NewStats()
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", got)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if got := s.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Var = %g, want %g", got, 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", s.Min(), s.Max())
	}
}

func TestStatsEmpty(t *testing.T) {
	s := NewStats()
	if s.Mean() != 0 || s.Std() != 0 || s.N() != 0 {
		t.Error("empty stats should be all-zero")
	}
	if s.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestStatsPercentile(t *testing.T) {
	s := NewStats()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %g, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %g, want 100", got)
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("P50 = %g, want 50.5", got)
	}
}

func TestStatsPercentileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		s := NewStats()
		for i := 0; i < 200; i++ {
			s.Add(r.Float64() * 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return s.Percentile(0) == s.Min() && s.Percentile(100) == s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryStatsPanicsOnPercentile(t *testing.T) {
	s := NewSummaryStats()
	s.Add(1)
	defer func() {
		if recover() == nil {
			t.Error("Percentile on summary stats did not panic")
		}
	}()
	s.Percentile(50)
}

func TestStatsAddTime(t *testing.T) {
	s := NewStats()
	s.AddTime(2 * Millisecond)
	s.AddTime(4 * Millisecond)
	if got := s.Mean(); got != 3 {
		t.Errorf("mean = %g ms, want 3", got)
	}
}

func TestStatsSumAndString(t *testing.T) {
	s := NewStats()
	s.Add(2)
	s.Add(4)
	if got := s.Sum(); got != 6 {
		t.Errorf("Sum = %g, want 6", got)
	}
	if got := s.String(); !strings.Contains(got, "n=2") || !strings.Contains(got, "mean=3") {
		t.Errorf("String = %q, want n=2 / mean=3", got)
	}
}
