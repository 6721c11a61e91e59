package sim

import (
	"fmt"
	"math"
	"sort"
)

// Stats accumulates summary statistics over a stream of float64 samples
// using Welford's online algorithm, and retains samples for exact
// percentile queries. It is the workhorse for experiment reporting.
type Stats struct {
	n       int
	mean    float64
	m2      float64
	min     float64
	max     float64
	samples []float64
	keep    bool
}

// NewStats returns a Stats that retains individual samples (needed for
// percentiles). Use NewSummaryStats when only moments are required and
// memory matters.
func NewStats() *Stats { return &Stats{keep: true} }

// NewSummaryStats returns a Stats that keeps only running moments.
func NewSummaryStats() *Stats { return &Stats{} }

// Add records one sample.
func (s *Stats) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if s.keep {
		s.samples = append(s.samples, x)
	}
}

// AddTime records a Time sample in milliseconds.
func (s *Stats) AddTime(t Time) { s.Add(t.Millis()) }

// N reports the number of samples.
func (s *Stats) N() int { return s.n }

// Mean reports the sample mean (0 if empty).
func (s *Stats) Mean() float64 { return s.mean }

// Var reports the unbiased sample variance (0 if fewer than 2 samples).
func (s *Stats) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std reports the sample standard deviation.
func (s *Stats) Std() float64 { return math.Sqrt(s.Var()) }

// Min reports the smallest sample (0 if empty).
func (s *Stats) Min() float64 { return s.min }

// Max reports the largest sample (0 if empty).
func (s *Stats) Max() float64 { return s.max }

// Sum reports n*mean.
func (s *Stats) Sum() float64 { return s.mean * float64(s.n) }

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation over retained samples. It panics if samples were not
// retained.
func (s *Stats) Percentile(p float64) float64 {
	if !s.keep {
		panic("sim: Percentile on summary-only Stats")
	}
	if s.n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.samples...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// String renders "n=.. mean=.. std=.. min=.. max=..".
func (s *Stats) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}

// TimeStats accumulates duration samples in integer arithmetic, so the
// totals are independent of accumulation order and mergeable across
// shards: a sharded run tallies per shard and merges at report time,
// producing byte-identical summaries for any worker count.
type TimeStats struct {
	N   uint64
	Sum Time
	Max Time
}

// Add records one duration sample.
func (s *TimeStats) Add(d Time) {
	s.N++
	s.Sum += d
	if d > s.Max {
		s.Max = d
	}
}

// Merge folds another accumulator into this one.
func (s *TimeStats) Merge(o TimeStats) {
	s.N += o.N
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// MeanMicros reports the sample mean in microseconds (0 if empty).
func (s TimeStats) MeanMicros() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N) / float64(Microsecond)
}

// MaxMicros reports the largest sample in microseconds.
func (s TimeStats) MaxMicros() float64 { return s.Max.Micros() }
