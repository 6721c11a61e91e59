package sim

// Stats accumulates the count, running mean (Welford's update) and
// maximum of a stream of float64 samples, as the experiment tables
// report them. The zero value is empty and ready to use.
type Stats struct {
	n    int
	mean float64
	max  float64
}

// Add records one sample.
func (s *Stats) Add(x float64) {
	s.n++
	if s.n == 1 || x > s.max {
		s.max = x
	}
	s.mean += (x - s.mean) / float64(s.n)
}

// N reports the number of samples.
func (s *Stats) N() int { return s.n }

// Mean reports the sample mean (0 if empty).
func (s *Stats) Mean() float64 { return s.mean }

// Max reports the largest sample (0 if empty).
func (s *Stats) Max() float64 { return s.max }

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
