package main

import (
	"fmt"
	"sort"
	"time"
)

// benchmark is the part of BENCHMARK.json the harness reads. The file is
// the one declaration of the workloads' names, the metrics' names, units
// and directions, the end-to-end bounds and the measuring time; the
// harness keeps no copy of them.
type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// declared is one metric of BENCHMARK.json; only end-to-end metrics
// carry a bound.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmark, error) {
	var b benchmark
	if err := readJSON(path, &b); err != nil {
		return nil, err
	}
	if b.RunSeconds < 1 || len(b.Workloads) == 0 || len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no run_seconds, workloads or metrics", path)
	}
	return &b, nil
}

// Counts made by the program that must repeat exactly between two runs
// of one commit, seed and size. modelCounts are simulated statistics: a
// change meant only to speed the simulator up must leave them identical.
// engineCounts say how the engine got there and may move with it.
var (
	modelCounts = []string{
		"model.report_hash",
		"router.packets_delivered", "router.packets_dropped", "router.emergency_invocations", "router.drop_share",
		"neural.spikes", "neural.stdp_updates", "neural.synapse_writebacks",
		"kernel.instructions", "kernel.overruns",
	}
	engineCounts = []string{
		"sim.events", "sim.windows", "sim.handoffs", "sim.batch_runs", "sim.batched_windows",
		"sim.parallel_windows", "sim.repartitions", "sim.lookahead_ns", "sim.cut_links",
	}
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is the result of one workload run: the end-to-end metrics with
// tracing off, or the per-layer metrics of a traced run.
type row struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Chunks   int     `json:"chunks"`
	ChunkMS  int     `json:"chunk_ms"`
	// ChunkWallMS is the wall time of every Run(chunk) of the timed phase,
	// in order: the samples behind chunk_ms_p50 and chunk_ms_p90.
	ChunkWallMS []float64         `json:"chunk_wall_ms,omitempty"`
	Ops         int               `json:"ops"`
	OpsFailed   int               `json:"ops_failed"`
	Failures    []string          `json:"failures,omitempty"`
	NProc       int               `json:"nproc"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	GoVersion   string            `json:"go_version"`
	Metrics     map[string]metric `json:"metrics"`

	// declared is what BENCHMARK.json declares for this kind of row: the
	// units, and the order the metrics print in.
	declared []declared
}

// resultFile is bench/out/result.json: setPasses untraced rows per
// workload, one per run, and after a traced set one per-layer row per
// workload.
type resultFile struct {
	Schema int   `json:"schema"`
	Rows   []row `json:"rows"`
	Layers []row `json:"layers,omitempty"`
}

// traceFile is one workload's entry in bench/out/trace.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Spans    []span   `json:"spans"`
	Samples  []sample `json:"samples"`
}

func (r *row) setChunks(walls []time.Duration) {
	r.ChunkWallMS = make([]float64, len(walls))
	for i, d := range walls {
		r.ChunkWallMS[i] = millis(d)
	}
}

// set records a declared metric; an undeclared name is a harness bug.
func (r *row) set(name string, v float64) {
	for _, d := range r.declared {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in BENCHMARK.json")
}

// print writes the row's metrics by name and unit in declaration order.
func (r *row) print() {
	for _, d := range r.declared {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("%-14s %-32s %14.6g %s\n", r.Workload, d.Name, m.Value, m.Unit)
		}
	}
	fmt.Printf("%-14s %-32s %14d\n", r.Workload, "ops", r.Ops)
	fmt.Printf("%-14s %-32s %14d\n", r.Workload, "ops_failed", r.OpsFailed)
	for _, f := range r.Failures {
		fmt.Printf("%-14s FAILED: %s\n", r.Workload, f)
	}
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the nearest-rank p-th percentile of the samples.
func percentile(ds []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(p/100*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median and spread summarise one metric over the runs of a set: the
// median, and the distance between the quartiles as a share of it. The
// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// gives (exclusive method), so the spread matches the one the acceptance
// driver computes. One run has no spread.
func medianSpread(v []float64) (median, spread float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	median = cut(2)
	if median == 0 {
		return 0, 0
	}
	return median, (cut(3) - cut(1)) / median
}
