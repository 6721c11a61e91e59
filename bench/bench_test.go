package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"spinngo"
	"spinngo/internal/workload"
)

func readBenchmark(t *testing.T) *benchmark {
	t.Helper()
	bm, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestGeneratedDocuments checks what the generator promises of every
// document: it parses under the strict decoder, campaign events fall
// inside the timed phase and spare the gateway, and the two spread
// workloads differ in nothing but the exec strategy.
func TestGeneratedDocuments(t *testing.T) {
	runSeconds := float64(readBenchmark(t).RunSeconds)
	for seed := uint64(1); seed <= 3; seed++ {
		docs := map[string]*workload.Workload{}
		for _, s := range specs {
			for _, smoke := range []bool{false, true} {
				chunks := s.chunks(runSeconds, smoke)
				doc, err := s.document(seed, chunks, smoke)
				if err != nil {
					t.Fatal(err)
				}
				wl, err := workload.Parse(doc)
				if err != nil {
					t.Fatalf("%s seed %d smoke=%v: %v\n%s", s.Name, seed, smoke, err, doc)
				}
				if wl.Machine.Seed == 0 || wl.Machine.Workers != s.Workers || wl.Machine.Partition != s.Partition {
					t.Errorf("%s seed %d: machine %+v does not carry the seed and exec strategy", s.Name, seed, wl.Machine)
				}
				if got := len(spinngo.WorkloadChunks(wl)); got != chunks+2 {
					t.Errorf("%s: schedule of %d chunks, want %d timed + 2", s.Name, got, chunks)
				}
				if wl.Campaign != nil {
					if wl.Campaign.Seed == 0 {
						t.Errorf("%s: campaign seed not filled", s.Name)
					}
					for _, f := range wl.Campaign.Expand(wl.Machine.Width, wl.Machine.Height) {
						if f.AtMS >= chunks*s.ChunkMS {
							t.Errorf("%s: campaign event at %d ms is outside the %d ms timed phase", s.Name, f.AtMS, chunks*s.ChunkMS)
						}
						if f.Kind == workload.EvFailChip && f.X == 0 && f.Y == 0 {
							t.Errorf("%s seed %d: campaign kills the gateway chip", s.Name, seed)
						}
					}
				}
				if !smoke {
					docs[s.Name] = wl
				}
			}
		}
		w1, w2 := *docs["spread-8x8-w1"], *docs["spread-8x8-w2"]
		if w1.Machine.Workers == w2.Machine.Workers || w1.Machine.Partition == w2.Machine.Partition {
			t.Errorf("spread workloads share an exec strategy: %+v / %+v", w1.Machine, w2.Machine)
		}
		w2.Machine.Workers, w2.Machine.Partition = w1.Machine.Workers, w1.Machine.Partition
		if !reflect.DeepEqual(w1, w2) {
			t.Errorf("spread-8x8-w1 and -w2 differ beyond workers/partition:\n%+v\n%+v", w1, w2)
		}
	}
}

// TestSmoke runs every workload BENCHMARK.json declares small, untraced
// and traced, and checks the rows against what it declares.
func TestSmoke(t *testing.T) {
	bm := readBenchmark(t)
	if len(bm.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(bm.Workloads), len(specs))
	}
	if n := specs[0].chunks(float64(bm.RunSeconds), false); n < 100 {
		t.Errorf("run_seconds %d gives %d chunks, fewer than the 100 that leave ten beyond chunk_ms_p90", bm.RunSeconds, n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()
	for _, wl := range bm.Workloads {
		s, ok := findSpec(wl.Name)
		if !ok || !nameRE.MatchString(wl.Name) {
			t.Fatalf("workload %q of BENCHMARK.json: bad name or unknown to the harness", wl.Name)
		}
		plain, _, err := measure(bm, out, s, 1, float64(bm.RunSeconds), false, true)
		if err != nil {
			t.Fatal(err)
		}
		layers, tf, err := measure(bm, out, s, 1, float64(bm.RunSeconds), true, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(out, s.Name+".seed1.json")); err != nil {
			t.Errorf("%s: generated document not kept: %v", s.Name, err)
		}
		for _, r := range []*row{plain, layers} {
			if r.OpsFailed != 0 || r.Ops == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", s.Name, r.Traced, r.OpsFailed, r.Ops, r.Failures)
			}
		}
		checkMetrics(t, nameRE, s.Name, plain, bm.EndToEnd)
		checkMetrics(t, nameRE, s.Name, layers, bm.PerLayer)
		for _, name := range append(append([]string(nil), modelCounts...), engineCounts...) {
			if _, ok := layers.Metrics[name]; !ok {
				t.Errorf("%s: exact count %s is not a per-layer metric", s.Name, name)
			}
		}
		checkSpans(t, s.Name, tf)
	}
}

// checkMetrics asserts that the row holds exactly the declared metrics,
// each once, finite and in the declared unit.
func checkMetrics(t *testing.T, nameRE *regexp.Regexp, workload string, r *row, want []declared) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", workload, len(r.Metrics), len(want))
	}
	seen := map[string]bool{}
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		switch {
		case !nameRE.MatchString(d.Name) || seen[d.Name]:
			t.Errorf("metric name %q is declared twice or is not [A-Za-z0-9_.-]+", d.Name)
		case !ok:
			t.Errorf("%s: declared metric %s not reported", workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s in %q, declared %q", workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", workload, d.Name, m.Value)
		}
		seen[d.Name] = true
	}
}

// checkSpans asserts one root per workload, every child inside its
// parent, and no negative self time.
func checkSpans(t *testing.T, workload string, tf *traceFile) {
	t.Helper()
	if tf == nil || len(tf.Spans) == 0 || len(tf.Samples) != smokeChunks+1 {
		t.Fatalf("%s: traced run left no spans or not one sample per chunk boundary", workload)
	}
	roots := 0
	for _, s := range tf.Spans {
		if s.Workload != workload || s.EndNS < s.StartNS {
			t.Errorf("%s: bad span %+v", workload, s)
		}
		if s.Parent < 0 {
			roots++
			continue
		}
		p := tf.Spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("%s: span %s [%d,%d] outside its parent %s [%d,%d]", workload, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
	}
	if roots != 1 {
		t.Errorf("%s: %d root spans, want 1", workload, roots)
	}
	for id, self := range selfTimes(tf.Spans) {
		if self < 0 {
			t.Errorf("%s: span %s has self time %d ns", workload, tf.Spans[id].Name, self)
		}
	}
}

func TestMedianSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v              []float64
		median, spread float64
	}{
		// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 1},
		// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
		{[]float64{1, 2, 4, 8}, 3, 5.75 / 3},
		// statistics.quantiles([4, 1, 2], n=4) == [1.0, 2.0, 4.0]
		{[]float64{4, 1, 2}, 2, 1.5},
		{[]float64{7}, 7, 0},
	} {
		if median, spread := medianSpread(c.v); median != c.median || spread != c.spread {
			t.Errorf("medianSpread(%v) = %v, %v, want %v, %v", c.v, median, spread, c.median, c.spread)
		}
	}
}

// TestCompare builds small result files the way a set does, one row per
// run, and checks the verdicts: a model mismatch first, then ok / worse /
// unresolved against the bound, and a run that failed early is counted
// and kept out of the medians.
func TestCompare(t *testing.T) {
	bm := readBenchmark(t)
	// mk is a set whose runs measured run_s_per_bio_s as given and 10 for
	// everything else.
	mk := func(hash float64, runs ...float64) resultFile {
		var res resultFile
		for _, wl := range bm.Workloads {
			for _, v := range runs {
				r := row{Workload: wl.Name, Ops: 1, Metrics: map[string]metric{}}
				for _, d := range bm.EndToEnd {
					r.Metrics[d.Name] = metric{Value: 10, Unit: d.Unit}
				}
				r.Metrics["run_s_per_bio_s"] = metric{Value: v, Unit: "s/s"}
				res.Rows = append(res.Rows, r)
			}
			l := row{Workload: wl.Name, Traced: true, Metrics: map[string]metric{}}
			for _, d := range bm.PerLayer {
				l.Metrics[d.Name] = metric{Value: 1, Unit: d.Unit}
			}
			l.Metrics["model.report_hash"] = metric{Value: hash, Unit: "hash"}
			res.Layers = append(res.Layers, l)
		}
		return res
	}
	// A run that failed in set-up: one metric, one failed operation.
	failed := mk(7, 10, 10.1, 9.9)
	failed.Rows[0] = row{Workload: failed.Rows[0].Workload, Ops: 1, OpsFailed: 1,
		Metrics: map[string]metric{"setup_s": {Value: 99, Unit: "s"}}}
	short := mk(7, 10, 10.1, 9.9)
	short.Rows = short.Rows[setPasses:]

	dir := t.TempDir()
	write := func(name string, res resultFile) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, res); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(7, 10, 10.1, 9.9))
	cases := []struct {
		name  string
		b     resultFile
		worse bool
		want  string
	}{
		{"same", mk(7, 10, 10.1, 9.9), false, " ok (s/s"},
		{"slower", mk(7, 15, 15.1, 14.9), true, " worse "},
		{"a little slower", mk(7, 10.5, 10.6, 10.4), false, " ok (beyond the spread) "},
		{"faster", mk(7, 5, 5.1, 4.9), false, " ok (beyond the spread) "},
		{"noisy", mk(7, 10, 15, 20), false, " unresolved "},
		{"model", mk(8, 10, 10.1, 9.9), true, "MODEL MISMATCH"},
		{"failed", failed, true, "runs with failed operations: a=0 b=1"},
		{"short", short, true, "missing from one of the files"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		worse, err := compareFiles(&buf, bm, base, write(c.name+".json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: worse=%v, want %v with %q in:\n%s", c.name, worse, c.worse, c.want, buf.String())
		}
		if c.name == "model" && !strings.HasPrefix(buf.String(), "MODEL MISMATCH") {
			t.Errorf("model mismatch not printed first:\n%s", buf.String())
		}
		if c.name == "failed" && strings.Contains(buf.String(), " 99 ") {
			t.Errorf("the failed run's set-up time entered a median:\n%s", buf.String())
		}
	}
}

// selfTimes reports each span's duration minus the part its child spans
// cover, indexed by span ID.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}
