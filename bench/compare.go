package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles prints, per workload and end-to-end metric, the median of
// each set's runs, the ratio b/a with its base, each set's run-to-run
// spread and a verdict against the metric's bound: unresolved when
// either spread is wider than the bound, else worse or ok. An ok whose
// medians differ by more than both spreads says so. Before that
// it prints every exact count that differs, simulated statistics first.
// It reports whether anything was worse, differed or was missing.
func compareFiles(w io.Writer, bm *benchmark, pathA, pathB string) (worse bool, err error) {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	find := func(rows []row, name string) *row {
		for i := range rows {
			if rows[i].Workload == name {
				return &rows[i]
			}
		}
		return nil
	}

	// Exact counts: a model mismatch means the two sets did not simulate
	// the same thing, so it is printed before any timing.
	for _, c := range []struct {
		kind  string
		names []string
	}{{"MODEL", modelCounts}, {"count", engineCounts}} {
		for _, wl := range bm.Workloads {
			ra, rb := find(a.Layers, wl.Name), find(b.Layers, wl.Name)
			if ra == nil || rb == nil {
				continue
			}
			for _, name := range c.names {
				va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
				if va != vb {
					fmt.Fprintf(w, "%s MISMATCH %-14s %-30s a=%.17g b=%.17g\n", c.kind, wl.Name, name, va, vb)
					worse = true
				}
			}
		}
	}

	fmt.Fprintf(w, "%-14s %-18s %12s %12s %8s %9s %9s %6s  %s\n",
		"workload", "metric", "a", "b", "b/a", "spread a", "spread b", "bound", "verdict")
	for _, wl := range bm.Workloads {
		for _, d := range bm.EndToEnd {
			va, failedA := runsOf(a.Rows, wl.Name, d.Name)
			vb, failedB := runsOf(b.Rows, wl.Name, d.Name)
			if failedA+failedB > 0 && d.Name == bm.EndToEnd[0].Name {
				fmt.Fprintf(w, "%-14s runs with failed operations: a=%d b=%d\n", wl.Name, failedA, failedB)
				worse = true
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-18s missing from one of the files\n", wl.Name, d.Name)
				worse = true
				continue
			}
			ma, sa := medianSpread(va)
			mb, sb := medianSpread(vb)
			ratio := mb / ma
			change := ratio - 1 // positive = worse for "lower"
			if d.Better == "higher" {
				change = 1 - ratio
			}
			verdict := "ok"
			switch {
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse = true
			case math.Abs(change) > max(sa, sb):
				// A real difference that the bound lets pass.
				verdict = "ok (beyond the spread)"
			}
			fmt.Fprintf(w, "%-14s %-18s %12.6g %12.6g %7.3fx %8.1f%% %8.1f%% %5.0f%%  %s (%s, base a, %d and %d runs)\n",
				wl.Name, d.Name, ma, mb, ratio, 100*sa, 100*sb, 100*d.Bound, verdict, d.Unit, len(va), len(vb))
		}
	}
	return worse, nil
}

// runsOf collects one metric of one workload from every run of a set in
// which no operation failed, and counts the runs in which one did.
func runsOf(rows []row, workload, name string) (values []float64, failed int) {
	for _, r := range rows {
		if r.Workload != workload {
			continue
		}
		if r.OpsFailed > 0 {
			failed++
			continue
		}
		if m, ok := r.Metrics[name]; ok && m.Value != 0 {
			values = append(values, m.Value)
		}
	}
	return values, failed
}
