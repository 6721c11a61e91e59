// Command spinnbench runs the paper-reproduction experiment suite
// (E1-E14 plus ablations A1-A2; the runners live in internal/experiments) and
// prints each result as a table with a verdict comparing the measured
// shape against the paper's claim.
//
// Usage:
//
//	spinnbench [-only E5,E6] [-seed N] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spinngo/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	seed := flag.Uint64("seed", 1, "base random seed")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast pass")
	flag.Parse()

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	want := func(id string) bool { return len(wanted) == 0 || wanted[id] }

	trials := 6
	meshes := []int{4, 8, 16, 32}
	pairs := 80
	if *quick {
		trials = 2
		meshes = []int{4, 8}
		pairs = 20
	}

	type runner struct {
		id  string
		run func() (*experiments.Table, error)
	}
	runners := []runner{
		{"E1", func() (*experiments.Table, error) { return experiments.E1LinkCodes(), nil }},
		{"E2", func() (*experiments.Table, error) { return experiments.E2GlitchDeadlock(trials, *seed), nil }},
		{"E3", func() (*experiments.Table, error) { return experiments.E3TokenReset(2000, *seed), nil }},
		{"E4", func() (*experiments.Table, error) { return experiments.E4EventKernel(*seed), nil }},
		{"E5", func() (*experiments.Table, error) { return experiments.E5DeliveryLatency(meshes, pairs, *seed) }},
		{"E6", func() (*experiments.Table, error) { return experiments.E6EmergencyRouting(*seed) }},
		{"E7", func() (*experiments.Table, error) { return experiments.E7DropPolicy(*seed) }},
		{"E8", func() (*experiments.Table, error) { return experiments.E8MonitorElection(1000, *seed), nil }},
		{"E9", func() (*experiments.Table, error) {
			return experiments.E9FloodFill(meshes, []int{1, 2, 4}, *seed)
		}},
		{"E10", func() (*experiments.Table, error) { return experiments.E10Energy(), nil }},
		{"E11", func() (*experiments.Table, error) {
			return experiments.E11MulticastVsBroadcast(16, []int{10, 100, 1000, 4000}, *seed)
		}},
		{"E12", func() (*experiments.Table, error) {
			return experiments.E12Retina([]float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.5}, *seed)
		}},
		{"E13", func() (*experiments.Table, error) { return experiments.E13DeferredEvents(*seed) }},
		{"E14", func() (*experiments.Table, error) { return experiments.E14BoundedAsynchrony() }},
		{"A1", func() (*experiments.Table, error) { return experiments.AblationTableMinimisation(*seed) }},
		{"A2", func() (*experiments.Table, error) { return experiments.AblationPlacement(*seed) }},
	}

	failures := 0
	for _, r := range runners {
		if !want(r.id) {
			continue
		}
		tbl, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", r.id, err)
			failures++
			continue
		}
		fmt.Println(tbl.Render())
		if !strings.HasPrefix(tbl.Verdict, "MATCHES PAPER") {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) diverged from the paper\n", failures)
		os.Exit(1)
	}
}
