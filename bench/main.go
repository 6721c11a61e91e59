// Command bench is spinngo's benchmark: five named workloads run through
// the public workload surface, eight end-to-end metrics per workload with
// tracing off, and a traced run that adds harness-side spans, counter
// deltas and fixed-size layer drives. See README.md.
//
//	bash bench/run.sh                       every workload three times, untraced
//	bash bench/run.sh -trace 1              ... then every workload once, traced
//	bash bench/run.sh -workload dense-8x8 -seed 3 -seconds 10 -trace 0
//	bash bench/run.sh -compare a.json b.json
//
// With -workload the process is the workload's own fresh process and its
// last line of output is the one-object result BENCHMARK.json's driver
// reads; without it, one child process is started per workload and pass
// and the rows are gathered into bench/out/result.json (and trace.json).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// setPasses is how many times a set runs each workload untraced, so
// that result.json carries a run-to-run spread for -compare to hold
// against each bound. The passes are interleaved — every workload once,
// then every workload again — so one slow spell of the host lands on one
// run of a workload and not on all of them.
const setPasses = 3

func main() {
	name := flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
	seed := flag.Uint64("seed", 1, "workload seed: fills machine.seed, the projection seeds and campaign.seed")
	secs := flag.Float64("seconds", 0, "measuring time the timed phase is sized for on the reference host (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 records spans and counters and runs the layer drives")
	compare := flag.Bool("compare", false, "compare two result.json files given as arguments")
	flag.Parse()

	// Paths are relative to the repo root, where run.sh starts the binary.
	bm, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("bench: -compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, bm, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *secs == 0 {
		*secs = float64(bm.RunSeconds)
	}
	if *secs < 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("bench: need -seconds > 0 and -trace 0 or 1"))
	}
	out := filepath.Join("bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	// Two threads at most, so a result means the same on any host with
	// at least the reference host's two cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *name != "" {
		os.Exit(runOne(bm, out, *name, *seed, *secs, *trace == 1))
	}
	ok, err := runSet(bm, out, *seed, *secs, *trace == 1)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func rowPath(out, workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(out, fmt.Sprintf("row-%s-t%d.json", workload, t))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// measure runs one workload in this process, writing the generated
// document to out so the run can be repeated from its inputs alone.
func measure(bm *benchmark, out string, s spec, seed uint64, secs float64, traced, smoke bool) (*row, *traceFile, error) {
	h, err := newHarness(bm, s, seed, secs, traced, smoke)
	if err != nil {
		return nil, nil, err
	}
	doc := filepath.Join(out, fmt.Sprintf("%s.seed%d.json", s.Name, seed))
	if err := os.WriteFile(doc, h.doc, 0o644); err != nil {
		return nil, nil, err
	}
	if traced {
		return h.traced()
	}
	r, err := h.endToEnd()
	return r, nil, err
}

// runOne is the -workload mode. It prints the row, leaves it (and the
// spans) in out for a parent to gather, and ends with the one-line
// result object. The exit status is 1 when an operation failed.
func runOne(bm *benchmark, out, name string, seed uint64, secs float64, traced bool) int {
	s, ok := findSpec(name)
	if !ok {
		fatal(fmt.Errorf("bench: unknown workload %q", name))
	}
	r, tf, err := measure(bm, out, s, seed, secs, traced, false)
	if err != nil {
		fatal(err)
	}
	r.print()
	// The spans first: a parent that finds the row takes the spans to be
	// of the same run.
	if tf != nil {
		if err := writeJSON(filepath.Join(out, "trace-"+name+".json"), tf); err != nil {
			fatal(err)
		}
	}
	if err := writeJSON(rowPath(out, name, traced), r); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.OpsFailed == 0, r.Ops, r.OpsFailed, r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if r.OpsFailed > 0 {
		return 1
	}
	return 0
}

// runSet runs every workload in a fresh child process each, so heap, RSS
// and GC state do not leak from one to the next: setPasses passes
// untraced, then one traced when asked. It gathers the rows into
// result.json and the spans into trace.json. A child that fails leaves
// the set incomplete, which -compare reports; the set goes on.
func runSet(bm *benchmark, out string, seed uint64, secs float64, traced bool) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	res := resultFile{Schema: 1}
	var traces []traceFile
	ok := true
	passes := make([]bool, setPasses, setPasses+1)
	if traced {
		passes = append(passes, true)
	}
	for _, tr := range passes {
		traceArg := "0"
		if tr {
			traceArg = "1"
		}
		for _, wl := range bm.Workloads {
			// Removed first, so that a child that dies cannot pass off the
			// row of an earlier run as its own.
			if err := os.Remove(rowPath(out, wl.Name, tr)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return false, err
			}
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", traceArg)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var r row
			if err := readJSON(rowPath(out, wl.Name, tr), &r); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: no row from the child (%v): %v\n", wl.Name, runErr, err)
				ok = false
				continue
			}
			ok = ok && runErr == nil && r.OpsFailed == 0
			if !tr {
				res.Rows = append(res.Rows, r)
				continue
			}
			res.Layers = append(res.Layers, r)
			var tf traceFile
			if err := readJSON(filepath.Join(out, "trace-"+wl.Name+".json"), &tf); err != nil {
				return false, err
			}
			traces = append(traces, tf)
		}
	}
	if err := writeJSON(filepath.Join(out, "result.json"), res); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s\n", filepath.Join(out, "result.json"))
	if traced {
		if err := writeJSON(filepath.Join(out, "trace.json"), traces); err != nil {
			return false, err
		}
		fmt.Printf("wrote %s\n", filepath.Join(out, "trace.json"))
	}
	return ok, nil
}
