// Command spinnsim runs a declared workload on a simulated SpiNNaker
// machine, or resumes one from a checkpoint image, and prints the run
// report, each population's mean rate, campaign damage and, on request,
// an ASCII spike raster.
//
// Usage:
//
//	spinnsim -workload NAME|FILE [-workers N] [-partition P] [-snapshot FILE] [-raster]
//	spinnsim -restore FILE [-ms 500] [-workers N] [-partition P] [-snapshot FILE] [-raster]
//	spinnsim -workloads
//
// Each form also takes -cpuprofile FILE and -memprofile FILE.
//
// -workload runs a workload document — a JSON file path, or the name of
// a built-in registry entry (-workloads lists them). The document pins
// the machine, network, stimuli, fault campaign and run schedule.
//
// -restore resumes from an image written by -snapshot and runs -ms more
// biological milliseconds; the machine, model and seed come from the
// image.
//
// -workers and -partition pick the execution strategy only: any choice
// yields byte-identical results. Given on the command line, they
// override the document's. A restore keeps the image's recorded
// strategy unless either flag is given; a flag then left out means
// automatic.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"spinngo"
	"spinngo/internal/workload"
)

func main() {
	workloadRef := flag.String("workload", "", "run a declared workload: a JSON file path or a registry name (see -workloads)")
	listWorkloads := flag.Bool("workloads", false, "list the built-in workload registry and exit")
	workers := flag.Int("workers", 0, "simulation shards run in parallel (0 = automatic); any value yields the same results")
	partition := flag.String("partition", "auto", "shard geometry: bands, blocks, boards, cabinets or auto; any value yields the same results")
	snapshotPath := flag.String("snapshot", "", "write a checkpoint image to this file after the run")
	restorePath := flag.String("restore", "", "resume from a checkpoint image; the machine, model and seed come from the image")
	ms := flag.Int("ms", 500, "with -restore: biological ms to run past the image")
	raster := flag.Bool("raster", false, "print an ASCII spike raster of the largest population")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if msg := usageError(set, flag.Args(), *ms); msg != "" {
		fmt.Fprintf(flag.CommandLine.Output(), "spinnsim: %s\n", msg)
		flag.Usage()
		os.Exit(2)
	}

	if *memprofile != "" {
		defer writeHeapProfile(*memprofile) // whichever path the run takes
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	switch {
	case *listWorkloads:
		printRegistry()
	case *restorePath != "":
		image, err := os.ReadFile(*restorePath)
		if err != nil {
			log.Fatal(err)
		}
		var machine *spinngo.Machine
		if set["workers"] || set["partition"] {
			machine, err = spinngo.RestoreOn(image, *workers, *partition)
		} else {
			machine, err = spinngo.Restore(image)
		}
		if err != nil {
			log.Fatal(err)
		}
		defer machine.Close()
		st := machine.SimStats()
		fmt.Printf("restored %s (format v%d) onto %d %s shards\n",
			*restorePath, spinngo.SnapshotVersion, st.Shards, st.Geometry)
		rep, err := machine.Run(*ms)
		if err != nil {
			log.Fatal(err)
		}
		report(machine, rep, *ms, *snapshotPath, *raster)
	default:
		wl := resolveWorkload(*workloadRef)
		if !set["workers"] {
			*workers = wl.Machine.Workers
		}
		if !set["partition"] && wl.Machine.Partition != "" {
			*partition = wl.Machine.Partition
		}
		machine, rep := runWorkload(wl, *workers, *partition)
		defer machine.Close()
		report(machine, rep, wl.Run.BioMS, *snapshotPath, *raster)
	}
}

// usageError names what is wrong with a command line, or returns "":
// exactly one of -workload, -restore and -workloads, a positive -ms
// only with -restore, and no positional arguments.
func usageError(set map[string]bool, args []string, ms int) string {
	modes := 0
	for _, name := range []string{"workload", "restore", "workloads"} {
		if set[name] {
			modes++
		}
	}
	switch {
	case len(args) > 0:
		return fmt.Sprintf("unexpected argument %q: a machine is given by -workload or -restore", args[0])
	case modes == 0:
		return "give -workload, -restore or -workloads"
	case modes > 1:
		return "-workload, -restore and -workloads exclude each other"
	case set["ms"] && !set["restore"]:
		return "-ms applies only with -restore; a workload document sets its own run length"
	case ms <= 0:
		return fmt.Sprintf("-ms %d: the run length must be positive", ms)
	}
	return ""
}

// printRegistry lists the built-in workload documents.
func printRegistry() {
	for _, name := range workload.Names() {
		wl, err := workload.Get(name)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		campaign := ""
		if wl.Campaign != nil {
			campaign = fmt.Sprintf(" [campaign: %d events]", len(wl.Campaign.Events))
		}
		fmt.Printf("%-18s %dx%d, %dms%s\n    %s\n",
			name, wl.Machine.Width, wl.Machine.Height, wl.Run.BioMS, campaign, wl.Description)
	}
}

// writeHeapProfile writes the heap profile as it stands after a
// collection.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// resolveWorkload reads a workload document from a file, or else looks
// the reference up in the registry.
func resolveWorkload(ref string) *workload.Workload {
	data, readErr := os.ReadFile(ref)
	if readErr == nil {
		wl, err := workload.Parse(data)
		if err != nil {
			log.Fatalf("%s: %v", ref, err)
		}
		return wl
	}
	wl, getErr := workload.Get(ref)
	if getErr != nil {
		log.Fatalf("-workload %q: %v; %v (try -workloads)", ref, readErr, getErr)
	}
	return wl
}

// runWorkload prepares a workload document and runs it on its own chunk
// schedule, returning the machine and the last chunk's report.
func runWorkload(wl *workload.Workload, workers int, partition string) (*spinngo.Machine, *spinngo.RunReport) {
	fmt.Printf("workload %q: %s\n", wl.Name, wl.Description)
	machine, err := spinngo.PrepareWorkloadOn(wl, workers, partition)
	if err != nil {
		log.Fatal(err)
	}
	st := machine.SimStats()
	fmt.Printf("engine: %d %s shards, levels %s\n", st.Shards, st.Geometry, strings.Join(st.Levels, "/"))
	if wl.Campaign != nil {
		fmt.Printf("campaign armed: %d events (seed %d)\n", len(wl.Campaign.Events), wl.Campaign.Seed)
	}
	var rep *spinngo.RunReport
	for _, n := range spinngo.WorkloadChunks(wl) {
		if rep, err = machine.Run(n); err != nil {
			log.Fatal(err)
		}
	}
	return machine, rep
}

// report prints what a run of ranMS biological milliseconds left: the
// run report, each population's mean rate, campaign damage, the
// checkpoint written to snapshotPath (if any) and, with raster, the
// largest population's spikes over the span the run covered.
func report(m *spinngo.Machine, rep *spinngo.RunReport, ranMS int, snapshotPath string, raster bool) {
	fmt.Println()
	fmt.Print(rep)
	var biggest spinngo.Pop
	biggestN := 0
	for _, pop := range m.Pops() {
		fmt.Printf("%-16s %.1f Hz\n", pop.Name()+" rate:", m.MeanRateHz(pop))
		if pop.Size() > biggestN {
			biggest, biggestN = pop, pop.Size()
		}
	}
	if dead := m.DeadChips(); len(dead) > 0 {
		fmt.Printf("campaign:        %d chips dead, %d alive\n", len(dead), m.AliveChips())
	}
	if snapshotPath != "" {
		image, err := m.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(snapshotPath, image, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint:      %d bytes (format v%d) -> %s\n",
			len(image), spinngo.SnapshotVersion, snapshotPath)
	}
	if raster && biggestN > 0 {
		printRaster(m, biggest, int(rep.BioTimeMS)-ranMS, ranMS)
	}
}

// printRaster renders a population's spikes in the ms biological
// milliseconds from fromMS as a time-binned ASCII raster.
func printRaster(m *spinngo.Machine, p spinngo.Pop, fromMS, ms int) {
	const rows, cols = 20, 80
	binMS := (ms + cols - 1) / cols
	perRow := (p.Size() + rows - 1) / rows
	var grid [rows][cols]int
	for _, s := range m.Spikes(p) {
		t := int(s.TimeMS) - fromMS
		r, c := s.Neuron/perRow, t/binMS
		if r >= 0 && r < rows && t >= 0 && c < cols {
			grid[r][c]++
		}
	}
	fmt.Printf("\nraster of %q (%d neurons/row, %d ms/col):\n", p.Name(), perRow, binMS)
	glyphs := " .:*#@"
	for r := rows - 1; r >= 0; r-- {
		for c := 0; c < cols; c++ {
			g := grid[r][c]
			if g >= len(glyphs) {
				g = len(glyphs) - 1
			}
			fmt.Print(string(glyphs[g]))
		}
		fmt.Println()
	}
}
