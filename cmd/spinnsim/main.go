// Command spinnsim builds a configurable stimulus-driven spiking network
// on a simulated SpiNNaker machine and runs it in biological time,
// printing the run report and an ASCII spike raster — the quickstart
// workflow of the public API as a one-shot tool.
//
// Usage:
//
//	spinnsim [-w 4] [-h 4] [-neurons 400] [-stim 100] [-rate 150]
//	         [-p 0.05] [-weight 0.8] [-delay 2] [-ms 500]
//	         [-faillink "1,1,E"] [-raster] [-seed 1] [-workers 0]
//	         [-partition auto] [-boards WxH] [-boardlink slow]
//	         [-cabinets WxH] [-cabinetlink slow]
//	         [-snapshot ckpt.snap] [-restore ckpt.snap]
//	         [-workload storm-campaign] [-workloads]
//	         [-cpuprofile run.cpu.pprof] [-memprofile run.mem.pprof]
//
// -snapshot writes a checkpoint image after the run; -restore resumes
// from one instead of building a machine (only -ms, -workers, -partition,
// -faillink, -raster and -snapshot apply then — the machine, model and
// seed all come from the image, and any choice of workers/partition
// yields byte-identical results).
//
// -workload runs a declared workload document — a JSON file path, or
// the name of a built-in registry entry (-workloads lists them). The
// document pins the machine, network, stimuli, fault campaign and run
// schedule; only -workers, -partition, -raster and -snapshot apply
// alongside it, and the execution strategy never changes the results.
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
	w := flag.Int("w", 4, "mesh width in chips")
	h := flag.Int("h", 4, "mesh height in chips")
	neurons := flag.Int("neurons", 400, "excitatory LIF population size")
	stim := flag.Int("stim", 100, "Poisson stimulus sources")
	rate := flag.Float64("rate", 150, "stimulus rate, Hz")
	p := flag.Float64("p", 0.05, "stimulus->exc connection probability")
	weight := flag.Float64("weight", 0.8, "synaptic weight, nA")
	delay := flag.Int("delay", 2, "synaptic delay, ms")
	ms := flag.Int("ms", 500, "biological run time, ms")
	failLink := flag.String("faillink", "", "fail a link, e.g. \"1,1,E\"")
	raster := flag.Bool("raster", false, "print an ASCII spike raster")
	seed := flag.Uint64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "simulation shards run in parallel (0 = automatic); any value yields the same results")
	partition := flag.String("partition", "auto", "shard geometry: bands, blocks, boards, cabinets or auto; any value yields the same results")
	boards := flag.String("boards", "", "board tiling in chips, e.g. \"8x2\" ('' = uniform fabric); board-crossing links use board-to-board PHY params")
	boardlink := flag.String("boardlink", "", "board-to-board link preset: slow (default) or uniform; requires -boards")
	cabinets := flag.String("cabinets", "", "cabinet tiling in boards, e.g. \"2x2\" ('' = no cabinet level); requires -boards; cabinet-crossing links use cabinet-to-cabinet PHY params")
	cabinetlink := flag.String("cabinetlink", "", "cabinet-to-cabinet link preset: slow (default) or uniform; requires -cabinets")
	workloadRef := flag.String("workload", "", "run a declared workload: a JSON file path or a registry name (see -workloads)")
	listWorkloads := flag.Bool("workloads", false, "list the built-in workload registry and exit")
	snapshotPath := flag.String("snapshot", "", "write a checkpoint image to this file after the run")
	restorePath := flag.String("restore", "", "resume from a checkpoint image; -workers/-partition pick the execution strategy, everything else comes from the image")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

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

	if *listWorkloads {
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
		return
	}
	if *workloadRef != "" {
		runWorkload(*workloadRef, *workers, *partition, *snapshotPath, *raster)
		return
	}

	var machine *spinngo.Machine
	var stimPop, excPop spinngo.Pop
	havePops := false
	if *restorePath != "" {
		image, err := os.ReadFile(*restorePath)
		if err != nil {
			log.Fatal(err)
		}
		machine, err = spinngo.RestoreOn(image, *workers, *partition)
		if err != nil {
			log.Fatal(err)
		}
		st := machine.SimStats()
		fmt.Printf("restored %s (format v%d) onto %d %s shards\n",
			*restorePath, spinngo.SnapshotVersion, st.Shards, st.Geometry)
		// The quickstart model names its populations stim/exc; images
		// from other programs still run, just without the rate summary.
		var okStim, okExc bool
		stimPop, okStim = machine.Pop("stim")
		excPop, okExc = machine.Pop("exc")
		havePops = okStim && okExc
	} else {
		var err error
		machine, err = spinngo.NewMachine(spinngo.MachineConfig{
			Width: *w, Height: *h, Seed: *seed, Workers: *workers, Partition: *partition,
			Boards: *boards, BoardLinkParams: *boardlink,
			Cabinets: *cabinets, CabinetLinkParams: *cabinetlink,
		})
		if err != nil {
			log.Fatal(err)
		}
		st := machine.SimStats()
		fmt.Printf("engine: %d %s shards, levels %s\n", st.Shards, st.Geometry, strings.Join(st.Levels, "/"))
		fmt.Printf("cut:    %d links (%v by level)\n", st.CutLinks, st.CutLinksByLevel)
		fmt.Printf("lookahead: %v (uniform-params bound %v)\n", st.Lookahead, st.UniformLookahead)
		bootRep, err := machine.Boot()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("booted %d chips, %d application cores (flood-fill load %.1f ms)\n",
			bootRep.Chips, bootRep.AppCores, bootRep.LoadTimeMS)

		model := spinngo.NewModel()
		stimPop = model.AddPoisson("stim", *stim, *rate)
		excPop = model.AddLIF("exc", *neurons, spinngo.DefaultLIFConfig())
		havePops = true
		if err := model.Connect(stimPop, excPop, spinngo.Conn{
			Rule: spinngo.RandomRule, P: *p, WeightNA: *weight, DelayMS: *delay,
		}); err != nil {
			log.Fatal(err)
		}
		loadRep, err := machine.Load(model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %d fragments, %d synapses (%d B), %d router entries (max/chip %d)\n",
			loadRep.Fragments, loadRep.Synapses, loadRep.SynapseBytes,
			loadRep.TableEntries, loadRep.MaxChipTable)
		fmt.Printf("host data load:  %.2f ms of simulated Ethernet+fabric time (pipelined batch)\n",
			loadRep.LoadTimeMS)
	}

	if *failLink != "" {
		var x, y int
		var dir string
		parts := strings.Split(*failLink, ",")
		if len(parts) != 3 {
			log.Fatalf("bad -faillink %q", *failLink)
		}
		if _, err := fmt.Sscanf(parts[0]+" "+parts[1], "%d %d", &x, &y); err != nil {
			log.Fatalf("bad -faillink %q: %v", *failLink, err)
		}
		dir = strings.TrimSpace(parts[2])
		if err := machine.FailLink(x, y, dir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("failed link (%d,%d) %s\n", x, y, dir)
	}

	if *ms <= 0 {
		log.Fatalf("non-positive run length %d ms", *ms)
	}
	rep, err := machine.Run(*ms)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep)
	if havePops {
		fmt.Printf("stim rate:       %.1f Hz\n", machine.MeanRateHz(stimPop))
		fmt.Printf("exc rate:        %.1f Hz\n", machine.MeanRateHz(excPop))
	}
	st := machine.SimStats()
	fmt.Printf("engine:          %d windows (%d parallel, %.1f events/window)\n",
		st.Windows, st.ParallelWindows, st.EventsPerWindow)
	fmt.Printf("hand-offs:       %d (%d batched runs covering %d windows)\n",
		st.Handoffs, st.BatchRuns, st.BatchedWindows)
	fmt.Printf("partition:       %s/%d shards after %d repartitions (lookahead %v)\n",
		st.Geometry, st.Shards, st.Repartitions, st.Lookahead)
	fmt.Printf("host:            %d engine transitions (boot phases + batched loads)\n",
		st.HostTransitions)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Printf("memory:          %.1f MiB heap in use, %d of %d chips instantiated\n",
		float64(mem.HeapInuse)/(1<<20), machine.InstantiatedChips(), machine.TorusChips())

	if *snapshotPath != "" {
		image, err := machine.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*snapshotPath, image, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint:      %d bytes (format v%d) -> %s\n",
			len(image), spinngo.SnapshotVersion, *snapshotPath)
	}
	if *raster && havePops {
		printRaster(machine, excPop, *ms)
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

// runWorkload resolves, prepares and runs a declared workload document
// on its own chunk schedule, printing the report, per-population rates,
// and campaign damage.
func runWorkload(ref string, workers int, partition, snapshotPath string, raster bool) {
	var wl *workload.Workload
	if data, readErr := os.ReadFile(ref); readErr == nil {
		var err error
		if wl, err = workload.Parse(data); err != nil {
			log.Fatalf("%s: %v", ref, err)
		}
	} else {
		var getErr error
		if wl, getErr = workload.Get(ref); getErr != nil {
			log.Fatalf("-workload %q: %v; %v (try -workloads)", ref, readErr, getErr)
		}
	}
	// Flags override the document's execution strategy when given; the
	// strategy never changes the results either way.
	if workers == 0 {
		workers = wl.Machine.Workers
	}
	if partition == "auto" && wl.Machine.Partition != "" {
		partition = wl.Machine.Partition
	}
	fmt.Printf("workload %q: %s\n", wl.Name, wl.Description)
	machine, err := spinngo.PrepareWorkloadOn(wl, workers, partition)
	if err != nil {
		log.Fatal(err)
	}
	defer machine.Close()
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
	fmt.Println()
	fmt.Print(rep)
	var biggest spinngo.Pop
	biggestN := 0
	for _, p := range wl.Populations {
		pop, ok := machine.Pop(p.Name)
		if !ok {
			continue
		}
		fmt.Printf("%-16s %.1f Hz\n", p.Name+" rate:", machine.MeanRateHz(pop))
		if pop.Size() > biggestN {
			biggest, biggestN = pop, pop.Size()
		}
	}
	if dead := machine.DeadChips(); len(dead) > 0 {
		fmt.Printf("campaign:        %d chips dead, %d alive\n", len(dead), machine.AliveChips())
	}
	if snapshotPath != "" {
		image, err := machine.Snapshot()
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
		printRaster(machine, biggest, wl.Run.BioMS)
	}
}

// printRaster renders population spikes as a time-binned ASCII raster.
func printRaster(m *spinngo.Machine, p spinngo.Pop, ms int) {
	const cols = 80
	rows := 20
	binMS := (ms + cols - 1) / cols
	perRow := (p.Size() + rows - 1) / rows
	grid := make([][]int, rows)
	for i := range grid {
		grid[i] = make([]int, cols)
	}
	for _, s := range m.Spikes(p) {
		r := s.Neuron / perRow
		c := int(s.TimeMS) / binMS
		if r >= 0 && r < rows && c >= 0 && c < cols {
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
