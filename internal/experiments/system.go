package experiments

import (
	"fmt"

	"spinngo"
	"spinngo/internal/chip"
	"spinngo/internal/energy"
	"spinngo/internal/kernel"
	"spinngo/internal/neural"
	"spinngo/internal/packet"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// E4EventKernel reproduces the Fig-7 real-time event-driven model: one
// application core simulating 256 LIF neurons holds its 1 ms timer while
// incoming spike rates sweep upward; the WFI sleep fraction falls and
// eventually real time is lost — the machine is designed to run in the
// regime where it is kept.
func E4EventKernel(seed uint64) *Table {
	t := &Table{
		ID:    "E4",
		Title: "event-driven kernel under rising input load (Fig 7)",
		Claim: "cores hold the 1 ms real-time tick, sleeping in WFI when idle; overload is visible as timer overruns",
		Columns: []string{"input spikes/ms", "ticks", "overruns", "real-time",
			"sleep fraction", "dma/ms", "instr/ms"},
	}
	okLight := false
	overloaded := false
	for _, rate := range []int{0, 10, 50, 200, 1200} {
		eng := sim.New(seed)
		sdram := chip.NewSDRAM(eng)
		dma := chip.NewDMAController(eng, sdram)
		core := kernel.NewCore(eng, kernel.DefaultConfig())
		pop := neural.NewLIFPopulation(256, neural.MaxSynDelay, neural.DefaultLIF())
		// A synthetic 100-synapse row for every source key.
		row := make(neural.Row, 100)
		for i := range row {
			row[i] = neural.MakeSynWord(64, 1+i%15, false, i%256)
		}
		dma.OnDone = core.PostDMADone
		core.On(kernel.EvPacket, func(ev kernel.Event) uint64 {
			dma.Enqueue(chip.DMARequest{Size: row.SizeBytes(), Tag: ev.Pkt.Key})
			return 80
		})
		core.On(kernel.EvDMADone, func(kernel.Event) uint64 { return pop.ProcessRow(row) })
		core.On(kernel.EvTimer, func(kernel.Event) uint64 { return pop.StepTick() })
		core.Start()
		// Poisson spike arrivals at `rate` per ms.
		if rate > 0 {
			perSec := float64(rate) * 1000
			var arrive func()
			arrive = func() {
				core.PostPacket(packet.NewMC(uint32(eng.RNG().Intn(1 << 16))))
				eng.AfterP(sim.Time(eng.RNG().Exp(perSec)*float64(sim.Second)), sim.Func(arrive))
			}
			eng.AfterP(sim.Time(eng.RNG().Exp(perSec)*float64(sim.Second)), sim.Func(arrive))
		}
		const ticks = 200
		eng.RunUntil(ticks * sim.Millisecond)
		core.Stop()
		t.AddRow(d(rate), d(ticks), u(core.Overruns), fmt.Sprintf("%v", core.RealTime()),
			f3(core.SleepFraction()),
			f1(float64(dma.Completed)/ticks),
			f1(float64(core.Instructions)/ticks))
		if rate <= 200 && core.RealTime() {
			okLight = true
		}
		if rate >= 1200 && !core.RealTime() {
			overloaded = true
		}
	}
	t.Verdict = verdict(okLight && overloaded,
		"real time holds through realistic rates; saturation shows as overruns",
		"real-time envelope unexpected")
	return t
}

// E8MonitorElection reproduces the section-5.2 symmetry-breaking claim:
// "one and only one processor is chosen as Monitor", for any pattern of
// failed cores.
func E8MonitorElection(trials int, seed uint64) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "monitor processor election with failed cores",
		Claim:   "the read-sensitive arbiter elects exactly one healthy monitor whatever cores have failed",
		Columns: []string{"failed cores", "trials", "unique monitor", "healthy winner", "no-monitor"},
	}
	eng := sim.New(seed)
	ok := true
	for _, failed := range []int{0, 1, 5, 10, 19, 20} {
		unique, healthy, none := 0, 0, 0
		for i := 0; i < trials; i++ {
			ch := chip.New(eng, topo.Coord{}, chip.CoresPerChip, nil)
			for k := 0; k < failed; k++ {
				ch.Cores[k].InjectedFault = true
			}
			id, err := ch.ElectMonitor(eng.RNG())
			if err != nil {
				none++
				continue
			}
			monitors := 0
			for _, c := range ch.Cores {
				if c.State == chip.CoreMonitor {
					monitors++
				}
			}
			if monitors == 1 {
				unique++
			}
			if !ch.Cores[id].InjectedFault {
				healthy++
			}
		}
		t.AddRow(d(failed), d(trials), d(unique), d(healthy), d(none))
		if failed < chip.CoresPerChip && (unique != trials || healthy != trials) {
			ok = false
		}
		if failed == chip.CoresPerChip && none != trials {
			ok = false
		}
	}
	t.Verdict = verdict(ok,
		"exactly one healthy monitor in every trial with any survivor",
		"election failed uniqueness or healthiness")
	return t
}

// E9FloodFill reproduces the section-5.2 loading claim: "load times
// almost independent of the size of the machine, with trade-offs between
// load time and the degree of fault-tolerance". Each cell boots a machine
// and reports how long its system-image flood fill took.
func E9FloodFill(sizes []int, redundancies []int, seed uint64) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "flood-fill application load vs machine size and redundancy",
		Claim:   "load time is almost independent of machine size; redundancy trades time for fault tolerance",
		Columns: []string{"mesh", "chips", "redundancy", "loaded", "load time us"},
	}
	var first, last float64
	for _, n := range sizes {
		for _, r := range redundancies {
			loaded, loadUS, err := bootLoad(n, r, seed)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%dx%d", n, n), d(n*n), d(r), d(loaded), f1(loadUS))
			if r == redundancies[0] {
				if first == 0 {
					first = loadUS
				}
				last = loadUS
			}
		}
	}
	growth := last / first
	chipsGrowth := float64(sizes[len(sizes)-1]*sizes[len(sizes)-1]) / float64(sizes[0]*sizes[0])
	t.AddRow("load-time growth", f2(growth), "", "", fmt.Sprintf("machine growth %.0fx", chipsGrowth))
	t.Verdict = verdict(growth < chipsGrowth/4,
		fmt.Sprintf("load time grew %.2fx while the machine grew %.0fx", growth, chipsGrowth),
		fmt.Sprintf("load time growth %.2fx too steep", growth))
	return t, nil
}

// bootLoad boots an n x n machine flooding at redundancy r and reports
// how many chips hold the image and how long the load took in
// microseconds. Boot fails unless every image block reached every alive
// chip.
func bootLoad(n, r int, seed uint64) (loaded int, loadUS float64, err error) {
	m, err := spinngo.NewMachine(spinngo.MachineConfig{Width: n, Height: n, Seed: seed, FillRedundancy: r})
	if err != nil {
		return 0, 0, err
	}
	defer m.Close()
	rep, err := m.Boot()
	if err != nil {
		return 0, 0, err
	}
	return m.AliveChips(), rep.LoadTimeMS * 1000, nil
}

// E10Energy reproduces the sections 2-3.3 cost arguments: MIPS/mm2
// parity, an order of magnitude in MIPS/W, and the ~3-year
// purchase/energy crossover for a PC.
func E10Energy() *Table {
	t := &Table{
		ID:    "E10",
		Title: "energy frugality: embedded node vs desktop PC",
		Claim: "similar MIPS/mm2, ~10x MIPS/W, PC energy cost passes purchase cost after ~3 years",
		Columns: []string{"device", "MIPS", "W", "MIPS/W", "MIPS/mm2", "capital $",
			"crossover yr", "$/GIPS-yr (3yr life)"},
	}
	o := energy.DefaultOwnership()
	node := energy.SpiNNakerNode()
	pc := energy.DesktopPC()
	for _, dev := range []energy.DeviceModel{node, pc} {
		t.AddRow(dev.Name, f1(dev.MIPS), f2(dev.ActiveW), f1(dev.MIPSPerWatt()),
			f1(dev.MIPSPerMM2()), f1(dev.CapitalUSD),
			f2(o.CrossoverYears(dev)), f2(o.USDPerGIPSYear(dev, 3)))
	}
	powerRatio := node.MIPSPerWatt() / pc.MIPSPerWatt()
	areaRatio := node.MIPSPerMM2() / pc.MIPSPerMM2()
	cross := o.CrossoverYears(pc)
	t.AddRow("node/pc ratio", "", "", f1(powerRatio), f2(areaRatio), "", "", "")
	t.Verdict = verdict(powerRatio >= 10 && areaRatio > 1.0/3 && areaRatio < 3 && cross >= 3 && cross < 4,
		fmt.Sprintf("MIPS/W x%.0f, MIPS/mm2 x%.2f, PC crossover %.2f yr", powerRatio, areaRatio, cross),
		"ratios off the paper's claims")
	return t
}
