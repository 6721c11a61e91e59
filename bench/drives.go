package main

import (
	"fmt"
	"runtime"
	"time"

	"spinngo"
	"spinngo/internal/kernel"
	"spinngo/internal/neural"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
	"spinngo/internal/workload"
)

// The layer drives: fixed-op-count loops over one layer's public
// functions, timed from outside. They do not depend on the workload
// (only workload.parse reads its document); every traced run repeats
// them so each per-layer row is complete. Each drive builds its fixture
// off the clock and reports the wall time of its loop per operation.
// Op counts keep each drive near a tenth of a second and the whole set
// near three seconds on the reference host (the 32x32 boot is half of it);
// the smoke test runs them at 1/100.

// runDrives runs every drive under its own span; each fills its metrics
// into the row.
func runDrives(r *row, h *harness) error {
	div, side := 1, 32
	if h.smoke {
		div, side = 100, 8
	}
	n := func(ops int) int { return max(ops/div, 1) }
	drives := []struct {
		name string
		run  func() error
	}{
		{"sim.queue", func() error { return driveQueue(r, n(2_000_000)) }},
		{"sim.post", func() error { return drivePost(r, n(1_000_000)) }},
		{"sim.empty_handoff", func() error { return driveEmptyHandoff(r, n(1_000_000)) }},
		{"router.hop_hit", func() error { return driveHops(r, "hit", n(200_000)) }},
		{"router.hop_default", func() error { return driveHops(r, "default", n(200_000)) }},
		{"router.hop_emergency", func() error { return driveHops(r, "emergency", n(50_000)) }},
		{"router.fanout", func() error { return driveFanout(r, n(50_000)) }},
		{"router.table_lookup", func() error { return driveLookup(r, n(400_000)) }},
		{"neural.lif", func() error {
			p := neural.NewLIFPopulation(256, neural.MaxSynDelay, neural.DefaultLIF())
			return driveStep(r, "neural.lif_ns_per_neuron_tick", p, 0.45, n(200_000))
		}},
		{"neural.izh", func() error {
			p := neural.NewIzhikevichPopulation(256, neural.MaxSynDelay, neural.RegularSpiking())
			return driveStep(r, "neural.izh_ns_per_neuron_tick", p, 5, n(50_000))
		}},
		{"neural.row", func() error { return driveRow(r, n(200_000)) }},
		{"neural.stdp", func() error { return driveSTDP(r, n(100_000)) }},
		{"kernel.dispatch", func() error { return driveDispatch(r, n(1_000_000)) }},
		{"boot", func() error { return driveBoot(r, side) }},
		{"workload.parse", func() error { return driveParse(r, h.doc, n(5_000)) }},
		{"workload.expand", func() error { return driveExpand(r, h.seed, n(5_000)) }},
	}
	for _, d := range drives {
		var err error
		h.tr.timed("drive."+d.name, func() { err = d.run() })
		if err != nil {
			return err
		}
	}
	return nil
}

// perOp is the wall time since start per operation, in nanoseconds.
func perOp(start time.Time, ops int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// holdEv is the classic hold model: each executed event schedules
// itself again a pseudo-random delay ahead, so the pending count stays
// constant while the queue churns.
type holdEv struct {
	eng *sim.Engine
	rng uint64
}

func (p *holdEv) Run() {
	p.rng = p.rng*6364136223846793005 + 1442695040888963407
	p.eng.AtP(p.eng.Now()+sim.Time(1+p.rng>>54), p)
}
func (p *holdEv) EventDesc() *sim.Desc { return &sim.Desc{Kind: "bench.hold"} }

// driveQueue runs the hold model at 4096 pending events through
// Engine.AtP / RunUntil and reports wall nanoseconds and mallocs per
// executed event.
func driveQueue(r *row, events int) error {
	const pending = 4096
	eng := sim.New(1)
	evs := make([]holdEv, pending)
	for i := range evs {
		evs[i] = holdEv{eng: eng, rng: uint64(i)*2654435761 + 1}
		eng.AtP(sim.Time(1+i%1024), &evs[i])
	}
	// Mean delay 512 ns with 4096 tokens: 8 events per simulated ns.
	warm := sim.Time(pending / 8)
	eng.RunUntil(warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := eng.Processed()
	start := time.Now()
	eng.RunUntil(warm + sim.Time(events/8+1))
	n := int(eng.Processed() - before)
	r.set("sim.queue_ns_per_event", perOp(start, n))
	runtime.ReadMemStats(&m1)
	r.set("sim.queue_allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	return nil
}

// pingEv bounces between two shards through the mail arenas: each
// delivery posts its peer back across the cut one lookahead ahead.
type pingEv struct {
	pe       *sim.ParallelEngine
	src, dst int
	dstDom   *sim.Domain
	peer     *pingEv
	seq      uint64
	left     *int
}

func (p *pingEv) Run() {
	if *p.left > 0 {
		*p.left--
		p.seq++
		at := p.pe.Shard(p.src).Now() + driveLookahead
		p.pe.PostP(p.src, p.dst, p.dstDom, at, int32(p.src), p.seq, p.peer)
	}
}
func (p *pingEv) EventDesc() *sim.Desc { return &sim.Desc{Kind: "bench.ping"} }

const driveLookahead = 100 * sim.Nanosecond

// drivePost ping-pongs one message between two shards on two workers,
// posted exactly at the lookahead: every message costs one window, one
// arena append and one barrier drain.
func drivePost(r *row, msgs int) error {
	pe := sim.NewParallel(1, 2, 2)
	defer pe.Close()
	pe.SetLookahead(driveLookahead)
	d0, d1 := pe.Shard(0).Domain(0), pe.Shard(1).Domain(1)
	left := msgs
	a := &pingEv{pe: pe, src: 0, dst: 1, dstDom: d1, left: &left}
	b := &pingEv{pe: pe, src: 1, dst: 0, dstDom: d0, left: &left}
	a.peer, b.peer = b, a
	d0.AfterP(1, a)
	start := time.Now()
	pe.RunUntil(sim.Time(msgs+2) * driveLookahead)
	r.set("sim.post_ns_per_msg", perOp(start, msgs))
	return nil
}

// tickEv re-arms itself every period on its own domain.
type tickEv struct {
	d      *sim.Domain
	period sim.Time
}

func (p *tickEv) Run()                 { p.d.AfterP(p.period, p) }
func (p *tickEv) EventDesc() *sim.Desc { return &sim.Desc{Kind: "bench.tick"} }

// driveEmptyHandoff runs windows that hold one event each on
// alternating shards, so no window can batch with the next: what is
// timed is the hand-off and barrier themselves, per hand-off.
func driveEmptyHandoff(r *row, windows int) error {
	pe := sim.NewParallel(1, 2, 2)
	defer pe.Close()
	pe.SetLookahead(driveLookahead)
	d0, d1 := pe.Shard(0).Domain(0), pe.Shard(1).Domain(1)
	d0.AfterP(1, &tickEv{d: d0, period: 2 * driveLookahead})
	d1.AfterP(1+driveLookahead, &tickEv{d: d1, period: 2 * driveLookahead})
	before := pe.Handoffs()
	start := time.Now()
	pe.RunUntil(sim.Time(windows+1) * driveLookahead)
	r.set("sim.empty_handoff_ns", perOp(start, int(pe.Handoffs()-before)))
	return nil
}

// lineFabric is an 8x8 fabric on one engine with a key routed east
// along row 0 from (0,0) to a core of (4,0).
func lineFabric(kind string) (*sim.Engine, *router.Fabric, error) {
	eng := sim.New(1)
	fab, err := router.NewFabric(eng, router.DefaultParams(8, 8))
	if err != nil {
		return nil, nil, fmt.Errorf("bench: drive fabric: %w", err)
	}
	km := packet.KeyMask{Key: 1, Mask: 0xffffffff}
	for x := 0; x <= driveHopCount; x++ {
		route := router.LinkRoute(topo.East)
		switch {
		case x == driveHopCount:
			route = router.CoreRoute(0)
		case x > 0 && kind == "default":
			continue // no entry: the packet carries straight on
		}
		if err := fab.Node(topo.Coord{X: x}).Table.Add(router.Entry{Match: km, Route: route}); err != nil {
			return nil, nil, fmt.Errorf("bench: drive fabric: %w", err)
		}
	}
	if kind == "emergency" {
		fab.FailLink(topo.Coord{X: 2}, topo.East)
	}
	return eng, fab, nil
}

const driveHopCount = 4

// driveHops injects packets one at a time down the line and reports the
// time per nominal hop: table hit at every router, default routing at
// the inner routers, or an emergency detour around one failed link.
func driveHops(r *row, kind string, packets int) error {
	eng, fab, err := lineFabric(kind)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < packets; i++ {
		fab.InjectMC(topo.Coord{}, packet.NewMC(1))
		eng.Run()
	}
	ns := perOp(start, packets*driveHopCount)
	if got := fab.DeliveredMC(); got != uint64(packets) {
		return fmt.Errorf("bench: %s hop drive delivered %d of %d packets", kind, got, packets)
	}
	r.set("router.hop_ns_"+kind, ns)
	return nil
}

// driveFanout multicasts from one chip over all six links to a core of
// each neighbour and reports the time per delivery.
func driveFanout(r *row, packets int) error {
	eng := sim.New(1)
	fab, err := router.NewFabric(eng, router.DefaultParams(8, 8))
	if err != nil {
		return fmt.Errorf("bench: drive fabric: %w", err)
	}
	km := packet.KeyMask{Key: 1, Mask: 0xffffffff}
	src := topo.Coord{X: 4, Y: 4}
	var all router.RouteMask
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		all = all.WithLink(d)
		to := fab.Params().Torus.Neighbor(src, d)
		if err := fab.Node(to).Table.Add(router.Entry{Match: km, Route: router.CoreRoute(0)}); err != nil {
			return fmt.Errorf("bench: drive fabric: %w", err)
		}
	}
	if err := fab.Node(src).Table.Add(router.Entry{Match: km, Route: all}); err != nil {
		return fmt.Errorf("bench: drive fabric: %w", err)
	}
	start := time.Now()
	for i := 0; i < packets; i++ {
		fab.InjectMC(src, packet.NewMC(1))
		eng.Run()
	}
	ns := perOp(start, packets*topo.NumDirs)
	if got := fab.DeliveredMC(); got != uint64(packets*topo.NumDirs) {
		return fmt.Errorf("bench: fan-out drive delivered %d of %d", got, packets*topo.NumDirs)
	}
	r.set("router.fanout_ns_per_delivery", ns)
	return nil
}

var lookupSink router.RouteMask

// driveLookup looks keys up in a full 1024-entry table.
func driveLookup(r *row, lookups int) error {
	tb := router.NewTable(1024)
	for i := 0; i < 1024; i++ {
		// A full table cannot refuse an entry within its capacity.
		_ = tb.Add(router.Entry{
			Match: packet.KeyMask{Key: uint32(i) << 8, Mask: 0xffffff00},
			Route: router.LinkRoute(topo.East),
		})
	}
	start := time.Now()
	for i := 0; i < lookups; i++ {
		m, _ := tb.Lookup(uint32(i%1024) << 8)
		lookupSink |= m
	}
	r.set("router.table_lookup_ns", perOp(start, lookups))
	return nil
}

// driveStep steps a 256-neuron population under a constant bias and
// reports the time per neuron-tick as the named metric.
func driveStep(r *row, metric string, p *neural.Population, biasNA float64, ticks int) error {
	p.Bias = neural.F(biasNA)
	start := time.Now()
	for i := 0; i < ticks; i++ {
		p.StepTick()
	}
	r.set(metric, perOp(start, ticks*p.Size()))
	return nil
}

func driveRowOf(synapses int) neural.Row {
	row := make(neural.Row, synapses)
	for i := range row {
		row[i] = neural.MakeSynWord(uint16(64+i), 1+i%neural.MaxSynDelay, false, i%256)
	}
	return row
}

// driveRow deposits a 128-synapse row into a population's input ring,
// advancing the ring every 16 rows, and reports the time per synapse.
func driveRow(r *row, rows int) error {
	p := neural.NewLIFPopulation(256, neural.MaxSynDelay, neural.DefaultLIF())
	row := driveRowOf(128)
	start := time.Now()
	for i := 0; i < rows; i++ {
		p.ProcessRow(row)
		if i%16 == 15 {
			p.Ring.Advance()
			p.Ring.ClearCurrent()
		}
	}
	r.set("neural.row_ns_per_synapse", perOp(start, rows*len(row)))
	return nil
}

// driveSTDP applies the plasticity rule to a 128-synapse row once per
// tick while every fourth target neuron fires every eighth tick, so both
// potentiation and depression pairs occur. It reports the time per
// synapse visited.
func driveSTDP(r *row, rows int) error {
	s := neural.NewSTDPState(256, neural.DefaultSTDP())
	row := driveRowOf(128)
	start := time.Now()
	for i := 0; i < rows; i++ {
		now := uint64(i + 1)
		if i%8 == 0 {
			for n := 0; n < 256; n += 4 {
				s.RecordPost(n, now)
			}
		}
		s.ProcessRow(uint32(i%64), row, now)
	}
	r.set("neural.stdp_ns_per_synapse", perOp(start, rows*len(row)))
	return nil
}

// driveDispatch posts packets to one core in bursts of 64 and runs the
// engine until the core sleeps again, reporting the time per event
// dispatched.
func driveDispatch(r *row, events int) error {
	eng := sim.New(1)
	core := kernel.NewCore(eng, kernel.DefaultConfig())
	core.On(kernel.EvPacket, func(kernel.Event) uint64 { return 50 })
	const burst = 64
	start := time.Now()
	for done := 0; done < events; done += burst {
		for i := 0; i < burst; i++ {
			core.PostPacket(packet.NewMC(uint32(i)))
		}
		eng.Run()
	}
	r.set("kernel.dispatch_ns_per_event", perOp(start, int(core.EventCounts[kernel.EvPacket])))
	return nil
}

// driveBoot builds and boots a bare side x side machine, then
// flood-fills 1 KiB to every chip through the host link. It reports
// microseconds per chip for each.
func driveBoot(r *row, side int) error {
	start := time.Now()
	m, err := spinngo.NewMachine(spinngo.MachineConfig{Width: side, Height: side, Seed: 1})
	if err != nil {
		return fmt.Errorf("bench: boot drive: %w", err)
	}
	defer m.Close()
	rep, err := m.Boot()
	if err != nil {
		return fmt.Errorf("bench: boot drive: %w", err)
	}
	r.set("boot.us_per_chip", perOp(start, rep.Chips)/1e3)
	hl, err := m.AttachHost()
	if err != nil {
		return fmt.Errorf("bench: fill drive: %w", err)
	}
	start = time.Now()
	filled, err := hl.FillMem(0x5100_0000, make([]byte, 1024))
	fillUS := perOp(start, rep.Chips) / 1e3
	if err != nil {
		return fmt.Errorf("bench: fill drive: %w", err)
	}
	if filled != rep.Chips {
		return fmt.Errorf("bench: fill drive reached %d of %d chips", filled, rep.Chips)
	}
	r.set("host.fill_us_per_chip", fillUS)
	return nil
}

// driveParse decodes and validates the workload's own document.
func driveParse(r *row, doc []byte, n int) error {
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := workload.Parse(doc); err != nil {
			return fmt.Errorf("bench: parse drive: %w", err)
		}
	}
	r.set("workload.parse_us_per_doc", perOp(start, n)/1e3)
	return nil
}

// driveExpand expands the campaign-8x8 campaign's macros (storm draws,
// sever boundary walk) into concrete faults, in microseconds per
// expansion.
func driveExpand(r *row, seed uint64, n int) error {
	s, _ := findSpec("campaign-8x8")
	doc, err := s.document(seed, minChunks, false)
	if err != nil {
		return err
	}
	wl, err := workload.Parse(doc)
	if err != nil {
		return fmt.Errorf("bench: expand drive: %w", err)
	}
	faults := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		faults += len(wl.Campaign.Expand(wl.Machine.Width, wl.Machine.Height))
	}
	us := perOp(start, n) / 1e3
	if faults == 0 {
		return fmt.Errorf("bench: expand drive: campaign expanded to nothing")
	}
	r.set("workload.expand_us_per_campaign", us)
	return nil
}
