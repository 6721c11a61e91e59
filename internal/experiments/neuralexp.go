package experiments

import (
	"fmt"
	"strings"

	"spinngo"
	"spinngo/internal/mapping"
	"spinngo/internal/nofm"
	"spinngo/internal/router"
	"spinngo/internal/sim"
)

// E11MulticastVsBroadcast reproduces the section-4 argument for the
// multicast router: "in the past AER has been used principally in
// bus-based broadcast communication ... here we employ a packet-switched
// multicast mechanism to reduce total communication loading". Per
// spike, we compare the multicast tree's link traversals against
// broadcast flooding (every chip) and naive unicast (one path per
// destination), for biological fan-outs.
func E11MulticastVsBroadcast(mesh int, fanouts []int, seed uint64) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "per-spike link traffic: multicast tree vs broadcast vs unicast",
		Claim: "packet-switched multicast reduces total communication loading versus AER broadcast",
		Columns: []string{"fanout", "dest chips", "multicast links", "unicast links",
			"broadcast links", "mc/bc", "mc/uni"},
	}
	ok := true
	for _, fan := range fanouts {
		net := &mapping.Network{}
		pre := net.AddPopulation(&mapping.Population{Name: "pre", N: 1, Kind: mapping.ModelLIF})
		post := net.AddPopulation(&mapping.Population{Name: "post", N: (mesh*mesh - 1) * 16, Kind: mapping.ModelLIF})
		net.Connect(&mapping.Projection{Pre: pre, Post: post, Kind: mapping.FixedFanout,
			Fanout: fan, WeightNA: 0.1, DelayMS: 1, Seed: seed})
		spec := mapping.DefaultMachineSpec(mesh, mesh)
		spec.MaxNeuronsPerCore = 16
		spec.AppCoresPerChip = 1 // one fragment per chip: machine-wide spread
		frags, err := mapping.Partition(net, spec)
		if err != nil {
			return nil, err
		}
		if err := mapping.Place(frags, spec, mapping.PlaceRandom, seed); err != nil {
			return nil, err
		}
		plan, err := mapping.Route(net, frags, spec, mapping.RouteOptions{})
		if err != nil {
			return nil, err
		}
		src := frags[0] // the single pre fragment
		tree := plan.Trees[src.Index]
		mc := tree.LinkCount()
		uni := 0
		for chipCoord := range plan.Dests[src.Index] {
			uni += spec.Torus.Distance(src.Chip, chipCoord)
		}
		// Broadcast on a bus-less mesh: flood every chip once (a
		// spanning structure over all chips).
		bc := mesh*mesh - 1
		destChips := len(plan.Dests[src.Index])
		t.AddRow(d(fan), d(destChips), d(mc), d(uni), d(bc),
			f3(float64(mc)/float64(bc)), f3(float64(mc)/float64(uni)))
		if mc > bc || mc > uni {
			ok = false
		}
	}
	t.Verdict = verdict(ok,
		"the multicast tree always carries less traffic than broadcast or unicast replication",
		"multicast traffic exceeded an alternative")
	return t, nil
}

// E12Retina reproduces the section-5.4 fault-tolerance story: rank-order
// retina codes degrade gracefully as ganglion cells die, because
// overlapping receptive fields let near neighbours take over.
func E12Retina(killFracs []float64, seed uint64) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "rank-order retina code under progressive cell death",
		Claim: "a near-neighbour with a similar receptive field takes over and very little information is lost",
		Columns: []string{"cells killed %", "live cells", "information similarity",
			"identity similarity", "set overlap", "capacity bits"},
	}
	r, err := nofm.NewRetina(48, 48, nofm.DefaultRetinaConfig())
	if err != nil {
		return nil, err
	}
	im := nofm.NewImage(48, 48)
	im.GaussianBlob(14, 14, 3, 1)
	im.GaussianBlob(32, 28, 5, 0.8)
	im.Grating(9, 0.8, 0.2)
	ref := r.Encode(im)
	bits, _ := nofm.Capacity(r.Size(), r.Cfg.N, true)
	rng := sim.NewRNG(seed)
	// Each arm of the verdict names its own fault: small losses must not
	// collapse the code, and large ones must show in it.
	collapsed, unseen := false, false
	// Kill cells cumulatively — the population only ever loses cells,
	// as in the biological story — so the degradation curve is a single
	// trajectory rather than independent samples.
	killedSoFar := 0.0
	totalKilled := 0
	for _, frac := range killFracs {
		if frac > killedSoFar {
			p := (frac - killedSoFar) / (1 - killedSoFar)
			totalKilled += r.KillFraction(p, rng)
			killedSoFar = frac
		}
		code := r.Encode(im)
		// Information similarity is the paper's measure: a dead cell's
		// neighbour carries (almost) the same receptive field, so the
		// image content survives even when the unit identities change.
		info := r.InformationSimilarity(ref, code)
		ident := nofm.Similarity(ref, code, r.Size(), r.Cfg.Alpha)
		ov := nofm.Overlap(ref, code)
		t.AddRow(f1(frac*100), d(r.Size()-totalKilled), f3(info), f3(ident), f3(ov), f1(bits))
		if frac <= 0.11 && info < 0.6 {
			collapsed = true
		}
		if frac >= 0.4 && info > 0.99 {
			unseen = true
		}
	}
	var faults []string
	if collapsed {
		faults = append(faults, "code collapsed under small losses")
	}
	if unseen {
		faults = append(faults, "large losses left the code intact, so the measure cannot see cell death")
	}
	t.Verdict = verdict(len(faults) == 0,
		"information similarity decays gracefully; neighbour takeover preserves the image content",
		strings.Join(faults, "; "))
	return t, nil
}

// E13DeferredEvents reproduces the section-3.2 soft-delay claim: axonal
// delays eliminated by (biologically) instantaneous electronic
// communication are re-inserted algorithmically at the target neuron.
// A post spike follows its pre spike by the delay less one tick: the
// receiving core ticks at a sub-millisecond phase past each ms, so a
// spike sent at 10 ms lands after tick 9 and its delay counts from
// there. The claim is in the differences: latency shifts as delay does.
func E13DeferredEvents(seed uint64) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "deferred-event model: programmed axonal delays re-inserted at the target",
		Claim: "each synapse has a programmable delay re-inserted algorithmically at the target neuron",
		Columns: []string{"programmed delay ms", "measured latency ms", "shift vs 1ms case",
			"exact"},
	}
	ok := true
	delays := []int{1, 3, 7, 15}
	measured := make(map[int]int, len(delays))
	for _, delay := range delays {
		mc, err := spinngo.NewMachine(spinngo.MachineConfig{Width: 2, Height: 2, Seed: seed})
		if err != nil {
			return nil, err
		}
		if _, err := mc.Boot(); err != nil {
			return nil, err
		}
		model := spinngo.NewModel()
		pre := model.AddLIF("pre", 4, spinngo.DefaultLIFConfig())
		post := model.AddLIF("post", 4, spinngo.DefaultLIFConfig())
		if err := model.Connect(pre, post, spinngo.Conn{
			Rule: spinngo.OneToOneRule, WeightNA: 50, DelayMS: delay,
		}); err != nil {
			return nil, err
		}
		if _, err := mc.Load(model); err != nil {
			return nil, err
		}
		if err := mc.InjectSpike(pre, 1, 10); err != nil {
			return nil, err
		}
		if _, err := mc.Run(60); err != nil {
			return nil, err
		}
		postSpikes := mc.Spikes(post)
		if len(postSpikes) == 0 {
			ok = false
			t.AddRow(d(delay), "no spike", "", "false")
			continue
		}
		measured[delay] = int(postSpikes[0].TimeMS) - 10
	}
	// The absolute offset carries a one-tick discretisation phase; the
	// programmed delay must appear exactly in the latency differences.
	base, haveBase := measured[delays[0]]
	for _, delay := range delays {
		m, have := measured[delay]
		if !have {
			continue
		}
		shift := m - base
		exact := haveBase && shift == delay-delays[0]
		if !exact {
			ok = false
		}
		t.AddRow(d(delay), d(m), d(shift), fmt.Sprintf("%v", exact))
	}
	t.Verdict = verdict(ok,
		"latency shifts track the programmed delays exactly (1-tick phase offset aside)",
		"delays not faithfully re-inserted")
	return t, nil
}

// E14BoundedAsynchrony reproduces the section-3.1 principle, "time
// models itself". Each chip of a 3x3 torus is a clock domain whose timer
// free-runs from a common epoch at 1 ms x (1+δ), δ uniform in ±ppm, and
// nothing synchronises them. A synfire token circulates the ring of chips
// by spike exchange alone: the holder fires at its tick, the spike lands
// one fabric hop later, and the next chip fires it on at its next tick.
func E14BoundedAsynchrony(seed uint64) *Table {
	const side, ticks = 3, 40
	t := &Table{
		ID:    "E14",
		Title: "bounded asynchrony: free-running chip clocks with no global synchronisation",
		Claim: "time models itself: no global clock, yet chips stay within a tick of each other",
		Columns: []string{"drift ppm", "chips", "ticks", "max skew", "mean skew",
			"skew/tick", "synfire laps"},
	}
	hop := router.DefaultParams(side, side).MinHopLatency()
	ok, prev := true, sim.Time(0)
	for _, ppm := range []float64{10, 100, 1000, 100000} {
		maxSkew, meanSkew, laps := freeRun(seed, ppm, side*side, ticks, hop)
		// Crystal-class clocks stay within one tick; out-of-tolerance ones must not.
		ok = ok && (maxSkew <= sim.Millisecond) == (ppm <= 1000) && maxSkew >= prev && laps >= 1
		prev = maxSkew
		t.AddRow(f1(ppm), d(side*side), d(ticks), maxSkew.String(), meanSkew.String(),
			f3(maxSkew.Millis()), d(laps))
	}
	t.Verdict = verdict(ok,
		"crystal-class clocks stay within one tick with zero synchronisation; out-of-tolerance ones leave it",
		"the skew envelope does not separate crystal-class from out-of-tolerance clocks, or the token stalled")
	return t
}

// freeRun runs n chip clocks of ppm drift for ticks local ticks each and
// reports the largest and the mean spread of the instants at which the
// chips ran the same tick index, and the laps the synfire token made.
func freeRun(seed uint64, ppm float64, n, ticks int, hop sim.Time) (maxSkew, meanSkew sim.Time, laps int) {
	eng := sim.New(seed)
	doms := make([]*sim.Domain, n)
	at := make([][]sim.Time, n) // at[i][k]: the instant of chip i's k-th tick
	token := make([]bool, n)
	token[0] = true
	for i := range doms {
		doms[i] = eng.Domain(i)
		dom, next := doms[i], (i+1)%n
		period := sim.Time(float64(sim.Millisecond) * (1 + (eng.RNG().Float64()*2-1)*ppm/1e6))
		var tick sim.Func
		tick = func() {
			at[i] = append(at[i], dom.Now())
			if token[i] {
				token[i] = false
				doms[next].AtP(dom.Now()+hop, sim.Func(func() {
					token[next] = true
					if next == 0 {
						laps++
					}
				}))
			}
			if len(at[i]) < ticks {
				dom.AfterP(period, tick)
			}
		}
		dom.AtP(period, tick)
	}
	eng.Run()
	for k := range ticks {
		lo, hi := sim.Forever, sim.Time(0)
		for i := range at {
			lo, hi = min(lo, at[i][k]), max(hi, at[i][k])
		}
		maxSkew = max(maxSkew, hi-lo)
		meanSkew += hi - lo
	}
	return maxSkew, meanSkew / sim.Time(ticks), laps
}

// AblationTableMinimisation measures what default-route elision and CAM
// minimisation buy.
func AblationTableMinimisation(seed uint64) (*Table, error) {
	t := &Table{
		ID:      "A1",
		Title:   "ablation: routing-table generation strategies",
		Claim:   "default routing and mask minimisation keep tables within the 1024-entry CAM",
		Columns: []string{"strategy", "total entries", "max chip table", "fits CAM"},
	}
	net := &mapping.Network{}
	pre := net.AddPopulation(&mapping.Population{Name: "pre", N: 2048, Kind: mapping.ModelLIF})
	post := net.AddPopulation(&mapping.Population{Name: "post", N: 2048, Kind: mapping.ModelLIF})
	net.Connect(&mapping.Projection{Pre: pre, Post: post, Kind: mapping.FixedFanout,
		Fanout: 100, WeightNA: 0.1, DelayMS: 1, Seed: seed})
	spec := mapping.DefaultMachineSpec(12, 12)
	spec.MaxNeuronsPerCore = 32
	spec.TableSize = 0 // measure without failing
	var rows []struct {
		name string
		opts mapping.RouteOptions
	}
	rows = append(rows,
		struct {
			name string
			opts mapping.RouteOptions
		}{"naive", mapping.RouteOptions{}},
		struct {
			name string
			opts mapping.RouteOptions
		}{"+default-route elision", mapping.RouteOptions{ElideDefault: true}},
		struct {
			name string
			opts mapping.RouteOptions
		}{"+mask minimisation", mapping.RouteOptions{ElideDefault: true, Minimise: true}},
	)
	prevTotal := 1 << 62
	improving := true
	for _, r := range rows {
		frags, err := mapping.Partition(net, spec)
		if err != nil {
			return nil, err
		}
		if err := mapping.Place(frags, spec, mapping.PlaceSerpentine, seed); err != nil {
			return nil, err
		}
		plan, err := mapping.Route(net, frags, spec, r.opts)
		if err != nil {
			return nil, err
		}
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		t.AddRow(r.name, d(plan.Stats.EntriesFinal), d(plan.Stats.MaxChipTable),
			fmt.Sprintf("%v", plan.Stats.MaxChipTable <= 1024))
		if plan.Stats.EntriesFinal > prevTotal {
			improving = false
		}
		prevTotal = plan.Stats.EntriesFinal
	}
	t.Verdict = verdict(improving,
		"each optimisation shrinks the tables, all plans validate",
		"an optimisation grew the tables")
	return t, nil
}

// AblationPlacement measures locality-aware vs random placement (the
// section-3.2 'beneficial but not necessary' claim).
func AblationPlacement(seed uint64) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "ablation: serpentine vs random placement",
		Claim:   "mapping proximal neurons to proximal processors minimises routing cost, but is not necessary",
		Columns: []string{"placement", "tree links", "entries", "valid"},
	}
	build := func(strategy mapping.PlacementStrategy) (*mapping.RoutingPlan, error) {
		net := &mapping.Network{}
		ring := net.AddPopulation(&mapping.Population{Name: "ring", N: 2048, Kind: mapping.ModelLIF})
		// Local connectivity: each neuron drives its neighbour one
		// fragment along the ring, so fragment adjacency is the
		// natural locality the serpentine placer preserves.
		net.Connect(&mapping.Projection{Pre: ring, Post: ring, Kind: mapping.Shift,
			Offset: 32, WeightNA: 0.1, DelayMS: 1, Seed: seed})
		spec := mapping.DefaultMachineSpec(8, 8)
		spec.MaxNeuronsPerCore = 32
		spec.AppCoresPerChip = 1 // one fragment per chip: locality visible
		frags, err := mapping.Partition(net, spec)
		if err != nil {
			return nil, err
		}
		if err := mapping.Place(frags, spec, strategy, seed); err != nil {
			return nil, err
		}
		return mapping.Route(net, frags, spec, mapping.RouteOptions{ElideDefault: true})
	}
	serp, err := build(mapping.PlaceSerpentine)
	if err != nil {
		return nil, err
	}
	rnd, err := build(mapping.PlaceRandom)
	if err != nil {
		return nil, err
	}
	okS, okR := serp.Validate() == nil, rnd.Validate() == nil
	t.AddRow("serpentine", d(serp.Stats.TreeLinks), d(serp.Stats.EntriesFinal), fmt.Sprintf("%v", okS))
	t.AddRow("random", d(rnd.Stats.TreeLinks), d(rnd.Stats.EntriesFinal), fmt.Sprintf("%v", okR))
	ok := okS && okR && serp.Stats.TreeLinks < rnd.Stats.TreeLinks
	t.Verdict = verdict(ok,
		"both are correct (virtualised topology); locality costs fewer routing links",
		"placement comparison unexpected")
	return t, nil
}
