package mapping

import (
	"strings"
	"testing"

	"spinngo/internal/neural"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

func TestBuildTreeSharedPrefix(t *testing.T) {
	tr := topo.MustTorus(8, 8)
	src := topo.Coord{X: 0, Y: 0}
	dests := map[topo.Coord][]int{
		{X: 3, Y: 0}: {0},
		{X: 4, Y: 0}: {1},
	}
	tree := BuildTree(tr, src, dests)
	// The two destinations share the eastward line: links = 4, not 7.
	if got := tree.LinkCount(); got != 4 {
		t.Errorf("tree links = %d, want 4 (shared prefix)", got)
	}
	if len(tree.Out[src]) != 1 || tree.Out[src][0] != topo.East {
		t.Errorf("source out = %v", tree.Out[src])
	}
}

func TestBuildTreeSinksSorted(t *testing.T) {
	tr := topo.MustTorus(4, 4)
	tree := BuildTree(tr, topo.Coord{}, map[topo.Coord][]int{
		{X: 1, Y: 0}: {5, 1, 3},
	})
	s := tree.Sinks[topo.Coord{X: 1, Y: 0}]
	if len(s) != 3 || s[0] != 1 || s[1] != 3 || s[2] != 5 {
		t.Errorf("sinks = %v, want sorted", s)
	}
}

// compileSmall builds, places and routes a 2-population network.
func compileSmall(t *testing.T, w, h, preN, postN int, kind ConnectorKind, opts RouteOptions) (*Network, *RoutingPlan) {
	t.Helper()
	net, _ := twoPopNet(preN, postN, kind)
	spec := DefaultMachineSpec(w, h)
	spec.MaxNeuronsPerCore = 64
	spec.AppCoresPerChip = 4
	frags, err := Partition(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Place(frags, spec, PlaceSerpentine, 0); err != nil {
		t.Fatal(err)
	}
	plan, err := Route(net, frags, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return net, plan
}

func TestRoutePlanValidates(t *testing.T) {
	for _, opts := range []RouteOptions{
		{},
		{ElideDefault: true},
		{Minimise: true},
		{ElideDefault: true, Minimise: true},
	} {
		_, plan := compileSmall(t, 6, 6, 300, 300, FixedProbability, opts)
		if err := plan.Validate(); err != nil {
			t.Errorf("opts %+v: %v", opts, err)
		}
	}
}

func TestElisionShrinksTables(t *testing.T) {
	_, naive := compileSmall(t, 8, 8, 512, 512, AllToAll, RouteOptions{})
	_, elided := compileSmall(t, 8, 8, 512, 512, AllToAll, RouteOptions{ElideDefault: true})
	if elided.Stats.EntriesElided >= naive.Stats.EntriesNaive {
		t.Errorf("elision did not reduce entries: %d vs %d",
			elided.Stats.EntriesElided, naive.Stats.EntriesNaive)
	}
}

func TestMinimisationShrinksOrEqualsTables(t *testing.T) {
	_, plain := compileSmall(t, 6, 6, 512, 64, AllToAll, RouteOptions{ElideDefault: true})
	_, min := compileSmall(t, 6, 6, 512, 64, AllToAll, RouteOptions{ElideDefault: true, Minimise: true})
	if min.Stats.EntriesFinal > plain.Stats.EntriesFinal {
		t.Errorf("minimisation grew tables: %d vs %d",
			min.Stats.EntriesFinal, plain.Stats.EntriesFinal)
	}
	if err := min.Validate(); err != nil {
		t.Errorf("minimised plan invalid: %v", err)
	}
}

func TestPlanRunsOnFabric(t *testing.T) {
	// End-to-end: install the generated tables into a real fabric,
	// fire every fragment's first neuron, and check deliveries match
	// the plan's destination sets.
	net, plan := compileSmall(t, 5, 5, 130, 70, FixedProbability, RouteOptions{ElideDefault: true, Minimise: true})
	_ = net
	eng := sim.New(1)
	fab, err := router.NewFabric(eng, router.DefaultParams(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.InstallTables(fab); err != nil {
		t.Fatal(err)
	}
	type delivery struct {
		chip topo.Coord
		core int
	}
	got := make(map[uint32]map[delivery]bool)
	fab.OnDeliverMC = func(n *router.Node, core int, pkt packet.Packet, _ sim.Time) {
		base := pkt.Key &^ 0xff
		if got[base] == nil {
			got[base] = make(map[delivery]bool)
		}
		got[base][delivery{n.Coord, core}] = true
	}
	for _, f := range plan.Frags {
		if len(plan.Dests[f.Index]) == 0 {
			continue
		}
		fab.InjectMC(f.Chip, packet.NewMC(f.KeyFor(f.Lo)))
	}
	eng.Run()
	for _, f := range plan.Frags {
		want := plan.Dests[f.Index]
		if len(want) == 0 {
			continue
		}
		for chip, cores := range want {
			for _, core := range cores {
				if !got[f.Key()][delivery{chip, core}] {
					t.Errorf("fragment %d: no delivery at %v core %d", f.Index, chip, core)
				}
			}
		}
		total := 0
		for _, cores := range want {
			total += len(cores)
		}
		if len(got[f.Key()]) != total {
			t.Errorf("fragment %d: %d deliveries, want %d", f.Index, len(got[f.Key()]), total)
		}
	}
	if fab.DroppedPackets() != 0 {
		t.Errorf("%d packets dropped on a healthy fabric", fab.DroppedPackets())
	}
}

func TestBuildDataRowsAndKeys(t *testing.T) {
	net, _ := twoPopNet(10, 10, OneToOne)
	spec := DefaultMachineSpec(2, 2)
	spec.MaxNeuronsPerCore = 4
	rplan, dplan, err := Compile(net, spec, PlaceSerpentine, RouteOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dplan.TotalSynapses != 10 {
		t.Errorf("synapses = %d, want 10", dplan.TotalSynapses)
	}
	// Every pre neuron i connects to post neuron i: find the row for
	// pre neuron 5 and check it targets the right local index.
	pre5, _ := FragmentForNeuron(rplan.Frags, net.Pops[0], 5)
	post5, _ := FragmentForNeuron(rplan.Frags, net.Pops[1], 5)
	cd := dplan.Cores[post5.Chip][post5.Core]
	row, _, _, ok := cd.Matrix.Lookup(pre5.KeyFor(5))
	if !ok {
		t.Fatal("row for pre neuron 5 missing")
	}
	if len(row) != 1 || row[0].Target() != 5-post5.Lo {
		t.Errorf("row = %v (target %d), want local target %d", row, row[0].Target(), 5-post5.Lo)
	}
}

func TestCompilePipeline(t *testing.T) {
	net, _ := twoPopNet(200, 100, FixedFanout)
	spec := DefaultMachineSpec(4, 4)
	spec.MaxNeuronsPerCore = 50
	rplan, dplan, err := Compile(net, spec, PlaceSerpentine,
		RouteOptions{ElideDefault: true, Minimise: true}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rplan.Stats.Fragments != 6 { // 200/50=4 + 100/50=2
		t.Errorf("fragments = %d, want 6", rplan.Stats.Fragments)
	}
	if dplan.TotalSynapses != 200*3 {
		t.Errorf("synapses = %d, want 600", dplan.TotalSynapses)
	}
	if rplan.Stats.MaxChipTable > spec.TableSize {
		t.Errorf("table overflow: %d", rplan.Stats.MaxChipTable)
	}
}

// TestCompileMatchesOracle holds the streaming compile to the oracle on
// a network with a static, a recurrent plastic and an inhibitory
// projection, the same pre population feeding one post population twice
// (so post fragments receive keys out of order and are sorted), and a
// static projection sharing the plastic one's rows.
func TestCompileMatchesOracle(t *testing.T) {
	net, _ := twoPopNet(300, 200, FixedProbability)
	pre, post := net.Pops[0], net.Pops[1]
	stdp := neural.DefaultSTDP()
	net.Connect(&Projection{Pre: post, Post: post, Kind: FixedFanout, Fanout: 7, WeightNA: 0.2, DelayMS: 1, Seed: 2, STDP: &stdp})
	net.Connect(&Projection{Pre: post, Post: pre, Kind: Shift, Offset: 5, WeightNA: 0.7, DelayMS: 3, Seed: 3, Inhibitory: true})
	net.Connect(&Projection{Pre: pre, Post: post, Kind: FixedProbability, P: 0.05, WeightNA: 0.3, DelayMS: 4, Seed: 4})
	net.Connect(&Projection{Pre: post, Post: post, Kind: OneToOne, WeightNA: 0.1, DelayMS: 5})
	spec := DefaultMachineSpec(4, 4)
	spec.MaxNeuronsPerCore = 32
	spec.AppCoresPerChip = 4
	for _, strategy := range []PlacementStrategy{PlaceSerpentine, PlaceRandom} {
		if compileMatchesOracle(t, net, spec, strategy, RouteOptions{ElideDefault: true, Minimise: true}, 7) == 0 {
			t.Errorf("%v: no plastic row compared; the network was meant to hold some", strategy)
		}
	}
}

func TestRouteRejectsTableOverflow(t *testing.T) {
	net, _ := twoPopNet(256*8, 64, AllToAll)
	spec := DefaultMachineSpec(3, 3)
	spec.MaxNeuronsPerCore = 16
	spec.AppCoresPerChip = 18
	spec.TableSize = 3 // absurdly small CAM
	frags, err := Partition(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Place(frags, spec, PlaceSerpentine, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Route(net, frags, spec, RouteOptions{}); err == nil {
		t.Error("table overflow not reported")
	}
}

// TestRouteOverflowNamesFirstChip overflows a one-entry CAM on many chips
// and expects the same error, naming the first chip in (Y, X) order,
// from every compile.
func TestRouteOverflowNamesFirstChip(t *testing.T) {
	net, _ := twoPopNet(64, 64, AllToAll)
	spec := DefaultMachineSpec(3, 3)
	spec.MaxNeuronsPerCore = 16
	spec.AppCoresPerChip = 2
	spec.TableSize = 1
	var first string
	for i := range 20 {
		_, _, err := Compile(net, spec, PlaceSerpentine, RouteOptions{}, 0)
		if err == nil {
			t.Fatal("table overflow not reported")
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("compile %d reported %q, compile 0 %q", i, err, first)
		}
	}
	if !strings.Contains(first, "chip (0,0)") {
		t.Errorf("overflow reported %q, want chip (0,0) first", first)
	}
}

func TestMulticastVsBroadcastTraffic(t *testing.T) {
	// E11 property: multicast tree traffic is far below broadcasting
	// to every chip. Compare tree links against dests-times-distance
	// (naive unicast) and machine size (broadcast).
	net, plan := compileSmall(t, 8, 8, 512, 512, FixedFanout, RouteOptions{ElideDefault: true})
	_ = net
	broadcastPerSpike := plan.Spec.Torus.Size() // flood every chip
	for _, f := range plan.Frags {
		tree := plan.Trees[f.Index]
		if len(plan.Dests[f.Index]) == 0 {
			continue
		}
		if tree.LinkCount() >= broadcastPerSpike {
			t.Errorf("fragment %d: tree links %d not below broadcast %d",
				f.Index, tree.LinkCount(), broadcastPerSpike)
		}
		// Unicast sum of distances is an upper bound the tree must not exceed.
		unicast := 0
		for chip := range plan.Dests[f.Index] {
			unicast += plan.Spec.Torus.Distance(f.Chip, chip)
		}
		if tree.LinkCount() > unicast {
			t.Errorf("fragment %d: tree links %d exceed unicast bound %d",
				f.Index, tree.LinkCount(), unicast)
		}
	}
}

func TestNeuralMaxDelayMatchesSynWord(t *testing.T) {
	// Mapping validates against neural.MaxSynDelay; keep them coupled.
	if neural.MaxSynDelay != 15 {
		t.Errorf("MaxSynDelay = %d; mapping assumes the 4-bit field", neural.MaxSynDelay)
	}
}

// BenchmarkCompile compiles a network shaped like bench/'s plastic-8x8
// workload (cortical-mix: thalamic drive, a plastic excitatory
// recurrence, fast-spiking and chattering cells; 2 600 neurons in
// 64-neuron fragments on an 8x8 machine, about 100 000 synapses): the
// mapping share of that workload's set-up. It reports the cost per
// expanded synapse and the allocations of one compile.
func BenchmarkCompile(b *testing.B) {
	net := &Network{}
	thal := net.AddPopulation(&Population{Name: "thalamus", N: 400, Kind: ModelPoisson, RateHz: 80})
	exc := net.AddPopulation(&Population{Name: "exc", N: 1600, Kind: ModelLIF, LIF: neural.DefaultLIF()})
	fs := net.AddPopulation(&Population{Name: "fs", N: 400, Kind: ModelIzhikevich})
	chat := net.AddPopulation(&Population{Name: "chat", N: 200, Kind: ModelIzhikevich})
	stdp := neural.DefaultSTDP()
	net.Connect(&Projection{Pre: thal, Post: exc, Kind: FixedProbability, P: 0.025, WeightNA: 1, DelayMS: 1, Seed: 1})
	net.Connect(&Projection{Pre: exc, Post: exc, Kind: FixedProbability, P: 0.0125, WeightNA: 0.4, DelayMS: 2, Seed: 2, STDP: &stdp})
	net.Connect(&Projection{Pre: exc, Post: fs, Kind: FixedProbability, P: 0.025, WeightNA: 0.6, DelayMS: 1, Seed: 3})
	net.Connect(&Projection{Pre: fs, Post: exc, Kind: FixedProbability, P: 0.05, WeightNA: 0.8, DelayMS: 1, Seed: 4, Inhibitory: true})
	net.Connect(&Projection{Pre: chat, Post: exc, Kind: FixedFanout, Fanout: 20, WeightNA: 0.3, DelayMS: 4, Seed: 5})
	spec := DefaultMachineSpec(8, 8)
	spec.MaxNeuronsPerCore = 64
	opts := RouteOptions{ElideDefault: true, Minimise: true}
	synapses := 0
	b.ReportAllocs()
	for b.Loop() {
		_, dplan, err := Compile(net, spec, PlaceSerpentine, opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		synapses += dplan.TotalSynapses
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(synapses), "ns/synapse")
}

// TestValidateRejectsBadPlans hand-builds one fragment's plan on a 4x4
// torus — injected at (0,0), bound for core 2 of (2,0) — and holds
// Validate to each fault it names: a route that loops, a source with no
// entry, a core the key never reaches and a core it reaches unasked.
// The good plan sends the key east from (0,0) and lets (1,0), which has
// no entry, default-route it on to (2,0).
func TestValidateRejectsBadPlans(t *testing.T) {
	frag := &Fragment{Index: 1, Chip: topo.Coord{}}
	at := func(x int) topo.Coord { return topo.Coord{X: x} }
	entry := func(rm router.RouteMask) []router.Entry {
		return []router.Entry{{Match: packet.KeyMask{Key: frag.Key(), Mask: FragmentMask}, Route: rm}}
	}
	east := router.LinkRoute(topo.East)
	for _, c := range []struct {
		name   string
		tables map[topo.Coord][]router.Entry
		err    string
	}{
		{"a good plan", map[topo.Coord][]router.Entry{at(0): entry(east), at(2): entry(router.CoreRoute(2))}, ""},
		{"a loop", map[topo.Coord][]router.Entry{at(0): entry(east), at(1): entry(router.LinkRoute(topo.West))}, "fragment 1 loops at (1,0)"},
		{"no entry at the source", map[topo.Coord][]router.Entry{at(2): entry(router.CoreRoute(2))}, "fragment 1 unroutable at source (0,0)"},
		{"a missed core", map[topo.Coord][]router.Entry{at(0): entry(east), at(2): entry(router.CoreRoute(3))}, "fragment 1 missed (2,0) core 2"},
		{"an over-delivery", map[topo.Coord][]router.Entry{at(0): entry(east), at(2): entry(router.CoreRoute(2).WithCore(5))}, "fragment 1 over-delivered to (2,0) core 5"},
		{"an over-delivery on the way", map[topo.Coord][]router.Entry{at(0): entry(east.WithCore(4)), at(2): entry(router.CoreRoute(2))}, "fragment 1 over-delivered to (0,0) core 4"},
	} {
		plan := &RoutingPlan{
			Spec:   MachineSpec{Torus: topo.MustTorus(4, 4)},
			Frags:  []*Fragment{{Index: 0}, frag},
			Dests:  map[int]map[topo.Coord][]int{1: {at(2): {2}}},
			Tables: c.tables,
		}
		err := plan.Validate()
		if c.err == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if err == nil || err.Error() != "mapping: "+c.err {
			t.Errorf("%s: error %v, want %q", c.name, err, "mapping: "+c.err)
		}
	}
}
