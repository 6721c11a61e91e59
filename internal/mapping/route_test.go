package mapping

import (
	"reflect"
	"slices"
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
	frags, err := Partition(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Place(frags, spec, PlaceSerpentine, 0); err != nil {
		t.Fatal(err)
	}
	dplan, err := BuildData(net, frags)
	if err != nil {
		t.Fatal(err)
	}
	if dplan.TotalSynapses != 10 {
		t.Errorf("synapses = %d, want 10", dplan.TotalSynapses)
	}
	// Every pre neuron i connects to post neuron i: find the row for
	// pre neuron 5 and check it targets the right local index.
	preFrags := FragmentsOf(frags, net.Pops[0])
	postFrags := FragmentsOf(frags, net.Pops[1])
	pre5, _ := FragmentForNeuron(preFrags, net.Pops[0], 5)
	post5, _ := FragmentForNeuron(postFrags, net.Pops[1], 5)
	cd := dplan.Cores[post5.Chip][post5.Core]
	row, _, ok := cd.Matrix.Lookup(pre5.KeyFor(5))
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

// TestCompileMatchesTwoCallForm holds the one-expansion compile to the
// two-call form it replaced — Route and BuildData each expanding every
// projection for themselves — on a network with a static, a recurrent
// plastic and an inhibitory projection: destination sets, trees'
// link counts, routing tables and statistics, and every core's matrix
// row for row, plastic marks and byte totals included.
func TestCompileMatchesTwoCallForm(t *testing.T) {
	net, _ := twoPopNet(300, 200, FixedProbability)
	pre, post := net.Pops[0], net.Pops[1]
	stdp := neural.DefaultSTDP()
	net.Connect(&Projection{Pre: post, Post: post, Kind: FixedFanout, Fanout: 7, WeightNA: 0.2, DelayMS: 1, Seed: 2, STDP: &stdp})
	net.Connect(&Projection{Pre: post, Post: pre, Kind: Shift, Offset: 5, WeightNA: 0.7, DelayMS: 3, Seed: 3, Inhibitory: true})
	spec := DefaultMachineSpec(4, 4)
	spec.MaxNeuronsPerCore = 32
	spec.AppCoresPerChip = 4
	opts := RouteOptions{ElideDefault: true, Minimise: true}

	rplan, dplan, err := Compile(net, spec, PlaceSerpentine, opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := Partition(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Place(frags, spec, PlaceSerpentine, 7); err != nil {
		t.Fatal(err)
	}
	rwant, err := Route(net, frags, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	dwant, err := BuildData(net, frags)
	if err != nil {
		t.Fatal(err)
	}

	if rplan.Stats != rwant.Stats || !reflect.DeepEqual(rplan.Dests, rwant.Dests) || !reflect.DeepEqual(rplan.Tables, rwant.Tables) {
		t.Errorf("routing differs:\n one expansion  %+v\n two expansions %+v", rplan.Stats, rwant.Stats)
	}
	if dplan.TotalSynapses != dwant.TotalSynapses || dplan.TotalBytes != dwant.TotalBytes || dplan.TotalSynapses == 0 {
		t.Errorf("data totals %d synapses / %d bytes, want %d / %d",
			dplan.TotalSynapses, dplan.TotalBytes, dwant.TotalSynapses, dwant.TotalBytes)
	}
	plasticRows := 0
	for i, f := range rplan.Frags {
		got, want := dplan.Cores[f.Chip][f.Core], dwant.Cores[frags[i].Chip][frags[i].Core]
		if (got.STDP == nil) != (want.STDP == nil) || got.Matrix.Bytes() != want.Matrix.Bytes() ||
			!slices.Equal(got.Matrix.Keys(), want.Matrix.Keys()) {
			t.Fatalf("fragment %d: matrix of %d rows / %d bytes, want %d / %d", i,
				got.Matrix.NumRows(), got.Matrix.Bytes(), want.Matrix.NumRows(), want.Matrix.Bytes())
		}
		for _, key := range want.Matrix.Keys() {
			grow, gplastic, _ := got.Matrix.Lookup(key)
			wrow, wplastic, _ := want.Matrix.Lookup(key)
			if !slices.Equal(grow, wrow) || gplastic != wplastic {
				t.Fatalf("fragment %d row %#x: %v (plastic %v), want %v (plastic %v)", i, key, grow, gplastic, wrow, wplastic)
			}
			if wplastic {
				plasticRows++
			}
		}
	}
	if plasticRows == 0 {
		t.Error("no plastic row compared; the network was meant to hold some")
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
