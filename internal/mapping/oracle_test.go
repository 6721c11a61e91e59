package mapping

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"spinngo/internal/neural"
	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// The oracle is the compile the streaming pass replaced: every
// projection expanded into a list of synapses, both ends of each found by
// scanning the fragments, destination sets updated and rows appended
// through hash maps once per synapse. Compile must build the same plans.

// Conn is one synapse of the oracle's expansion.
type Conn struct {
	PreIdx, PostIdx int
	Weight          uint16 // 1/256 nA units
	Delay           int
	Inhibitory      bool
}

// expandConns materialises the projection's synapse list.
func expandConns(pr *Projection) []Conn {
	rng := sim.NewRNG(pr.Seed ^ 0x9e3779b97f4a7c15)
	w := weightUnits(pr.WeightNA)
	mk := func(pre, post int) Conn {
		return Conn{PreIdx: pre, PostIdx: post, Weight: w, Delay: pr.DelayMS, Inhibitory: pr.Inhibitory}
	}
	var out []Conn
	switch pr.Kind {
	case AllToAll:
		for i := 0; i < pr.Pre.N; i++ {
			for j := 0; j < pr.Post.N; j++ {
				out = append(out, mk(i, j))
			}
		}
	case OneToOne:
		for i := 0; i < pr.Pre.N; i++ {
			out = append(out, mk(i, i))
		}
	case FixedProbability:
		for i := 0; i < pr.Pre.N; i++ {
			for j := 0; j < pr.Post.N; j++ {
				if rng.Bool(pr.P) {
					out = append(out, mk(i, j))
				}
			}
		}
	case FixedFanout:
		for i := 0; i < pr.Pre.N; i++ {
			perm := rng.Perm(pr.Post.N)
			k := pr.Fanout
			if k > pr.Post.N {
				k = pr.Post.N
			}
			for _, j := range perm[:k] {
				out = append(out, mk(i, j))
			}
		}
	case Shift:
		for i := 0; i < pr.Pre.N; i++ {
			j := (i + pr.Offset) % pr.Post.N
			if j < 0 {
				j += pr.Post.N
			}
			out = append(out, mk(i, j))
		}
	}
	return out
}

// rowKey names one synaptic row: the core it lives on and the
// presynaptic neuron's AER key.
type rowKey struct {
	frag   *Fragment
	preKey uint32
}

// mapBuilder accumulates a DataPlan one synapse at a time in hash maps
// keyed by row.
type mapBuilder struct {
	plan    *DataPlan
	rows    map[rowKey]neural.Row
	plastic map[rowKey]bool
	rules   map[*Fragment]*neural.STDPConfig
	order   []rowKey // rows in first-synapse order until finish sorts them by key
	err     error
}

func newMapBuilder(frags []*Fragment) *mapBuilder {
	b := &mapBuilder{
		plan:    &DataPlan{Cores: make(map[topo.Coord]map[int]*CoreData)},
		rows:    make(map[rowKey]neural.Row),
		plastic: make(map[rowKey]bool),
		rules:   make(map[*Fragment]*neural.STDPConfig),
	}
	for _, f := range frags {
		b.coreData(f)
	}
	return b
}

func (b *mapBuilder) coreData(f *Fragment) *CoreData {
	chip := b.plan.Cores[f.Chip]
	if chip == nil {
		chip = make(map[int]*CoreData)
		b.plan.Cores[f.Chip] = chip
	}
	cd := chip[f.Core]
	if cd == nil {
		cd = &CoreData{Frag: f, Matrix: neural.NewMatrix()}
		chip[f.Core] = cd
	}
	return cd
}

func (b *mapBuilder) add(pr *Projection, pre, post *Fragment, conn Conn) {
	k := rowKey{post, pre.KeyFor(conn.PreIdx)}
	if _, ok := b.rows[k]; !ok {
		b.order = append(b.order, k)
	}
	b.rows[k] = append(b.rows[k], neural.MakeSynWord(
		conn.Weight, conn.Delay, conn.Inhibitory, conn.PostIdx-post.Lo))
	if pr.STDP != nil {
		b.plastic[k] = true
		if rule := b.rules[post]; rule == nil {
			b.rules[post] = pr.STDP
		} else if *rule != *pr.STDP && b.err == nil {
			b.err = fmt.Errorf("mapping: conflicting STDP rules target %q fragment %d",
				post.Pop.Name, post.Index)
		}
	}
	b.plan.TotalSynapses++
}

func (b *mapBuilder) finish() (*DataPlan, error) {
	if b.err != nil {
		return nil, b.err
	}
	slices.SortStableFunc(b.order, func(x, y rowKey) int { return cmp.Compare(x.preKey, y.preKey) })
	for _, k := range b.order {
		cd := b.coreData(k.frag)
		cd.Matrix.AddRow(k.preKey, b.rows[k], b.plastic[k])
		b.plan.TotalBytes += b.rows[k].SizeBytes()
		cd.STDP = b.rules[k.frag]
	}
	return b.plan, nil
}

// compileOracle is Compile built from the oracle's expansion, fragment
// scans and map builder; routeTo and Validate are shared.
func compileOracle(net *Network, spec MachineSpec, strategy PlacementStrategy, opts RouteOptions, seed uint64) (*RoutingPlan, *DataPlan, error) {
	frags, err := Partition(net, spec)
	if err != nil {
		return nil, nil, err
	}
	if err := Place(frags, spec, strategy, seed); err != nil {
		return nil, nil, err
	}
	dests, data := newDestSets(frags), newMapBuilder(frags)
	for _, pr := range net.Projs {
		for _, conn := range expandConns(pr) {
			pre, err := FragmentForNeuron(frags, pr.Pre, conn.PreIdx)
			if err != nil {
				return nil, nil, err
			}
			post, err := FragmentForNeuron(frags, pr.Post, conn.PostIdx)
			if err != nil {
				return nil, nil, err
			}
			dests.add(pre, post)
			data.add(pr, pre, post, conn)
		}
	}
	rplan, err := routeTo(dests, frags, spec, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := rplan.Validate(); err != nil {
		return nil, nil, fmt.Errorf("mapping: generated plan failed validation: %w", err)
	}
	dplan, err := data.finish()
	if err != nil {
		return nil, nil, err
	}
	return rplan, dplan, nil
}

// compileMatchesOracle compiles net with Compile and with the oracle and
// holds the two to each other: the error, destination sets, trees,
// tables and statistics, the totals, and every core's keys, rows, plastic
// marks and STDP rule. It reports the number of plastic rows compared.
func compileMatchesOracle(t *testing.T, net *Network, spec MachineSpec, strategy PlacementStrategy, opts RouteOptions, seed uint64) int {
	t.Helper()
	rplan, dplan, err := Compile(net, spec, strategy, opts, seed)
	rwant, dwant, werr := compileOracle(net, spec, strategy, opts, seed)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("error %v, oracle %v", err, werr)
	}
	if err != nil {
		return 0
	}
	if rplan.Stats != rwant.Stats || !reflect.DeepEqual(rplan.Dests, rwant.Dests) ||
		!reflect.DeepEqual(rplan.Trees, rwant.Trees) || !reflect.DeepEqual(rplan.Tables, rwant.Tables) {
		t.Fatalf("routing differs:\n streaming %+v\n oracle    %+v", rplan.Stats, rwant.Stats)
	}
	if dplan.TotalSynapses != dwant.TotalSynapses || dplan.TotalBytes != dwant.TotalBytes {
		t.Fatalf("data totals %d synapses / %d bytes, oracle %d / %d",
			dplan.TotalSynapses, dplan.TotalBytes, dwant.TotalSynapses, dwant.TotalBytes)
	}
	plasticRows := 0
	for i, f := range rplan.Frags {
		wf := rwant.Frags[i]
		got, want := dplan.Cores[f.Chip][f.Core], dwant.Cores[wf.Chip][wf.Core]
		if got.Frag.Index != i || want.Frag.Index != i {
			t.Fatalf("fragment %d: core image holds fragment %d, oracle %d", i, got.Frag.Index, want.Frag.Index)
		}
		if (got.STDP == nil) != (want.STDP == nil) || got.STDP != nil && *got.STDP != *want.STDP {
			t.Fatalf("fragment %d: STDP rule %v, oracle %v", i, got.STDP, want.STDP)
		}
		if got.Matrix.Bytes() != want.Matrix.Bytes() || !slices.Equal(got.Matrix.Keys(), want.Matrix.Keys()) {
			t.Fatalf("fragment %d: matrix of %d rows / %d bytes, oracle %d / %d", i,
				got.Matrix.NumRows(), got.Matrix.Bytes(), want.Matrix.NumRows(), want.Matrix.Bytes())
		}
		for _, key := range want.Matrix.Keys() {
			grow, _, gplastic, _ := got.Matrix.Lookup(key)
			wrow, _, wplastic, _ := want.Matrix.Lookup(key)
			if !slices.Equal(grow, wrow) || gplastic != wplastic {
				t.Fatalf("fragment %d row %#x: %v (plastic %v), oracle %v (plastic %v)", i, key, grow, gplastic, wrow, wplastic)
			}
			if wplastic {
				plasticRows++
			}
		}
	}
	return plasticRows
}

// compileCase decodes a small network from fuzz input: a header (torus
// width and height 1..3, neurons per core 1..8, placement and route
// options), one to four populations of 1..24 neurons, then up to eight
// projections of seven bytes each (pre, post, connector of all five
// kinds, its parameter, delay and sign, weight and STDP rule, seed). The
// STDP choice is none, one rule, an equal rule behind another pointer,
// or a different rule.
func compileCase(data []byte) (*Network, MachineSpec, PlacementStrategy, RouteOptions) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	spec := DefaultMachineSpec(1+next()%3, 1+next()%3)
	spec.MaxNeuronsPerCore = 1 + next()%8
	opt := next()
	strategy := PlacementStrategy(opt % 2)
	opts := RouteOptions{ElideDefault: opt&2 != 0, Minimise: opt&4 != 0}
	net := &Network{}
	for n := 1 + next()%4; n > 0; n-- {
		net.AddPopulation(&Population{Name: fmt.Sprint("p", len(net.Pops)), N: 1 + next()%24, Kind: ModelLIF})
	}
	rule, same, other := neural.DefaultSTDP(), neural.DefaultSTDP(), neural.DefaultSTDP()
	other.APlus *= 2
	rules := []*neural.STDPConfig{nil, &rule, &same, &other}
	for len(data) > 0 && len(net.Projs) < 8 {
		pre, post := net.Pops[next()%len(net.Pops)], net.Pops[next()%len(net.Pops)]
		kind := ConnectorKind(next() % 5)
		if kind == OneToOne && pre.N != post.N {
			kind = Shift
		}
		param, sign, plastic := next(), next(), next()
		net.Connect(&Projection{Pre: pre, Post: post, Kind: kind,
			P: float64(param) / 255, Fanout: 1 + param%8, Offset: param%33 - 16,
			DelayMS: 1 + sign%15, Inhibitory: sign&0x80 != 0,
			WeightNA: float64(plastic>>2) / 8, STDP: rules[plastic%4], Seed: uint64(next())})
	}
	return net, spec, strategy, opts
}

// FuzzCompile holds Compile to the oracle on small random networks; the
// seeds in testdata/fuzz/FuzzCompile cover every connector kind, uneven
// fragment splits, a static and a plastic projection sharing rows, the
// same pre population feeding one post population twice, populations no
// projection reaches, and conflicting STDP rules on one row.
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		net, spec, strategy, opts := compileCase(data)
		compileMatchesOracle(t, net, spec, strategy, opts, 3)
	})
}
