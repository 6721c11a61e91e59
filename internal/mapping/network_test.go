package mapping

import (
	"math"
	"strings"
	"testing"

	"spinngo/internal/neural"
)

func twoPopNet(preN, postN int, kind ConnectorKind) (*Network, *Projection) {
	net := &Network{}
	pre := net.AddPopulation(&Population{Name: "pre", N: preN, Kind: ModelLIF, LIF: neural.DefaultLIF()})
	post := net.AddPopulation(&Population{Name: "post", N: postN, Kind: ModelLIF, LIF: neural.DefaultLIF()})
	proj := net.Connect(&Projection{Pre: pre, Post: post, Kind: kind, P: 0.1, Fanout: 3,
		WeightNA: 0.5, DelayMS: 2, Seed: 1})
	return net, proj
}

func TestValidateCatchesBadNetworks(t *testing.T) {
	empty := &Network{}
	if empty.Validate() == nil {
		t.Error("empty network validated")
	}
	net, proj := twoPopNet(4, 4, OneToOne)
	if err := net.Validate(); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
	proj.DelayMS = 0
	if net.Validate() == nil {
		t.Error("zero delay accepted")
	}
	proj.DelayMS = 99
	if net.Validate() == nil {
		t.Error("oversized delay accepted")
	}
	proj.DelayMS = 2
	proj.Kind = FixedProbability
	proj.P = 1.5
	if net.Validate() == nil {
		t.Error("probability > 1 accepted")
	}
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		proj.P = p
		if err := net.Validate(); err == nil || !strings.Contains(err.Error(), "pre->post") {
			t.Errorf("probability %g: got %v, want an error naming pre->post", p, err)
		}
	}
	proj.P = 0.1
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		proj.WeightNA = w
		if err := net.Validate(); err == nil || !strings.Contains(err.Error(), "pre->post") {
			t.Errorf("weight %g: got %v, want an error naming pre->post", w, err)
		}
	}
	proj.WeightNA = 1
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		bad  func(*neural.STDPConfig)
	}{
		{"APlus NaN", func(r *neural.STDPConfig) { r.APlus = nan }},
		{"APlus +Inf", func(r *neural.STDPConfig) { r.APlus = inf }},
		{"AMinus -Inf", func(r *neural.STDPConfig) { r.AMinus = -inf }},
		{"TauPlusMS zero", func(r *neural.STDPConfig) { r.TauPlusMS = 0 }},
		{"TauPlusMS negative", func(r *neural.STDPConfig) { r.TauPlusMS = -20 }},
		{"TauPlusMS NaN", func(r *neural.STDPConfig) { r.TauPlusMS = nan }},
		{"TauMinusMS zero", func(r *neural.STDPConfig) { r.TauMinusMS = 0 }},
		{"TauMinusMS +Inf", func(r *neural.STDPConfig) { r.TauMinusMS = inf }},
		{"WMin above WMax", func(r *neural.STDPConfig) { r.WMin, r.WMax = 100, 99 }},
	} {
		rule := neural.DefaultSTDP()
		c.bad(&rule)
		proj.STDP = &rule
		if err := net.Validate(); err == nil || !strings.Contains(err.Error(), "pre->post") {
			t.Errorf("STDP %s: got %v, want an error naming pre->post", c.name, err)
		}
	}
	rule := neural.DefaultSTDP()
	rule.WMin, rule.WMax = 7, 7
	proj.STDP = &rule
	if err := net.Validate(); err != nil {
		t.Errorf("STDP with WMin = WMax rejected: %v", err)
	}
}

func TestValidateOneToOneShapes(t *testing.T) {
	net, _ := twoPopNet(4, 5, OneToOne)
	if net.Validate() == nil {
		t.Error("one-to-one with mismatched sizes accepted")
	}
}

// synapses collects a projection's streaming expansion.
func synapses(pr *Projection) []Conn {
	var out []Conn
	pr.each(func(pre, post int) { out = append(out, Conn{PreIdx: pre, PostIdx: post}) })
	return out
}

func TestExpandAllToAll(t *testing.T) {
	_, proj := twoPopNet(3, 4, AllToAll)
	conns := synapses(proj)
	if len(conns) != 12 {
		t.Fatalf("all-to-all 3x4 = %d conns, want 12", len(conns))
	}
	seen := map[[2]int]bool{}
	for _, c := range conns {
		seen[[2]int{c.PreIdx, c.PostIdx}] = true
	}
	if len(seen) != 12 {
		t.Error("duplicate pairs in all-to-all")
	}
}

func TestExpandOneToOne(t *testing.T) {
	_, proj := twoPopNet(5, 5, OneToOne)
	conns := synapses(proj)
	if len(conns) != 5 {
		t.Fatalf("one-to-one = %d conns, want 5", len(conns))
	}
	for _, c := range conns {
		if c.PreIdx != c.PostIdx {
			t.Errorf("conn %d->%d not diagonal", c.PreIdx, c.PostIdx)
		}
	}
}

func TestExpandFixedProbabilityStatistics(t *testing.T) {
	net := &Network{}
	pre := net.AddPopulation(&Population{Name: "a", N: 100, Kind: ModelLIF})
	post := net.AddPopulation(&Population{Name: "b", N: 100, Kind: ModelLIF})
	proj := net.Connect(&Projection{Pre: pre, Post: post, Kind: FixedProbability,
		P: 0.1, WeightNA: 1, DelayMS: 1, Seed: 2})
	n := len(synapses(proj))
	// Expect ~1000 of 10000 possible.
	if n < 800 || n > 1200 {
		t.Errorf("expanded %d conns, want ~1000", n)
	}
}

func TestExpandFixedFanoutExact(t *testing.T) {
	net := &Network{}
	pre := net.AddPopulation(&Population{Name: "a", N: 20, Kind: ModelLIF})
	post := net.AddPopulation(&Population{Name: "b", N: 50, Kind: ModelLIF})
	proj := net.Connect(&Projection{Pre: pre, Post: post, Kind: FixedFanout,
		Fanout: 7, WeightNA: 1, DelayMS: 1, Seed: 3})
	conns := synapses(proj)
	if len(conns) != 140 {
		t.Fatalf("fanout expansion = %d, want 140", len(conns))
	}
	perPre := map[int]map[int]bool{}
	for _, c := range conns {
		if perPre[c.PreIdx] == nil {
			perPre[c.PreIdx] = map[int]bool{}
		}
		if perPre[c.PreIdx][c.PostIdx] {
			t.Fatalf("pre %d targets post %d twice", c.PreIdx, c.PostIdx)
		}
		perPre[c.PreIdx][c.PostIdx] = true
	}
	for pre, posts := range perPre {
		if len(posts) != 7 {
			t.Errorf("pre %d has %d targets, want 7", pre, len(posts))
		}
	}
}

func TestExpandDeterministic(t *testing.T) {
	_, p1 := twoPopNet(50, 50, FixedProbability)
	_, p2 := twoPopNet(50, 50, FixedProbability)
	a, b := synapses(p1), synapses(p2)
	if len(a) != len(b) {
		t.Fatal("same seed, different expansion size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different expansion")
		}
	}
}

func TestWeightUnits(t *testing.T) {
	if weightUnits(1.0) != 256 {
		t.Errorf("1 nA = %d units, want 256", weightUnits(1.0))
	}
	if weightUnits(1000) != 65535 {
		t.Error("weight did not saturate")
	}
	if weightUnits(0) != 0 {
		t.Error("zero weight")
	}
}

func TestConnectorKindStrings(t *testing.T) {
	for k, want := range map[ConnectorKind]string{
		AllToAll: "all-to-all", OneToOne: "one-to-one",
		FixedProbability: "fixed-probability", FixedFanout: "fixed-fanout",
		Shift: "shift",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	for k, want := range map[ModelKind]string{
		ModelLIF: "lif", ModelIzhikevich: "izhikevich", ModelPoisson: "poisson",
	} {
		if k.String() != want {
			t.Errorf("model %d = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestShiftConnector(t *testing.T) {
	net := &Network{}
	ring := net.AddPopulation(&Population{Name: "r", N: 10, Kind: ModelLIF})
	proj := net.Connect(&Projection{Pre: ring, Post: ring, Kind: Shift, Offset: 3,
		WeightNA: 1, DelayMS: 1})
	conns := synapses(proj)
	if len(conns) != 10 {
		t.Fatalf("shift expansion = %d", len(conns))
	}
	for _, c := range conns {
		if c.PostIdx != (c.PreIdx+3)%10 {
			t.Errorf("conn %d->%d, want +3 mod 10", c.PreIdx, c.PostIdx)
		}
	}
	// Negative offsets wrap too.
	proj.Offset = -2
	for _, c := range synapses(proj) {
		want := (c.PreIdx - 2 + 10) % 10
		if c.PostIdx != want {
			t.Errorf("conn %d->%d, want %d", c.PreIdx, c.PostIdx, want)
		}
	}
}

// TestSTDPConflictDetected: two different STDP rules reaching one core
// are an error, whether they feed different rows (two populations into
// c) or the same rows (two all-to-all projections from a).
func TestSTDPConflictDetected(t *testing.T) {
	r1 := neural.DefaultSTDP()
	r2 := neural.DefaultSTDP()
	r2.APlus = 99
	for _, c := range []struct {
		name string
		kind ConnectorKind
		pre2 int // index of the second projection's pre population
	}{
		{"two populations", OneToOne, 1},
		{"one row", AllToAll, 0},
	} {
		net := &Network{}
		a := net.AddPopulation(&Population{Name: "a", N: 8, Kind: ModelLIF})
		net.AddPopulation(&Population{Name: "b", N: 8, Kind: ModelLIF})
		cpop := net.AddPopulation(&Population{Name: "c", N: 8, Kind: ModelLIF})
		net.Connect(&Projection{Pre: a, Post: cpop, Kind: c.kind, WeightNA: 1, DelayMS: 1, STDP: &r1})
		net.Connect(&Projection{Pre: net.Pops[c.pre2], Post: cpop, Kind: c.kind, WeightNA: 1, DelayMS: 1, STDP: &r2})
		_, _, err := Compile(net, DefaultMachineSpec(2, 2), PlaceSerpentine, RouteOptions{}, 0)
		if err == nil || !strings.Contains(err.Error(), "conflicting STDP rules target \"c\"") {
			t.Errorf("%s: err %v, want a conflicting STDP rules error", c.name, err)
		}
	}
}
