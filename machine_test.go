package spinngo

import (
	"math"
	"strings"
	"testing"

	"spinngo/internal/mapping"
	"spinngo/internal/router"
	"spinngo/internal/topo"
)

// buildSmallMachine boots a w x h machine.
func buildSmallMachine(t *testing.T, cfg MachineConfig) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBootReport(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 3, Height: 3})
	// Boot again must fail.
	if _, err := m.Boot(); err == nil {
		t.Error("double boot accepted")
	}
}

func TestBootProducesAppCores(t *testing.T) {
	m, err := NewMachine(MachineConfig{Width: 3, Height: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Boot()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BootedLocally != 9 || rep.DeadForever != 0 {
		t.Errorf("boot report %+v", rep)
	}
	if !rep.CoordCorrect {
		t.Error("coordinates wrong")
	}
	// 9 chips x (20 - monitor) = 171 app cores.
	if rep.AppCores != 171 {
		t.Errorf("app cores = %d, want 171", rep.AppCores)
	}
}

// TestLoadTimesMeasureTheLoad: boot and application load report the
// time up to their last acknowledgement, not the 100 ms command
// deadlines the post-load drain runs out. The image load is
// Ethernet-paced, so 12x12 loads as fast as 4x4.
func TestLoadTimesMeasureTheLoad(t *testing.T) {
	bootLoad := func(side int) float64 {
		m, err := NewMachine(MachineConfig{Width: side, Height: side, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		rep, err := m.Boot()
		if err != nil {
			t.Fatal(err)
		}
		if rep.LoadTimeMS <= 0 || rep.LoadTimeMS >= 10 {
			t.Errorf("%dx%d image load took %.3f ms, want (0, 10)", side, side, rep.LoadTimeMS)
		}
		return rep.LoadTimeMS
	}
	small, large := bootLoad(4), bootLoad(12)
	if large > 1.05*small || small > 1.05*large {
		t.Errorf("image load %.3f ms on 4x4 but %.3f ms on 12x12, want within 1.05x", small, large)
	}

	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 1})
	defer m.Close()
	model := NewModel()
	stim := model.AddPoisson("stim", 20, 10)
	exc := model.AddLIF("exc", 50, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{Rule: RandomRule, P: 0.2, WeightNA: 1, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Load(model)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LoadTimeMS <= 0 || rep.LoadTimeMS >= 100 {
		t.Errorf("application data load took %.3f ms, want (0, 100)", rep.LoadTimeMS)
	}
}

func TestLoadRequiresBoot(t *testing.T) {
	m, err := NewMachine(MachineConfig{Width: 2, Height: 2})
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel()
	model.AddLIF("a", 10, DefaultLIFConfig())
	if _, err := m.Load(model); err == nil {
		t.Error("load before boot accepted")
	}
}

func TestRunRequiresLoad(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2})
	if _, err := m.Run(10); err == nil {
		t.Error("run before load accepted")
	}
}

func TestEndToEndFeedforward(t *testing.T) {
	// Poisson stimulus drives a LIF population hard enough to fire:
	// the full pipeline (mapping, routing, AER packets, DMA, deferred
	// events, integration) must carry activity across the machine.
	m := buildSmallMachine(t, MachineConfig{Width: 3, Height: 3, Seed: 5})
	model := NewModel()
	stim := model.AddPoisson("stim", 100, 200) // 100 sources at 200 Hz
	exc := model.AddLIF("exc", 200, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{
		Rule: RandomRule, P: 0.3, WeightNA: 1.2, DelayMS: 2,
	}); err != nil {
		t.Fatal(err)
	}
	lr, err := m.Load(model)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Fragments == 0 || lr.Synapses == 0 {
		t.Fatalf("load report %+v", lr)
	}
	rep, err := m.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	stimSpikes := m.Spikes(stim)
	excSpikes := m.Spikes(exc)
	if len(stimSpikes) == 0 {
		t.Fatal("stimulus emitted nothing")
	}
	if len(excSpikes) == 0 {
		t.Fatal("LIF population never fired: the pipeline is broken somewhere")
	}
	if rep.PacketsDropped != 0 {
		t.Errorf("%d packets dropped on a healthy machine", rep.PacketsDropped)
	}
	if !rep.RealTime {
		t.Errorf("real-time violated: %d overruns", rep.Overruns)
	}
	if rep.MaxLatencyUS >= 1000 {
		t.Errorf("max latency %.1f us breaks the paper's 1 ms bound", rep.MaxLatencyUS)
	}
	if rep.MeanSleepFraction <= 0.1 {
		t.Errorf("sleep fraction %.3f suspiciously low for a light load", rep.MeanSleepFraction)
	}
	if rep.EnergyJ <= 0 || rep.MIPSPerWatt <= 0 {
		t.Errorf("energy report: %+v", rep)
	}
}

func TestStimulusRatesPropagate(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 3})
	model := NewModel()
	stim := model.AddPoisson("stim", 50, 100)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	rate := m.MeanRateHz(stim)
	if rate < 80 || rate > 120 {
		t.Errorf("Poisson rate = %.1f Hz, want ~100", rate)
	}
}

func TestInjectSpikeReachesTarget(t *testing.T) {
	// One-to-one wiring with a huge weight: injecting a spike into
	// neuron 7 of pre must make neuron 7 of post fire.
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 2})
	model := NewModel()
	pre := model.AddLIF("pre", 20, DefaultLIFConfig())
	post := model.AddLIF("post", 20, DefaultLIFConfig())
	if err := model.Connect(pre, post, Conn{
		Rule: OneToOneRule, WeightNA: 50, DelayMS: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectSpike(pre, 7, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	fired := map[int]bool{}
	for _, s := range m.Spikes(post) {
		fired[s.Neuron] = true
	}
	if !fired[7] {
		t.Error("post neuron 7 did not fire after forced pre spike")
	}
	if len(fired) != 1 {
		t.Errorf("extra post neurons fired: %v", fired)
	}
}

func TestKillNeuronSilences(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 4})
	model := NewModel()
	cfg := DefaultLIFConfig()
	cfg.BiasNA = 1.5 // self-firing
	p := model.AddLIF("p", 10, cfg)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if err := m.KillNeuron(p, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Spikes(p) {
		if s.Neuron == 3 {
			t.Fatal("dead neuron fired")
		}
	}
	if len(m.Spikes(p)) == 0 {
		t.Error("survivors did not fire")
	}

	// A spike source's neurons are stateless trains: killing one would
	// leave it firing, so the call is refused.
	m = buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 4})
	model = NewModel()
	stim := model.AddPoisson("stim", 10, 200)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if err := m.KillNeuron(stim, 3); err == nil || !strings.Contains(err.Error(), "spike source") {
		t.Errorf("KillNeuron on a Poisson population: %v, want a spike-source error", err)
	}
}

func TestEmergencyRoutingEndToEnd(t *testing.T) {
	// Kill links and confirm traffic still arrives via the Fig-8
	// detours, visible in the report.
	m := buildSmallMachine(t, MachineConfig{Width: 4, Height: 4, Seed: 6,
		MaxAppCoresPerChip: 1}) // spread fragments across chips
	model := NewModel()
	stim := model.AddPoisson("stim", 60, 150)
	sink := model.AddLIF("sink", 400, DefaultLIFConfig())
	if err := model.Connect(stim, sink, Conn{Rule: RandomRule, P: 0.2, WeightNA: 0.8, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	// Break a few links after load (tables already point through them).
	for _, l := range []struct {
		x, y int
		d    string
	}{{0, 0, "E"}, {1, 1, "NE"}, {2, 0, "N"}} {
		if err := m.FailLink(l.x, l.y, l.d); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Spikes(sink)) == 0 {
		t.Error("sink silent despite emergency routing")
	}
	if rep.EmergencyInvocations == 0 {
		t.Error("no emergency routing recorded despite failed links on the paths")
	}
}

func TestFailLinkRejectsBadDirection(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2})
	if err := m.FailLink(0, 0, "Q"); err == nil {
		t.Error("bogus direction accepted")
	}
}

// TestFailLinkRepricesGuttedCut is the FailLink story end to end on a
// machine: a bands cut on a heterogeneous fabric mixes fast on-board
// and slow board-to-board links, so its lookahead is pinned to the fast
// floor — until every fast link in the cut dies. FailLink commits like
// every other fault, so the bound re-prices to the surviving slow floor
// at once.
func TestFailLinkRepricesGuttedCut(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 8, Height: 8, Seed: 5, Workers: 4,
		Partition: PartitionBands, Boards: "4x4", BoardLinkParams: BoardLinkSlow,
		MaxAppCoresPerChip: 2})
	defer m.Close()
	st := m.SimStats()
	if st.CutLinksByLevel[0] == 0 || st.CutLinksByLevel[1] == 0 {
		t.Fatalf("bands/4 on 4x4 boards should mix cut levels, got %d+%d",
			st.CutLinksByLevel[0], st.CutLinksByLevel[1])
	}
	narrow := st.Lookahead

	// Kill every fast link in the cut (FailLink fails both directions,
	// which stays within the fast set: the reverse of an on-board cut
	// link is an on-board cut link).
	part := topo.NewBands(topo.MustTorus(8, 8), 4)
	boards, err := topo.ParseTile("4x4")
	if err != nil {
		t.Fatal(err)
	}
	for _, bl := range part.BoundaryLinks() {
		if !boards.Crosses(bl.From, bl.Dir) {
			if err := m.FailLink(bl.From.X, bl.From.Y, bl.Dir.String()); err != nil {
				t.Fatal(err)
			}
		}
	}
	wide := m.SimStats().Lookahead
	if wide <= narrow {
		t.Fatalf("gutted cut did not re-price at FailLink: lookahead %v, was %v", wide, narrow)
	}
}

func TestRandomPlacementStillWorks(t *testing.T) {
	// Virtualised topology (section 3.2): any neuron can live on any
	// processor; random placement must be functionally identical.
	m := buildSmallMachine(t, MachineConfig{Width: 3, Height: 3, Seed: 8, Placement: Random})
	model := NewModel()
	stim := model.AddPoisson("stim", 40, 150)
	sink := model.AddLIF("sink", 100, DefaultLIFConfig())
	if err := model.Connect(stim, sink, Conn{Rule: RandomRule, P: 0.3, WeightNA: 1.0, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	if len(m.Spikes(sink)) == 0 {
		t.Error("random placement broke the network")
	}
}

func TestModelValidationSurfacesInConnect(t *testing.T) {
	model := NewModel()
	a := model.AddLIF("a", 10, DefaultLIFConfig())
	b := model.AddLIF("b", 12, DefaultLIFConfig())
	if err := model.Connect(a, b, Conn{Rule: OneToOneRule, WeightNA: 1, DelayMS: 1}); err == nil {
		t.Error("one-to-one size mismatch accepted")
	}
	if err := model.Connect(a, b, Conn{Rule: RandomRule, P: 0.1, WeightNA: 1, DelayMS: 99}); err == nil {
		t.Error("bad delay accepted")
	}
	// A failed Connect leaves its projection in the model, so each
	// non-finite case gets a fresh one.
	for _, c := range []Conn{
		{Rule: RandomRule, P: math.NaN(), WeightNA: 1, DelayMS: 1},
		{Rule: RandomRule, P: 0.1, WeightNA: math.NaN(), DelayMS: 1},
		{Rule: AllToAllRule, WeightNA: math.Inf(1), DelayMS: 1},
	} {
		model := NewModel()
		a := model.AddLIF("a", 10, DefaultLIFConfig())
		b := model.AddLIF("b", 12, DefaultLIFConfig())
		if err := model.Connect(a, b, c); err == nil || !strings.Contains(err.Error(), "a->b") {
			t.Errorf("P %g, weight %g: got %v, want an error naming a->b", c.P, c.WeightNA, err)
		}
	}
}

func TestIzhikevichPopulationRuns(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 9})
	model := NewModel()
	cfg := RegularSpikingConfig()
	cfg.BiasNA = 10
	p := model.AddIzhikevich("rs", 30, cfg)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(500); err != nil {
		t.Fatal(err)
	}
	if len(m.Spikes(p)) == 0 {
		t.Error("biased Izhikevich population silent")
	}
}

func TestFunctionalMigration(t *testing.T) {
	// The abstract's "functional migration and real-time fault
	// mitigation": kill the core running a self-firing population; the
	// monitor migrates the fragment to a spare core and firing resumes.
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 13})
	model := NewModel()
	cfg := DefaultLIFConfig()
	cfg.BiasNA = 1.5
	p := model.AddLIF("p", 20, cfg)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	before := len(m.Spikes(p))
	if before == 0 {
		t.Fatal("population silent before the fault")
	}
	if err := m.FailCoreOf(p, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", rep.Migrations)
	}
	after := m.Spikes(p)
	if len(after) <= before {
		t.Fatal("no spikes after migration: fragment did not resume")
	}
	// Firing must resume within the detection + reload window and
	// carry correct machine-time stamps.
	var resumed bool
	for _, s := range after {
		if s.TimeMS > 100+MigrationDetectMS && s.TimeMS <= 200 {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Error("no post-migration spikes in the expected window")
	}
	// The rate is the raster's length — summed over both generations of
	// the fragment without copying it — over neurons and seconds.
	if got, want := m.MeanRateHz(p), float64(len(after))/20/0.2; got != want {
		t.Errorf("MeanRateHz = %v, want %v (%d spikes of 20 neurons in 200 ms)", got, want, len(after))
	}
}

func TestMigrationRewritesRoutes(t *testing.T) {
	// Packets must reach the fragment at its new core: fail the post
	// core of a one-to-one pair, migrate, then inject a pre spike.
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 14})
	model := NewModel()
	pre := model.AddLIF("pre", 10, DefaultLIFConfig())
	post := model.AddLIF("post", 10, DefaultLIFConfig())
	if err := model.Connect(pre, post, Conn{Rule: OneToOneRule, WeightNA: 50, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if err := m.FailCoreOf(post, 0); err != nil {
		t.Fatal(err)
	}
	// Wait out the migration, then stimulate.
	if _, err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectSpike(pre, 4, 25); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", rep.Migrations)
	}
	fired := false
	for _, s := range m.Spikes(post) {
		// The migrated core's clock is re-seeded from machine time with
		// up to ~2 ms of tick-phase offset; accept that window.
		if s.Neuron == 4 && s.TimeMS >= 22 {
			fired = true
		}
	}
	if !fired {
		t.Error("post neuron did not fire via the migrated core's rewritten route")
	}
}

func TestMigrationFailsWithoutSpareCore(t *testing.T) {
	// Two cores per chip: one monitor, one application core. Killing
	// the only application core leaves nowhere to migrate.
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 15, CoresPerChip: 2})
	model := NewModel()
	cfg := DefaultLIFConfig()
	cfg.BiasNA = 1.5
	p := model.AddLIF("p", 10, cfg)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if err := m.FailCoreOf(p, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 0 || rep.MigrationFailures != 1 {
		t.Errorf("migrations=%d failures=%d, want 0/1", rep.Migrations, rep.MigrationFailures)
	}
}

// TestKillNeuronAfterMigration is the satellite regression for the
// migrate bookkeeping: post-migration reads and writes must resolve the
// fragment's live unit, not the dead core's old slot (which used to
// panic on a deleted map entry).
func TestKillNeuronAfterMigration(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 13})
	defer m.Close()
	model := NewModel()
	cfg := DefaultLIFConfig()
	cfg.BiasNA = 1.5
	p := model.AddLIF("p", 20, cfg)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	if err := m.FailCoreOf(p, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", rep.Migrations)
	}
	// Post-migration reads work against the migrated core.
	if m.MeanWeightNA(p) < 0 {
		t.Error("MeanWeightNA failed post-migration")
	}
	before := len(m.Spikes(p))
	if before == 0 {
		t.Fatal("no spikes recorded post-migration")
	}
	// KillNeuron must resolve the live (migrated) unit — this call
	// panicked before the fix.
	if err := m.KillNeuron(p, 3); err != nil {
		t.Fatalf("KillNeuron after migration: %v", err)
	}
	if _, err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Spikes(p) {
		if s.Neuron == 3 && s.TimeMS > 75 {
			t.Fatalf("killed neuron fired at %d ms on the migrated core", s.TimeMS)
		}
	}
	// And the rate observable keeps reading post-migration state.
	if m.MeanRateHz(p) == 0 {
		t.Error("MeanRateHz reads zero despite post-migration firing")
	}
}

func TestFailCoreOfUnknownNeuron(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2})
	model := NewModel()
	p := model.AddLIF("p", 5, DefaultLIFConfig())
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if err := m.FailCoreOf(p, 99); err == nil {
		t.Error("bogus neuron accepted")
	}
	// Double-fail: the second call must report no live core.
	if err := m.FailCoreOf(p, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.FailCoreOf(p, 0); err == nil {
		t.Error("double fail accepted before migration completed")
	}
}

// TestPopHandleGuard pins handle resolution for every Pop-taking
// method: on a machine with no model loaded, and for a handle issued by
// a different Model (here one whose index would run off the loaded
// model's population list), mutators return an error and readers report
// zero — they used to dereference the nil model or index the wrong
// population.
func TestPopHandleGuard(t *testing.T) {
	other := NewModel()
	other.AddLIF("a", 5, DefaultLIFConfig())
	foreign := other.AddLIF("b", 5, DefaultLIFConfig())

	unloaded := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2})
	defer unloaded.Close()
	loaded := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2})
	defer loaded.Close()
	model := NewModel()
	own := model.AddLIF("p", 5, DefaultLIFConfig())
	if _, err := loaded.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Run(5); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		m    *Machine
		p    Pop
	}{
		{"unloaded machine", unloaded, own},
		{"foreign handle", loaded, foreign},
		{"zero handle", loaded, Pop{}},
	} {
		if err := tc.m.InjectSpike(tc.p, 0, 100); err == nil {
			t.Errorf("%s: InjectSpike accepted", tc.name)
		}
		if err := tc.m.KillNeuron(tc.p, 0); err == nil {
			t.Errorf("%s: KillNeuron accepted", tc.name)
		}
		if err := tc.m.FailCoreOf(tc.p, 0); err == nil {
			t.Errorf("%s: FailCoreOf accepted", tc.name)
		}
		if w := tc.m.MeanWeightNA(tc.p); w != 0 {
			t.Errorf("%s: MeanWeightNA = %v, want 0", tc.name, w)
		}
		if s := tc.m.Spikes(tc.p); len(s) != 0 {
			t.Errorf("%s: Spikes returned %d entries, want none", tc.name, len(s))
		}
		if r := tc.m.MeanRateHz(tc.p); r != 0 {
			t.Errorf("%s: MeanRateHz = %v, want 0", tc.name, r)
		}
	}
	// The machine's own handle still resolves.
	if err := loaded.InjectSpike(own, 0, 100); err != nil {
		t.Errorf("own handle rejected: %v", err)
	}
}

// pairSTDP builds a pre->post plastic pair with a strong static teacher
// that forces post to fire at a controlled offset from pre.
func pairSTDP(t *testing.T, seed uint64) (*Machine, Pop, Pop, Pop) {
	t.Helper()
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: seed})
	model := NewModel()
	pre := model.AddLIF("pre", 8, DefaultLIFConfig())
	teacher := model.AddLIF("teacher", 8, DefaultLIFConfig())
	post := model.AddLIF("post", 8, DefaultLIFConfig())
	// Plastic, subthreshold feed-forward connection under test.
	if err := model.Connect(pre, post, Conn{
		Rule: OneToOneRule, WeightNA: 0.1, DelayMS: 1, STDP: DefaultSTDPRule(),
	}); err != nil {
		t.Fatal(err)
	}
	// Static suprathreshold teacher.
	if err := model.Connect(teacher, post, Conn{
		Rule: OneToOneRule, WeightNA: 50, DelayMS: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	return m, pre, teacher, post
}

func TestSTDPPotentiationOnMachine(t *testing.T) {
	// Causal protocol: pre fires, teacher makes post fire ~5 ms later.
	m, pre, teacher, post := pairSTDP(t, 21)
	w0 := m.MeanWeightNA(post)
	for k := 0; k < 30; k++ {
		at := 10 + 25*k
		if err := m.InjectSpike(pre, 2, at); err != nil {
			t.Fatal(err)
		}
		if err := m.InjectSpike(teacher, 2, at+4); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.Run(800)
	if err != nil {
		t.Fatal(err)
	}
	w1 := m.MeanWeightNA(post)
	if w1 <= w0 {
		t.Errorf("causal pairing: mean weight %.4f -> %.4f, want increase", w0, w1)
	}
	if rep.Potentiations == 0 {
		t.Error("no potentiations recorded")
	}
	if rep.SynapseWriteBacks == 0 {
		t.Error("no SDRAM write-backs despite modified rows (Fig 7)")
	}
}

func TestSTDPDepressionOnMachine(t *testing.T) {
	// Anti-causal protocol: teacher fires post first, pre arrives later.
	m, pre, teacher, post := pairSTDP(t, 22)
	w0 := m.MeanWeightNA(post)
	for k := 0; k < 30; k++ {
		at := 10 + 25*k
		if err := m.InjectSpike(teacher, 2, at); err != nil {
			t.Fatal(err)
		}
		if err := m.InjectSpike(pre, 2, at+5); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.Run(800)
	if err != nil {
		t.Fatal(err)
	}
	w1 := m.MeanWeightNA(post)
	if w1 >= w0 {
		t.Errorf("anti-causal pairing: mean weight %.4f -> %.4f, want decrease", w0, w1)
	}
	if rep.Depressions == 0 {
		t.Error("no depressions recorded")
	}
}

func TestSTDPRejectsInhibitory(t *testing.T) {
	model := NewModel()
	a := model.AddLIF("a", 4, DefaultLIFConfig())
	b := model.AddLIF("b", 4, DefaultLIFConfig())
	err := model.Connect(a, b, Conn{
		Rule: OneToOneRule, WeightNA: 1, DelayMS: 1, Inhibitory: true,
		STDP: DefaultSTDPRule(),
	})
	if err == nil {
		t.Error("inhibitory STDP accepted")
	}
}

func TestStaticRowsNeverWriteBack(t *testing.T) {
	// Without STDP there must be no write-back traffic at all.
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 23})
	model := NewModel()
	stim := model.AddPoisson("stim", 40, 200)
	sink := model.AddLIF("sink", 40, DefaultLIFConfig())
	if err := model.Connect(stim, sink, Conn{Rule: RandomRule, P: 0.5, WeightNA: 1, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SynapseWriteBacks != 0 {
		t.Errorf("write-backs = %d on a static network", rep.SynapseWriteBacks)
	}
}

func TestHostLinkPingAndMemory(t *testing.T) {
	m := buildSmallMachine(t, MachineConfig{Width: 3, Height: 3, Seed: 30})
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	rtt, err := hl.Ping(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %g us", rtt)
	}
	payload := []byte("weights for core 5")
	if err := hl.WriteMem(2, 1, 0x6000_0000, payload); err != nil {
		t.Fatal(err)
	}
	got, err := hl.ReadMem(2, 1, 0x6000_0000, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("read %q, want %q", got, payload)
	}
	// Reading an address never written must error, not hang.
	if _, err := hl.ReadMem(0, 1, 0xdddd0000, 4); err == nil {
		t.Error("read of unwritten SDRAM succeeded")
	}
}

func TestAttachHostRequiresBoot(t *testing.T) {
	m, err := NewMachine(MachineConfig{Width: 2, Height: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AttachHost(); err == nil {
		t.Error("host attached to unbooted machine")
	}
}

func TestHostAndNeuralShareTheMachine(t *testing.T) {
	// Host commands issued between runs advance simulated time; the
	// neural model keeps running consistently afterwards.
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 31})
	model := NewModel()
	cfg := DefaultLIFConfig()
	cfg.BiasNA = 1.5
	p := model.AddLIF("p", 10, cfg)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	hl, err := m.AttachHost()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hl.Ping(1, 1); err != nil {
		t.Fatal(err)
	}
	before := len(m.Spikes(p))
	if _, err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	if len(m.Spikes(p)) <= before {
		t.Error("population stalled after host activity")
	}
}

func TestChatteringCellsBurst(t *testing.T) {
	// Chattering cells fire in bursts: inter-spike intervals inside a
	// burst are short, separated by long quiet gaps.
	m := buildSmallMachine(t, MachineConfig{Width: 2, Height: 2, Seed: 44})
	model := NewModel()
	cfg := ChatteringConfig()
	cfg.BiasNA = 10
	p := model.AddIzhikevich("ch", 4, cfg)
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	spikes := m.Spikes(p)
	if len(spikes) < 10 {
		t.Fatalf("chattering cells nearly silent: %d spikes", len(spikes))
	}
	// Collect ISIs for neuron 0.
	var times []uint64
	for _, s := range spikes {
		if s.Neuron == 0 {
			times = append(times, s.TimeMS)
		}
	}
	short, long := 0, 0
	for i := 1; i < len(times); i++ {
		if isi := times[i] - times[i-1]; isi <= 5 {
			short++
		} else if isi >= 15 {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Errorf("no burst structure: %d short ISIs, %d long ISIs", short, long)
	}
}

// TestLoadReleasesRoutePlan: once its tables are installed, a loaded
// machine keeps of the routing plan only what the load report, restore
// and neuron lookup read — the fragments and the statistics — and the
// report and the installed tables are the ones the whole plan gives.
func TestLoadReleasesRoutePlan(t *testing.T) {
	cfg := MachineConfig{Width: 4, Height: 4, Seed: 1, MaxNeuronsPerCore: 16, MaxAppCoresPerChip: 2}
	m := buildSmallMachine(t, cfg)
	defer m.Close()
	model := NewModel()
	stim := model.AddPoisson("stim", 40, 10)
	exc := model.AddLIF("exc", 200, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{Rule: RandomRule, P: 0.2, WeightNA: 1, DelayMS: 1}); err != nil {
		t.Fatal(err)
	}
	spec := mapping.MachineSpec{
		Torus:             topo.MustTorus(cfg.Width, cfg.Height),
		AppCoresPerChip:   cfg.MaxAppCoresPerChip,
		MaxNeuronsPerCore: cfg.MaxNeuronsPerCore,
		TableSize:         router.DefaultTableSize,
	}
	want, _, err := mapping.Compile(model.net, spec, mapping.PlaceSerpentine,
		mapping.RouteOptions{ElideDefault: true, Minimise: true}, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Load(model)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.TreeLinks == 0 {
		t.Fatal("no multicast tree leaves its chip: too small to be a test")
	}
	if p := m.rplan; p.Trees != nil || p.Tables != nil || p.Dests != nil {
		t.Error("the loaded machine still holds its multicast trees, tables or destination sets")
	}
	if len(m.rplan.Frags) != len(want.Frags) || m.rplan.Stats != want.Stats {
		t.Errorf("kept %d fragments and stats %+v, plan has %d and %+v",
			len(m.rplan.Frags), m.rplan.Stats, len(want.Frags), want.Stats)
	}
	if rep.Fragments != len(want.Frags) || rep.TableEntries != want.Stats.EntriesFinal ||
		rep.MaxChipTable != want.Stats.MaxChipTable || rep.TreeLinks != want.Stats.TreeLinks {
		t.Errorf("load report %+v differs from the plan's stats %+v", *rep, want.Stats)
	}
	installed := 0
	for _, n := range m.fab.Nodes() {
		installed += n.Table.Len()
	}
	if installed != want.Stats.EntriesFinal {
		t.Errorf("%d table entries installed, plan has %d", installed, want.Stats.EntriesFinal)
	}
}
