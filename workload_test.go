package spinngo

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"spinngo/internal/workload"
)

// The heavyweight campaign conformance suite lives in campaign_test.go;
// these tests cover the registry-to-machine plumbing itself.

func TestWorkloadChunks(t *testing.T) {
	wl := &workload.Workload{Run: workload.Run{BioMS: 40, ChunkMS: 10}}
	if got := WorkloadChunks(wl); len(got) != 4 || got[0] != 10 || got[3] != 10 {
		t.Fatalf("chunks = %v, want [10 10 10 10]", got)
	}
	wl.Run = workload.Run{BioMS: 10, ChunkMS: 7}
	if got := WorkloadChunks(wl); len(got) != 2 || got[0] != 7 || got[1] != 3 {
		t.Fatalf("chunks = %v, want [7 3]", got)
	}
	wl.Run = workload.Run{BioMS: 25}
	if got := WorkloadChunks(wl); len(got) != 1 || got[0] != 25 {
		t.Fatalf("chunks = %v, want [25]", got)
	}
}

// TestWorkloadRegistryRuns drives one registry document end to end: the
// retina workload's scripted spikes must fan out into V1 activity.
func TestWorkloadRegistryRuns(t *testing.T) {
	wl, err := workload.Get("rank-order-retina")
	if err != nil {
		t.Fatal(err)
	}
	m, rep, err := RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if rep.BioTimeMS != uint64(wl.Run.BioMS) {
		t.Fatalf("ran %dms, want %dms", rep.BioTimeMS, wl.Run.BioMS)
	}
	if rep.TotalSpikes == 0 {
		t.Fatal("retina workload produced no spikes")
	}
}

// TestRegistryDocumentsAcrossWorkers holds every registry document to
// the determinism contract: run on one worker and on four, each must
// give an equal run report and equal recorded rasters for every
// population. Multi-shard runs take every host wait, boot drain and
// campaign through the engine's window loop, so this is the check that
// the loop's one way to run serves every document.
func TestRegistryDocumentsAcrossWorkers(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			wl, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			one, oneRep, err := RunWorkloadOn(wl, 1, wl.Machine.Partition)
			if err != nil {
				t.Fatal(err)
			}
			defer one.Close()
			four, fourRep, err := RunWorkloadOn(wl, 4, wl.Machine.Partition)
			if err != nil {
				t.Fatal(err)
			}
			defer four.Close()
			if !reflect.DeepEqual(oneRep, fourRep) {
				t.Errorf("run report on 4 workers differs from 1:\n%+v\n%+v", fourRep, oneRep)
			}
			onePops, fourPops := one.Pops(), four.Pops()
			for i, p := range onePops {
				a, b := one.Spikes(p), four.Spikes(fourPops[i])
				if !slices.Equal(a, b) {
					t.Errorf("population %d: %d spikes on 4 workers, %d on 1, rasters differ", i, len(b), len(a))
				}
			}
		})
	}
}

// TestWorkloadModelRejects pins that a projection naming an undeclared
// population dies in validation, before any machine is built.
func TestWorkloadModelRejects(t *testing.T) {
	_, err := workload.Parse([]byte(`{
	  "schema": 1, "name": "t",
	  "machine": {"width": 2, "height": 2},
	  "populations": [{"name": "a", "kind": "lif", "size": 4}],
	  "projections": [{"from": "a", "to": "ghost", "rule": "all", "weight_na": 1}],
	  "run": {"bio_ms": 5}
	}`))
	if err == nil {
		t.Fatal("projection to undeclared population accepted")
	}
}

// prepareSequential is the set-up PrepareWorkloadOn overlaps, step by
// step through the public surface: build, Boot, Load, arm.
func prepareSequential(t *testing.T, wl *workload.Workload, workers int, partition string) *Machine {
	t.Helper()
	m, err := NewMachine(workloadMachineConfig(&wl.Machine, workers, partition))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Boot(); err != nil {
		m.Close()
		t.Fatal(err)
	}
	model, _, err := workloadModel(wl)
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		m.Close()
		t.Fatal(err)
	}
	if err := m.armWorkload(wl); err != nil {
		m.Close()
		t.Fatal(err)
	}
	return m
}

// TestWorkloadPrepareMatchesSequential pins that compiling the network
// beside the system-image flood changes nothing: the machine
// PrepareWorkloadOn builds snapshots to the same bytes as the one the
// sequential Boot and Load build, right after set-up and after the
// first chunk. The blocks cell runs the flood's helper pool and the
// compile goroutine at once, for the race detector.
func TestWorkloadPrepareMatchesSequential(t *testing.T) {
	cells := []struct {
		name      string
		workers   int
		partition string
	}{
		{"quickstart", 0, ""},
		{"cortical-mix", 0, ""},
		{"storm-campaign", 0, ""},
		{"quickstart", 2, PartitionBlocks},
	}
	for _, c := range cells {
		wl, err := workload.Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		workers, partition := wl.Machine.Workers, wl.Machine.Partition
		if c.workers != 0 {
			workers, partition = c.workers, c.partition
		}
		t.Run(fmt.Sprintf("%s/%d%s", c.name, workers, partition), func(t *testing.T) {
			overlapped, err := PrepareWorkloadOn(wl, workers, partition)
			if err != nil {
				t.Fatal(err)
			}
			defer overlapped.Close()
			sequential := prepareSequential(t, wl, workers, partition)
			defer sequential.Close()
			same := func(stage string) {
				t.Helper()
				a, err := overlapped.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				b, err := sequential.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("after %s: overlapped set-up image (%d bytes) differs from the sequential one (%d bytes)",
						stage, len(a), len(b))
				}
			}
			same("set-up")
			n := WorkloadChunks(wl)[0]
			if _, err := overlapped.Run(n); err != nil {
				t.Fatal(err)
			}
			if _, err := sequential.Run(n); err != nil {
				t.Fatal(err)
			}
			same("the first chunk")
		})
	}
}

// TestWorkloadPrepareErrors pins the failure paths of the overlapped
// set-up: each reports the text the sequential Boot-then-Load order
// gives, so a failed flood wins over a spec or model failure, and no
// compile goroutine outlives the call. The documents run on one worker,
// which starts no engine helpers: any goroutine the call leaves behind
// is its own.
func TestWorkloadPrepareErrors(t *testing.T) {
	const deadMachine = `{"schema": 1, "name": "t",
	  "machine": {"width": 2, "height": 2, "workers": 1, "core_fault_prob": 1},
	  "populations": [{"name": "a", "kind": "lif", "size": 4}],
	  "projections": [{"from": "a", "to": "a", "rule": "all", "weight_na": 1}],
	  "run": {"bio_ms": 5}}`
	const floodFails = "spinngo: workload boot: host: target unreachable: flood-fill tree spans no chips"
	cases := []struct {
		name, doc string
		// mutate breaks a parsed document where validation cannot.
		mutate func(*workload.Workload)
		want   string
	}{
		{
			// 100 neurons at 4 a core need 25 cores; a 2x2 machine capped
			// at one application core a chip has 4. The compile fails.
			name: "compile",
			doc: `{"schema": 1, "name": "t",
			  "machine": {"width": 2, "height": 2, "workers": 1, "max_app_cores_per_chip": 1, "max_neurons_per_core": 4},
			  "populations": [{"name": "a", "kind": "lif", "size": 100}],
			  "run": {"bio_ms": 5}}`,
			want: "spinngo: workload load: mapping: 25 fragments exceed machine capacity 4 cores",
		},
		{
			// Every core fails its self-test: the flood finds no chip to
			// fill, and the spec would find none to map onto.
			name: "flood-over-spec",
			doc:  deadMachine,
			want: floodFails,
		},
		{
			name:   "flood-over-model",
			doc:    deadMachine,
			mutate: func(wl *workload.Workload) { wl.Projections[0].Rule = "bogus" },
			want:   floodFails,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wl, err := workload.Parse([]byte(c.doc))
			if err != nil {
				t.Fatal(err)
			}
			if c.mutate != nil {
				c.mutate(wl)
			}
			// Machines of earlier tests may still be retiring helpers, so
			// the count can only fall while this runs.
			base := runtime.NumGoroutine()
			m, err := PrepareWorkload(wl)
			if err == nil {
				m.Close()
				t.Fatal("set-up succeeded")
			}
			if err.Error() != c.want {
				t.Errorf("error %q, want %q", err, c.want)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after the failed set-up, %d before", n, base)
			}
		})
	}
}
