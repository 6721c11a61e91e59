package spinngo

import (
	"math"
	"reflect"
	"testing"

	"spinngo/internal/phy"
)

// The board-hierarchy contract: configuring Boards changes the
// simulated hardware (board-crossing links are slower and costlier),
// and a board-aligned partition converts exactly that slowness into a
// wider conservative lookahead — fewer window barriers per biological
// second — while the run report stays byte-identical across every
// worker count and partition geometry on the same configuration.

// boardConfig is the reference heterogeneous machine: an 8x8 torus of
// four full-width 8x2 boards, slow board-to-board links, and a workload
// spread over the whole torus (small fragments) so every shard is
// active.
func boardConfig(partition string, workers int) MachineConfig {
	return MachineConfig{
		Width: 8, Height: 8, Seed: 1, Workers: workers, Partition: partition,
		Boards: "8x2", BoardLinkParams: BoardLinkSlow,
		MaxAppCoresPerChip: 2, MaxNeuronsPerCore: 8,
	}
}

// boardRun boots, loads and runs the reference heterogeneous workload.
func boardRun(t *testing.T, partition string, workers int) (*Machine, *RunReport) {
	t.Helper()
	m, err := NewMachine(boardConfig(partition, workers))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	model := NewModel()
	stim := model.AddPoisson("stim", 200, 150)
	exc := model.AddLIF("exc", 800, DefaultLIFConfig())
	if err := model.Connect(stim, exc, Conn{
		Rule: RandomRule, P: 0.1, WeightNA: 1.2, DelayMS: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(model); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}

// TestBoardLookaheadWidensWindows pins the acceptance criterion of the
// heterogeneous fabric: on a board-aligned partition with slower
// board-to-board links, the achieved lookahead strictly exceeds the
// uniform single-params bound and the engine takes fewer window
// barriers per biological second than the equivalent blocks partition —
// while both produce byte-identical run reports.
func TestBoardLookaheadWidensWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine board sweep")
	}
	boards, boardsRep := boardRun(t, PartitionBoards, 4)
	defer boards.Close()
	blocks, blocksRep := boardRun(t, PartitionBlocks, 4)
	defer blocks.Close()

	bst, kst := boards.SimStats(), blocks.SimStats()
	if bst.Geometry != "boards" || bst.Shards != 4 {
		t.Fatalf("boards SimStats = %+v", bst)
	}
	if bst.CutLinksByLevel[0] != 0 || bst.CutLinksByLevel[1] == 0 {
		t.Errorf("boards cut not board-aligned: %d on-board + %d board",
			bst.CutLinksByLevel[0], bst.CutLinksByLevel[1])
	}
	// The widened bound: strictly above what uniform link parameters
	// would allow.
	if bst.Lookahead <= bst.UniformLookahead {
		t.Errorf("board-aligned lookahead %v not above the uniform bound %v",
			bst.Lookahead, bst.UniformLookahead)
	}
	// The blocks cut crosses fast on-board links, pinning it to the
	// uniform bound.
	if kst.CutLinksByLevel[0] == 0 {
		t.Fatalf("blocks cut unexpectedly board-aligned: %+v", kst)
	}
	if kst.Lookahead != kst.UniformLookahead {
		t.Errorf("mixed-cut lookahead %v, want the uniform bound %v",
			kst.Lookahead, kst.UniformLookahead)
	}
	// Fewer barriers per biological second — the speed the slow links
	// bought. Both machines simulated the same 40 ms.
	if bst.Windows >= kst.Windows {
		t.Errorf("boards took %d windows, blocks %d — wider lookahead should mean fewer barriers",
			bst.Windows, kst.Windows)
	}
	// Execution strategy must not leak into results.
	if !reflect.DeepEqual(boardsRep, blocksRep) {
		t.Errorf("boards/blocks reports diverged:\nboards: %+v\nblocks: %+v", *boardsRep, *blocksRep)
	}
	for _, workers := range []int{1, 2} {
		m, rep := boardRun(t, PartitionBoards, workers)
		m.Close()
		if !reflect.DeepEqual(rep, boardsRep) {
			t.Errorf("boards/%d diverged from boards/4:\nref: %+v\ngot: %+v",
				workers, *boardsRep, *rep)
		}
	}
}

// TestAutoPartitionPrefersBoardAlignedCut checks the automatic geometry
// comparison prices lookahead: on a heterogeneous machine it chooses a
// cut made of slow links when one reaches the same shard count.
func TestAutoPartitionPrefersBoardAlignedCut(t *testing.T) {
	m, err := NewMachine(MachineConfig{
		Width: 8, Height: 8, Seed: 1, Workers: 4, Partition: PartitionAuto,
		Boards: "4x4", BoardLinkParams: BoardLinkSlow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.SimStats()
	if st.Shards != 4 {
		t.Fatalf("auto reached %d shards, want 4", st.Shards)
	}
	if st.CutLinksByLevel[0] != 0 {
		t.Errorf("auto chose a cut with %d fast links (geometry %s); want board-aligned",
			st.CutLinksByLevel[0], st.Geometry)
	}
	if st.Lookahead <= st.UniformLookahead {
		t.Errorf("auto lookahead %v not widened beyond uniform %v", st.Lookahead, st.UniformLookahead)
	}
}

// TestBoardEnergySplit pins the per-class wire-energy accounting on a
// small heterogeneous workload: both classes carry traffic, each
// class's energy is exactly its transition count at its per-transition
// price, and the slow-link fabric costs more than the uniform ablation
// on the identical workload.
func TestBoardEnergySplit(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine board sweep")
	}
	slow, rep := boardRun(t, PartitionBoards, 2)
	defer slow.Close()
	if rep.WireTransitions[0] == 0 || rep.WireTransitions[1] == 0 {
		t.Fatalf("workload missed a link class: on-board=%d board=%d",
			rep.WireTransitions[0], rep.WireTransitions[1])
	}
	onPJ := phy.DefaultLink(0).EnergyPerTransition
	boardPJ := phy.DefaultLink(1).EnergyPerTransition
	wantOn := float64(rep.WireTransitions[0]) * onPJ * 1e-12
	wantBoard := float64(rep.WireTransitions[1]) * boardPJ * 1e-12
	if math.Abs(rep.WireEnergyJ[0]-wantOn) > 1e-18 {
		t.Errorf("on-board wire energy %g J, want %g J", rep.WireEnergyJ[0], wantOn)
	}
	if math.Abs(rep.WireEnergyJ[1]-wantBoard) > 1e-18 {
		t.Errorf("board wire energy %g J, want %g J", rep.WireEnergyJ[1], wantBoard)
	}
	// Per transition, a board hop costs boardPJ/onPJ times an on-board
	// one — the split must reflect the configured ratio, not an averaged
	// price.
	perOn := rep.WireEnergyJ[0] / float64(rep.WireTransitions[0])
	perBoard := rep.WireEnergyJ[1] / float64(rep.WireTransitions[1])
	if ratio := perBoard / perOn; math.Abs(ratio-boardPJ/onPJ) > 1e-9 {
		t.Errorf("per-transition price ratio %g, want %g", ratio, boardPJ/onPJ)
	}

	// The uniform ablation reuses on-board links everywhere: no
	// board-class transitions, and the identical traffic pattern prices
	// cheaper. (Same PHY timings in the ablation would change the
	// simulation itself, so compare only the class split, which is
	// defined on the same config.)
	uniform, err := NewMachine(MachineConfig{
		Width: 8, Height: 8, Seed: 1, Workers: 2, Partition: PartitionBoards,
		Boards: "8x2", BoardLinkParams: BoardLinkUniform,
		MaxAppCoresPerChip: 2, MaxNeuronsPerCore: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer uniform.Close()
	if st := uniform.SimStats(); st.Lookahead != st.UniformLookahead {
		t.Errorf("uniform ablation widened lookahead: %v vs %v", st.Lookahead, st.UniformLookahead)
	}
}

// TestBoardConfigValidation rejects contradictory board configurations.
func TestBoardConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MachineConfig
	}{
		{"untileable boards", MachineConfig{Width: 8, Height: 8, Boards: "3x2"}},
		{"malformed boards", MachineConfig{Width: 8, Height: 8, Boards: "8by2"}},
		{"boards partition without boards", MachineConfig{Width: 8, Height: 8, Partition: PartitionBoards}},
		{"board link params without boards", MachineConfig{Width: 8, Height: 8, BoardLinkParams: BoardLinkSlow}},
		{"unknown board link preset", MachineConfig{Width: 8, Height: 8, Boards: "4x4", BoardLinkParams: "warp"}},
	} {
		if _, err := NewMachine(tc.cfg); err == nil {
			t.Errorf("%s: NewMachine accepted %+v", tc.name, tc.cfg)
		}
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
	}
	good := MachineConfig{Width: 8, Height: 8, Boards: "4x4",
		BoardLinkParams: BoardLinkSlow, Partition: PartitionBoards}
	if err := good.Validate(); err != nil {
		t.Errorf("valid board config rejected: %v", err)
	}
}
