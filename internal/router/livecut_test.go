package router

import (
	"testing"

	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// TestLookaheadForLiveRepricesGuttedCut pins the point of live-cut
// pricing: when every fast (on-board) link in a mixed cut has failed,
// the surviving cut contains only slow board-to-board links and the
// bound re-prices to their wider hop floor — the static LookaheadFor
// stays stuck at the fast floor forever.
func TestLookaheadForLiveRepricesGuttedCut(t *testing.T) {
	p := withBoards(DefaultParams(8, 8), 8, 4)
	fast := p.hopLatency(p.Levels[0].Link)
	slow := p.hopLatency(p.Levels[1].Link)

	misaligned := topo.NewBands(p.Torus, 4) // y=2 and y=6 cut board interiors
	if c := misaligned.CutComposition(len(p.Levels), p.ClassOf); c[0] == 0 || c[1] == 0 {
		t.Fatalf("bands/4 cut composition %v: want both levels", c)
	}
	if got := p.LookaheadForLive(misaligned, nil); got != fast {
		t.Errorf("nothing failed: live lookahead %v, want the fast floor %v", got, fast)
	}

	// Fail exactly the fast links of the cut.
	failed := make(map[topo.BoundaryLink]bool)
	for _, bl := range misaligned.BoundaryLinks() {
		if !p.Levels[1].Tile.Crosses(bl.From, bl.Dir) {
			failed[bl] = true
		}
	}
	isFailed := func(c topo.Coord, d topo.Dir) bool {
		return failed[topo.BoundaryLink{From: c, Dir: d}]
	}
	if got := p.LookaheadForLive(misaligned, isFailed); got != slow {
		t.Errorf("fast cut gutted: live lookahead %v, want the slow floor %v", got, slow)
	}

	// Kill the whole cut: no cross-shard influence at all; the widest
	// level floor is returned (sound for any window width).
	for _, bl := range misaligned.BoundaryLinks() {
		failed[bl] = true
	}
	if got := p.LookaheadForLive(misaligned, isFailed); got != slow {
		t.Errorf("dead cut: live lookahead %v, want the widest floor %v", got, slow)
	}
}

// TestRepairLinkTightensLookahead pins the soundness half of live-cut
// pricing: once the engine runs at the wider bound of a gutted cut,
// repairing one of the dead fast links reintroduces a hop floor below
// it, and RepairLink must tighten the engine at once.
func TestRepairLinkTightensLookahead(t *testing.T) {
	p := withBoards(DefaultParams(8, 8), 8, 4)
	part := topo.NewBands(p.Torus, 4)
	pe := sim.NewParallel(1, 4, 4)
	defer pe.Close()
	pe.SetLookahead(p.LookaheadFor(part))
	f, err := NewShardedFabric(pe, part, p)
	if err != nil {
		t.Fatal(err)
	}
	fast := pe.Lookahead()

	// Gut the fast half of the cut and widen the engine to the live
	// bound of what survives.
	var fastLink topo.BoundaryLink
	for _, bl := range part.BoundaryLinks() {
		if !p.Levels[1].Tile.Crosses(bl.From, bl.Dir) {
			f.FailLink(bl.From, bl.Dir)
			fastLink = bl
		}
	}
	slow := f.LiveLookahead()
	if slow <= fast {
		t.Fatalf("gutted cut live lookahead %v not wider than %v", slow, fast)
	}
	pe.SetLookahead(slow)
	f.RepairLink(fastLink.From, fastLink.Dir)
	if got := pe.Lookahead(); got != fast {
		t.Errorf("lookahead after repairing a fast cut link = %v, want tightened to %v", got, fast)
	}
}
