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

// TestFabricRepartitionRebindsShards drives the fabric-level swap: node
// shard ownership follows the new partition, the live lookahead is
// verified against the engine bound, and RepairLink tightens a bound
// that a resurrected fast link has undercut.
func TestFabricRepartitionRebindsShards(t *testing.T) {
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

	// Gut the fast half of the cut, then swap to the same geometry
	// re-priced over the live links.
	for _, bl := range part.BoundaryLinks() {
		if !p.Levels[1].Tile.Crosses(bl.From, bl.Dir) {
			f.FailLink(bl.From, bl.Dir)
		}
	}
	slow := f.LiveLookaheadFor(part)
	if slow <= fast {
		t.Fatalf("gutted cut live lookahead %v not wider than %v", slow, fast)
	}
	// Re-price the same geometry over its surviving cut.
	pe.SetLookahead(slow)
	if err := f.Repartition(part); err != nil {
		t.Fatal(err)
	}
	// Repairing one of the dead fast links reintroduces a hop floor
	// below the re-priced bound; RepairLink must tighten the engine
	// immediately or the window protocol goes unsound.
	var fastLink topo.BoundaryLink
	for _, bl := range part.BoundaryLinks() {
		if !p.Levels[1].Tile.Crosses(bl.From, bl.Dir) {
			fastLink = bl
			break
		}
	}
	f.RepairLink(fastLink.From, fastLink.Dir)
	if got := pe.Lookahead(); got != fast {
		t.Errorf("lookahead after repairing a fast cut link = %v, want tightened to %v", got, fast)
	}

	// A genuine geometry swap re-binds every node's shard ownership.
	two := topo.NewBands(p.Torus, 2)
	if err := pe.Repartition(two.Shards(), two.Shards(), func(d int32) int {
		return two.ShardOfIndex(int(d))
	}); err != nil {
		t.Fatal(err)
	}
	pe.SetLookahead(f.LiveLookaheadFor(two))
	if err := f.Repartition(two); err != nil {
		t.Fatal(err)
	}
	for _, n := range f.Nodes() {
		if n.Shard() != two.Shard(n.Coord) {
			t.Fatalf("node %v on shard %d, want %d", n.Coord, n.Shard(), two.Shard(n.Coord))
		}
	}
	if got := f.Partition(); !got.Equal(two) {
		t.Error("fabric did not adopt the new partition")
	}
}
