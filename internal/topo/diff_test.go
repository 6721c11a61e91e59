package topo

import "testing"

func TestPartitionEqual(t *testing.T) {
	tor := MustTorus(8, 8)
	a := NewBands(tor, 4)
	b := NewBands(tor, 4)
	if !a.Equal(b) {
		t.Error("identical band partitions not Equal")
	}
	if a.Equal(NewBands(tor, 2)) {
		t.Error("4 bands Equal to 2 bands")
	}
	// Equality is about the chip->shard map, not the level label: a
	// 4x1 block grid of an 8x8 torus is the same decomposition as 4
	// row bands.
	blocks := newBlocks(MustTorus(4, 16), 4)
	bands := NewBands(MustTorus(4, 16), 4)
	if blocks.Level() == bands.Level() {
		t.Fatal("want distinct levels for the label test")
	}
	if blocks.Equal(bands) != (blocks.CutLinks() == bands.CutLinks() && equalMaps(blocks, bands)) {
		t.Error("Equal disagrees with the underlying maps")
	}
	if a.Equal(NewBands(MustTorus(4, 4), 4)) {
		t.Error("partitions of different tori Equal")
	}
}

func equalMaps(p, q Partition) bool {
	for i := 0; i < p.Torus().Size(); i++ {
		if p.ShardOfIndex(i) != q.ShardOfIndex(i) {
			return false
		}
	}
	return true
}

func TestPartitionDiff(t *testing.T) {
	tor := MustTorus(8, 8)
	four := NewBands(tor, 4)
	if moved, cut := four.Diff(four); moved != 0 || cut != 0 {
		t.Errorf("self-diff = (%d, %d), want (0, 0)", moved, cut)
	}
	one := NewBands(tor, 1)
	moved, cut := four.Diff(one)
	// Collapsing 4 bands to 1 moves every chip outside band 0 and
	// removes the whole cut.
	if moved != 48 {
		t.Errorf("moved = %d, want 48 (three of four 16-chip bands)", moved)
	}
	if cut != -four.CutLinks() {
		t.Errorf("cutDelta = %d, want %d", cut, -four.CutLinks())
	}
	back, _ := one.Diff(four)
	if back != moved {
		t.Errorf("diff not symmetric in moved chips: %d vs %d", back, moved)
	}
}
