package packet

import (
	"testing"
	"testing/quick"
)

func TestKeyMaskMatches(t *testing.T) {
	km := KeyMask{Key: 0x1000, Mask: 0xff00}
	if !km.Matches(0x1034) {
		t.Error("0x1034 should match 0x1000/0xff00")
	}
	if km.Matches(0x2034) {
		t.Error("0x2034 should not match 0x1000/0xff00")
	}
}

func TestMerge(t *testing.T) {
	a := KeyMask{Key: 0x10, Mask: 0xff}
	b := KeyMask{Key: 0x11, Mask: 0xff}
	if d := a.MergeDistance(b); d != 1 {
		t.Fatalf("MergeDistance = %d, want 1", d)
	}
	m := a.Merge(b)
	if !m.Matches(0x10) || !m.Matches(0x11) {
		t.Error("merged entry must match both originals")
	}
	if m.Matches(0x12) {
		t.Error("merged entry matches too much")
	}
}

func TestMergeDistanceDifferentMasks(t *testing.T) {
	a := KeyMask{Key: 0x10, Mask: 0xff}
	b := KeyMask{Key: 0x10, Mask: 0xf0}
	if d := a.MergeDistance(b); d != -1 {
		t.Errorf("MergeDistance across masks = %d, want -1", d)
	}
}

func TestMergePanicsOnBadPair(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Merge of distance-2 pair did not panic")
		}
	}()
	a := KeyMask{Key: 0x10, Mask: 0xff}
	b := KeyMask{Key: 0x13, Mask: 0xff}
	a.Merge(b)
}

func TestMergePreservesMatchSetProperty(t *testing.T) {
	f := func(key uint32, bit uint8) bool {
		b := uint32(1) << (bit % 32)
		a := KeyMask{Key: key &^ b, Mask: 0xffffffff}
		c := KeyMask{Key: key | b, Mask: 0xffffffff}
		if a.MergeDistance(c) != 1 {
			return true // same key both sides; skip
		}
		m := a.Merge(c)
		// m must match exactly the two original keys.
		return m.Matches(a.Key) && m.Matches(c.Key) && !m.Matches(a.Key^1^b) || b == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestP2PAddrRoundTrip(t *testing.T) {
	f := func(x, y uint8) bool {
		gx, gy := P2PCoords(P2PAddr(int(x), int(y)))
		return gx == int(x) && gy == int(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
