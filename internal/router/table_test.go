package router

import (
	"testing"
	"testing/quick"

	"spinngo/internal/packet"
	"spinngo/internal/topo"
)

// Links lists the selected link directions, lowest first.
func (m RouteMask) Links() []topo.Dir {
	var out []topo.Dir
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		if m.HasLink(d) {
			out = append(out, d)
		}
	}
	return out
}

// Cores lists the selected local cores, lowest first.
func (m RouteMask) Cores() []int {
	var out []int
	for c := 0; c < MaxCores; c++ {
		if m.HasCore(c) {
			out = append(out, c)
		}
	}
	return out
}

func TestRouteMaskLinksAndCores(t *testing.T) {
	m := LinkRoute(topo.East).WithLink(topo.South).WithCore(0).WithCore(17)
	if !m.HasLink(topo.East) || !m.HasLink(topo.South) || m.HasLink(topo.North) {
		t.Error("link membership wrong")
	}
	if !m.HasCore(0) || !m.HasCore(17) || m.HasCore(3) {
		t.Error("core membership wrong")
	}
	links := m.Links()
	if len(links) != 2 || links[0] != topo.East || links[1] != topo.South {
		t.Errorf("Links() = %v", links)
	}
	cores := m.Cores()
	if len(cores) != 2 || cores[0] != 0 || cores[1] != 17 {
		t.Errorf("Cores() = %v", cores)
	}
	if m.IsEmpty() || RouteMask(0).IsEmpty() != true {
		t.Error("IsEmpty wrong")
	}
}

func TestCoreRoutePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CoreRoute(MaxCores) did not panic")
		}
	}()
	CoreRoute(MaxCores)
}

func TestTableFirstMatchPriority(t *testing.T) {
	tb := NewTable(0)
	if err := tb.Add(Entry{packet.KeyMask{Key: 0x10, Mask: 0xf0}, LinkRoute(topo.East)}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Add(Entry{packet.KeyMask{Key: 0x12, Mask: 0xff}, LinkRoute(topo.West)}); err != nil {
		t.Fatal(err)
	}
	// 0x12 matches both; the earlier (higher-priority) entry must win.
	r, ok := tb.Lookup(0x12)
	if !ok || !r.HasLink(topo.East) || r.HasLink(topo.West) {
		t.Errorf("Lookup(0x12) = %v, %v; want East via first entry", r, ok)
	}
}

func TestTableCapacity(t *testing.T) {
	tb := NewTable(2)
	e := Entry{packet.KeyMask{Key: 1, Mask: 0xffffffff}, LinkRoute(topo.East)}
	if err := tb.Add(e); err != nil {
		t.Fatal(err)
	}
	if err := tb.Add(e); err != nil {
		t.Fatal(err)
	}
	if err := tb.Add(e); err == nil {
		t.Error("third entry accepted into capacity-2 table")
	}
	if tb.Len() != 2 || tb.Capacity() != 2 {
		t.Errorf("Len/Capacity = %d/%d", tb.Len(), tb.Capacity())
	}
}

func TestTableMissCounting(t *testing.T) {
	tb := NewTable(0)
	tb.Add(Entry{packet.KeyMask{Key: 1, Mask: 0xffffffff}, LinkRoute(topo.East)})
	tb.Lookup(1)
	tb.Lookup(2)
	tb.Lookup(3)
	if tb.Lookups != 3 || tb.Misses != 2 {
		t.Errorf("Lookups/Misses = %d/%d, want 3/2", tb.Lookups, tb.Misses)
	}
}

func TestRouteMaskRoundTripProperty(t *testing.T) {
	f := func(bits uint32) bool {
		m := RouteMask(bits)
		// Rebuild from the decomposed sets; must be identical.
		var rebuilt RouteMask
		for _, d := range m.Links() {
			rebuilt = rebuilt.WithLink(d)
		}
		for _, c := range m.Cores() {
			rebuilt = rebuilt.WithCore(c)
		}
		return rebuilt == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Capacity reports the CAM capacity (0 = unlimited).
func (t *Table) Capacity() int { return t.capacity }
