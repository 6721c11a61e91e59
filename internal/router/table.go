// Package router models the SpiNNaker multicast packet router and the
// communications fabric that connects one router per chip (paper sections
// 4 and 5.3). It implements:
//
//   - ternary (key, mask) multicast routing tables with first-match
//     priority, as in the router's CAM;
//   - default routing: a multicast packet matching no entry continues in
//     a straight line through the node;
//   - algorithmic point-to-point routing and single-hop
//     nearest-neighbour delivery;
//   - the emergency-routing state machine of Fig 8: when an output link
//     is blocked the router waits a programmable time, redirects traffic
//     around the two other sides of a mesh triangle for a programmable
//     time, and finally drops the packet and informs the monitor
//     processor — so no router ever persistently refuses input.
package router

import (
	"fmt"

	"spinngo/internal/packet"
	"spinngo/internal/topo"
)

// RouteMask encodes a multicast destination set: bits 0..5 select output
// links (by topo.Dir), bits 6..31 select local processor cores 0..25.
type RouteMask uint32

// coreBit0 is the bit position of core 0 in a RouteMask.
const coreBit0 = 6

// MaxCores is the largest local core index a RouteMask can address.
const MaxCores = 32 - coreBit0

// LinkRoute returns a RouteMask selecting one output link.
func LinkRoute(d topo.Dir) RouteMask { return 1 << uint(d) }

// CoreRoute returns a RouteMask selecting one local core.
func CoreRoute(core int) RouteMask {
	if core < 0 || core >= MaxCores {
		panic(fmt.Sprintf("router: core %d out of range", core))
	}
	return 1 << uint(coreBit0+core)
}

// WithLink adds an output link to the set.
func (m RouteMask) WithLink(d topo.Dir) RouteMask { return m | LinkRoute(d) }

// WithCore adds a local core to the set.
func (m RouteMask) WithCore(core int) RouteMask { return m | CoreRoute(core) }

// HasLink reports whether the set includes link d.
func (m RouteMask) HasLink(d topo.Dir) bool { return m&LinkRoute(d) != 0 }

// HasCore reports whether the set includes the local core.
func (m RouteMask) HasCore(core int) bool { return m&CoreRoute(core) != 0 }

// IsEmpty reports whether the set selects nothing.
func (m RouteMask) IsEmpty() bool { return m == 0 }

// Entry is one multicast routing-table entry.
type Entry struct {
	Match packet.KeyMask
	Route RouteMask
}

// Table is an ordered multicast routing table with first-match priority,
// modelling the router's 1024-entry ternary CAM.
type Table struct {
	entries  []Entry
	capacity int
	// Lookups and Misses instrument default-routing behaviour.
	Lookups uint64
	Misses  uint64
}

// DefaultTableSize is the CAM capacity of the SpiNNaker router.
const DefaultTableSize = 1024

// NewTable returns a table with the given capacity (0 means unlimited,
// for toolchain-side use before fitting).
func NewTable(capacity int) *Table {
	return &Table{capacity: capacity}
}

// Len reports the number of installed entries.
func (t *Table) Len() int { return len(t.entries) }

// Add appends an entry (lowest priority). It fails when the table is
// full — the condition the mapping toolchain's minimiser exists to avoid.
func (t *Table) Add(e Entry) error {
	if t.capacity > 0 && len(t.entries) >= t.capacity {
		return fmt.Errorf("router: table full (%d entries)", t.capacity)
	}
	t.entries = append(t.entries, e)
	return nil
}

// Lookup finds the highest-priority entry matching key.
func (t *Table) Lookup(key uint32) (RouteMask, bool) {
	t.Lookups++
	for _, e := range t.entries {
		if e.Match.Matches(key) {
			return e.Route, true
		}
	}
	t.Misses++
	return 0, false
}

// RewriteCore redirects every entry that targets local core old to
// target core new instead, reporting how many entries changed. This is
// the routing side of functional migration: when the monitor moves an
// application off a failed core, it repoints the multicast entries at
// the replacement core.
func (t *Table) RewriteCore(old, new int) int {
	changed := 0
	for i, e := range t.entries {
		if e.Route.HasCore(old) {
			e.Route &^= CoreRoute(old)
			e.Route = e.Route.WithCore(new)
			t.entries[i] = e
			changed++
		}
	}
	return changed
}
