package mapping

import (
	"fmt"
	"sort"

	"spinngo/internal/neural"
	"spinngo/internal/packet"
	"spinngo/internal/router"
	"spinngo/internal/topo"
)

// Tree is the multicast distribution tree of one fragment's spikes: the
// set of directed links it crosses and the cores it sinks at, per chip.
type Tree struct {
	Source topo.Coord
	// Out lists the outgoing link directions per chip.
	Out map[topo.Coord][]topo.Dir
	// In records the inbound travel direction per non-source chip
	// (used for default-route elision).
	In map[topo.Coord]topo.Dir
	// Sinks lists destination application cores per chip.
	Sinks map[topo.Coord][]int
}

// LinkCount reports the number of directed links in the tree — the
// per-spike traffic of multicast routing (experiment E11).
func (t *Tree) LinkCount() int {
	n := 0
	for _, dirs := range t.Out {
		n += len(dirs)
	}
	return n
}

// BuildTree constructs the multicast tree from src to every destination
// chip by merging deterministic shortest paths (greedy paths share
// prefixes, so the union is a tree).
func BuildTree(t topo.Torus, src topo.Coord, dests map[topo.Coord][]int) *Tree {
	tree := &Tree{
		Source: src,
		Out:    make(map[topo.Coord][]topo.Dir),
		In:     make(map[topo.Coord]topo.Dir),
		Sinks:  make(map[topo.Coord][]int),
	}
	for chip, cores := range dests {
		cs := append([]int(nil), cores...)
		sort.Ints(cs)
		tree.Sinks[chip] = cs
	}
	hasOut := func(c topo.Coord, d topo.Dir) bool {
		for _, x := range tree.Out[c] {
			if x == d {
				return true
			}
		}
		return false
	}
	for _, dst := range sortedChips(dests) {
		cur := src
		for cur != dst {
			d, ok := t.NextDir(cur, dst)
			if !ok {
				break
			}
			next := t.Neighbor(cur, d)
			if !hasOut(cur, d) {
				tree.Out[cur] = append(tree.Out[cur], d)
			}
			tree.In[next] = d
			cur = next
		}
	}
	// Keep Out direction lists sorted for determinism.
	for c := range tree.Out {
		dirs := tree.Out[c]
		sort.Slice(dirs, func(i, j int) bool { return dirs[i] < dirs[j] })
	}
	return tree
}

// RouteOptions tune table generation.
type RouteOptions struct {
	// ElideDefault omits entries at chips where the packet would take
	// the same path under default routing (straight through, no
	// sinks) — the key trick that keeps SpiNNaker tables small.
	ElideDefault bool
	// Minimise merges sibling entries with identical routes into
	// broader masked entries (CAM minimisation).
	Minimise bool
}

// RoutingStats summarises a generated plan.
type RoutingStats struct {
	Fragments     int
	TreeLinks     int // total tree edges over all fragments
	EntriesNaive  int // one entry per fragment per visited chip
	EntriesElided int // after default-route elision
	EntriesFinal  int // after minimisation
	MaxChipTable  int
}

// RoutingPlan is the complete routing side of a mapped network.
type RoutingPlan struct {
	Spec   MachineSpec
	Frags  []*Fragment
	Dests  map[int]map[topo.Coord][]int // fragment index -> chip -> cores
	Trees  map[int]*Tree
	Tables map[topo.Coord][]router.Entry
	Stats  RoutingStats
}

// expand is the one streaming pass over every projection's synapses.
// It derives the destination sets the router needs and, when rows is
// non-nil, hands each synapse to the builder of the rows the cores
// load. frags are as Partition returns them: fragment i has Index i.
func expand(net *Network, frags []*Fragment, rows *dataBuilder) (destSets, error) {
	dests := newDestSets(frags)
	// seen[post.Index] == stamp once the current pre fragment's pair
	// with post is in dests. A projection visits its pre neurons in
	// ascending order, so each pre fragment's synapses come in one run.
	seen := make([]int, len(frags))
	stamp := 0
	for _, pr := range net.Projs {
		preOf, err := neuronFrags(frags, pr.Pre)
		if err != nil {
			return nil, err
		}
		postOf, err := neuronFrags(frags, pr.Post)
		if err != nil {
			return nil, err
		}
		w := weightUnits(pr.WeightNA)
		var pre *Fragment
		pr.each(func(i, j int) {
			if preOf[i] != pre {
				pre = preOf[i]
				stamp++
			}
			post := postOf[j]
			if seen[post.Index] != stamp {
				seen[post.Index] = stamp
				dests.add(pre, post)
			}
			if rows != nil {
				rows.add(pr, post, pre.KeyFor(i), neural.MakeSynWord(w, pr.DelayMS, pr.Inhibitory, j-post.Lo))
			}
		})
	}
	return dests, nil
}

// destSets is, for every fragment (by index), the chips and cores its
// spikes must reach.
type destSets map[int]map[topo.Coord][]int

func newDestSets(frags []*Fragment) destSets {
	dests := make(destSets, len(frags))
	for _, f := range frags {
		dests[f.Index] = make(map[topo.Coord][]int)
	}
	return dests
}

// add records that pre's spikes must reach post's core.
func (dests destSets) add(pre, post *Fragment) {
	m := dests[pre.Index]
	for _, c := range m[post.Chip] {
		if c == post.Core {
			return
		}
	}
	m[post.Chip] = append(m[post.Chip], post.Core)
}

// Route generates trees and router tables for placed fragments.
func Route(net *Network, frags []*Fragment, spec MachineSpec, opts RouteOptions) (*RoutingPlan, error) {
	dests, err := expand(net, frags, nil)
	if err != nil {
		return nil, err
	}
	return routeTo(dests, frags, spec, opts)
}

// routeTo is Route from destination sets already derived.
func routeTo(dests destSets, frags []*Fragment, spec MachineSpec, opts RouteOptions) (*RoutingPlan, error) {
	plan := &RoutingPlan{
		Spec:   spec,
		Frags:  frags,
		Dests:  dests,
		Trees:  make(map[int]*Tree),
		Tables: make(map[topo.Coord][]router.Entry),
	}
	plan.Stats.Fragments = len(frags)

	// Per chip: explicit entries per fragment, plus the set of fragment
	// keys that default-route through (needed for safe minimisation).
	type chipAcc struct {
		explicit map[uint32]router.RouteMask // key base -> route
		order    []uint32                    // insertion order for determinism
		through  map[uint32]bool             // key bases relying on default routing here
	}
	acc := make(map[topo.Coord]*chipAcc)
	get := func(c topo.Coord) *chipAcc {
		a := acc[c]
		if a == nil {
			a = &chipAcc{explicit: make(map[uint32]router.RouteMask), through: make(map[uint32]bool)}
			acc[c] = a
		}
		return a
	}

	for _, f := range frags {
		tree := BuildTree(spec.Torus, f.Chip, dests[f.Index])
		plan.Trees[f.Index] = tree
		plan.Stats.TreeLinks += tree.LinkCount()

		visited := make(map[topo.Coord]bool)
		for c := range tree.Out {
			visited[c] = true
		}
		for c := range tree.Sinks {
			visited[c] = true
		}
		for chip := range visited {
			plan.Stats.EntriesNaive++
			var rm router.RouteMask
			for _, d := range tree.Out[chip] {
				rm = rm.WithLink(d)
			}
			for _, core := range tree.Sinks[chip] {
				rm = rm.WithCore(core)
			}
			if rm.IsEmpty() {
				continue
			}
			// Default-route elision: not the source, no sinks, single
			// out-link equal to the inbound direction.
			if opts.ElideDefault && chip != f.Chip && len(tree.Sinks[chip]) == 0 {
				outs := tree.Out[chip]
				if len(outs) == 1 {
					if in, ok := tree.In[chip]; ok && in == outs[0] {
						get(chip).through[f.Key()] = true
						continue
					}
				}
			}
			a := get(chip)
			if _, dup := a.explicit[f.Key()]; !dup {
				a.order = append(a.order, f.Key())
			}
			a.explicit[f.Key()] = rm
		}
	}

	// Emit tables, minimising per chip when requested, in chip order so
	// an overflow names the same chip every run.
	for _, chip := range sortedChips(acc) {
		a := acc[chip]
		var entries []router.Entry
		if opts.Minimise {
			entries = minimiseChip(a.explicit, a.order, a.through)
		} else {
			for _, key := range a.order {
				entries = append(entries, router.Entry{
					Match: packet.KeyMask{Key: key, Mask: FragmentMask},
					Route: a.explicit[key],
				})
			}
		}
		plan.Stats.EntriesElided += len(a.order)
		plan.Stats.EntriesFinal += len(entries)
		if len(entries) > plan.Stats.MaxChipTable {
			plan.Stats.MaxChipTable = len(entries)
		}
		if spec.TableSize > 0 && len(entries) > spec.TableSize {
			return nil, fmt.Errorf("mapping: chip %v needs %d entries, CAM holds %d",
				chip, len(entries), spec.TableSize)
		}
		plan.Tables[chip] = entries
	}
	return plan, nil
}

// sortedChips returns m's chips in (Y, X) order, for iteration that does
// not depend on map order.
func sortedChips[V any](m map[topo.Coord]V) []topo.Coord {
	chips := make([]topo.Coord, 0, len(m))
	for chip := range m {
		chips = append(chips, chip)
	}
	sort.Slice(chips, func(i, j int) bool {
		if chips[i].Y != chips[j].Y {
			return chips[i].Y < chips[j].Y
		}
		return chips[i].X < chips[j].X
	})
	return chips
}

// minimiseChip merges same-route sibling entries when the broader match
// cannot capture any other key that visits this chip (explicit or
// default-routed).
func minimiseChip(explicit map[uint32]router.RouteMask, order []uint32, through map[uint32]bool) []router.Entry {
	// Group keys by route.
	groups := make(map[router.RouteMask][]packet.KeyMask)
	var routeOrder []router.RouteMask
	for _, key := range order {
		rm := explicit[key]
		if _, ok := groups[rm]; !ok {
			routeOrder = append(routeOrder, rm)
		}
		groups[rm] = append(groups[rm], packet.KeyMask{Key: key, Mask: FragmentMask})
	}
	// A merged matcher is safe if it overlaps no key with different
	// behaviour at this chip.
	conflicts := func(km packet.KeyMask, rm router.RouteMask) bool {
		for other, orm := range explicit {
			if orm != rm && km.Matches(other) {
				return true
			}
		}
		for other := range through {
			if km.Matches(other) {
				return true
			}
		}
		return false
	}
	var out []router.Entry
	for _, rm := range routeOrder {
		kms := groups[rm]
		// Iterative pairwise merging (Quine-McCluskey style, greedy).
		merged := true
		for merged {
			merged = false
		outer:
			for i := 0; i < len(kms); i++ {
				for j := i + 1; j < len(kms); j++ {
					if kms[i].MergeDistance(kms[j]) == 1 {
						m := kms[i].Merge(kms[j])
						if conflicts(m, rm) {
							continue
						}
						kms[i] = m
						kms = append(kms[:j], kms[j+1:]...)
						merged = true
						break outer
					}
				}
			}
		}
		for _, km := range kms {
			out = append(out, router.Entry{Match: km, Route: rm})
		}
	}
	return out
}

// InstallTables loads a plan's tables into a fabric.
func (p *RoutingPlan) InstallTables(f *router.Fabric) error {
	for chip, entries := range p.Tables {
		tb := f.Node(chip).Table
		for _, e := range entries {
			if err := tb.Add(e); err != nil {
				return fmt.Errorf("chip %v: %w", chip, err)
			}
		}
	}
	return nil
}

// Validate walks every fragment's key through the generated tables
// (including default routing) and confirms it reaches exactly the
// intended cores with no loops. The walk is depth first, a route's
// links taken in direction order, on one reused stack; a chip reached
// twice in the same direction is a loop. What a fragment delivers is one
// core mask per chip, and the walk's marks are stamped with the
// fragment's turn, so no fragment allocates.
func (p *RoutingPlan) Validate() error {
	lookup := func(chip topo.Coord, key uint32) (router.RouteMask, bool) {
		for _, e := range p.Tables[chip] {
			if e.Match.Matches(key) {
				return e.Route, true
			}
		}
		return 0, false
	}
	var links router.RouteMask
	for d := topo.Dir(0); int(d) < topo.NumDirs; d++ {
		links = links.WithLink(d)
	}
	torus := p.Spec.Torus
	type hop struct {
		chip   topo.Coord
		travel int // -1 at injection
	}
	var stack []hop
	var touched []int
	// visited[chip index*(NumDirs+1) + travel+1] is the turn of the last
	// fragment whose walk reached that chip travelling that way.
	visited := make([]int, torus.Size()*(topo.NumDirs+1))
	got := make([]router.RouteMask, torus.Size())
	for turn, f := range p.Frags {
		want := p.Dests[f.Index]
		if len(want) == 0 {
			continue // fragment has no targets (e.g. output-only population)
		}
		stack, touched = append(stack[:0], hop{f.Chip, -1}), touched[:0]
		for len(stack) > 0 {
			h := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			i := torus.Index(h.chip)
			v := &visited[i*(topo.NumDirs+1)+h.travel+1]
			if *v == turn+1 {
				return fmt.Errorf("mapping: fragment %d loops at %v", f.Index, h.chip)
			}
			*v = turn + 1
			rm, ok := lookup(h.chip, f.Key())
			if !ok {
				if h.travel < 0 {
					return fmt.Errorf("mapping: fragment %d unroutable at source %v", f.Index, h.chip)
				}
				// Default routing: straight through.
				d := topo.Dir(h.travel)
				stack = append(stack, hop{torus.Neighbor(h.chip, d), h.travel})
				continue
			}
			if cores := rm &^ links; cores != 0 {
				if got[i] == 0 {
					touched = append(touched, i)
				}
				got[i] |= cores
			}
			// Pushed last first, so the lowest direction is walked first.
			for d := topo.Dir(topo.NumDirs - 1); d >= 0; d-- {
				if rm.HasLink(d) {
					stack = append(stack, hop{torus.Neighbor(h.chip, d), int(d)})
				}
			}
		}
		// Each wanted core is cleared once found (a fragment's targets
		// are distinct cores), so what is left is over-delivery.
		for chip, cores := range want {
			i := torus.Index(chip)
			for _, core := range cores {
				if uint(core) >= router.MaxCores || !got[i].HasCore(core) {
					return fmt.Errorf("mapping: fragment %d missed %v core %d", f.Index, chip, core)
				}
				got[i] &^= router.CoreRoute(core)
			}
		}
		for _, i := range touched {
			for core := 0; got[i] != 0; core++ {
				if got[i].HasCore(core) {
					return fmt.Errorf("mapping: fragment %d over-delivered to %v core %d", f.Index, torus.CoordOf(i), core)
				}
			}
		}
	}
	return nil
}
