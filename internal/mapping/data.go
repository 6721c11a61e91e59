package mapping

import (
	"cmp"
	"fmt"
	"slices"

	"spinngo/internal/neural"
	"spinngo/internal/topo"
)

// CoreData is everything one application core needs loaded before start:
// which population slice it simulates and its SDRAM synaptic matrix.
type CoreData struct {
	Frag *Fragment
	// Matrix maps each presynaptic neuron's full AER key to its
	// synaptic row targeting this core's neurons, and marks the rows
	// subject to STDP.
	Matrix *neural.Matrix
	// STDP is the (single) plasticity rule for rows targeting this
	// core, nil when all rows are static.
	STDP *neural.STDPConfig
}

// DataPlan is the loadable image of the whole network: per chip, per
// application core slot.
type DataPlan struct {
	Cores map[topo.Coord]map[int]*CoreData
	// TotalSynapses counts expanded synapses.
	TotalSynapses int
	// TotalBytes counts synaptic storage.
	TotalBytes int
}

// synapse is one expanded synapse as its post fragment holds it until
// finish: the presynaptic neuron's AER key and the packed word.
type synapse struct {
	preKey uint32
	word   neural.SynWord
}

// postRows collects the synapses one post fragment receives, in
// expansion order.
type postRows struct {
	syn []synapse
	// plastic lists the keys of the rows an STDP projection feeds, once
	// per run of equal keys in arrival order.
	plastic []uint32
	// stdp is the first STDP rule to reach the fragment.
	stdp *neural.STDPConfig
}

// dataBuilder accumulates a DataPlan one synapse at a time, each into
// its post fragment's list; finish packs the lists into the per-core
// matrices.
type dataBuilder struct {
	frags []*Fragment
	post  []postRows // by fragment index
	err   error      // the first conflicting STDP rule, reported by finish
}

// add appends one synapse of projection pr to its post fragment's list.
func (b *dataBuilder) add(pr *Projection, post *Fragment, preKey uint32, word neural.SynWord) {
	r := &b.post[post.Index]
	r.syn = append(r.syn, synapse{preKey, word})
	if pr.STDP == nil {
		return
	}
	if n := len(r.plastic); n == 0 || r.plastic[n-1] != preKey {
		r.plastic = append(r.plastic, preKey)
	}
	switch {
	case r.stdp == nil:
		r.stdp = pr.STDP
	case r.stdp != pr.STDP && *r.stdp != *pr.STDP && b.err == nil:
		b.err = fmt.Errorf("mapping: conflicting STDP rules target %q fragment %d",
			post.Pop.Name, post.Index)
	}
}

// finish moves each fragment's synapses into its core's matrix, one row
// per key in ascending key order (a matrix takes them no other way) and
// words in expansion order, releasing each list as it lands so set-up
// never holds the whole connectivity twice. One projection's keys
// already ascend, so only a fragment several projections feed out of
// key order is sorted.
func (b *dataBuilder) finish() (*DataPlan, error) {
	if b.err != nil {
		return nil, b.err
	}
	plan := &DataPlan{Cores: make(map[topo.Coord]map[int]*CoreData)}
	byKey := func(x, y synapse) int { return cmp.Compare(x.preKey, y.preKey) }
	var row neural.Row
	for _, f := range b.frags {
		r := &b.post[f.Index]
		cd := &CoreData{Frag: f, Matrix: neural.NewMatrix(), STDP: r.stdp}
		chip := plan.Cores[f.Chip]
		if chip == nil {
			chip = make(map[int]*CoreData)
			plan.Cores[f.Chip] = chip
		}
		chip[f.Core] = cd
		if !slices.IsSortedFunc(r.syn, byKey) {
			slices.SortStableFunc(r.syn, byKey)
		}
		slices.Sort(r.plastic)
		p := 0
		for lo := 0; lo < len(r.syn); {
			key := r.syn[lo].preKey
			row = row[:0]
			for lo < len(r.syn) && r.syn[lo].preKey == key {
				row = append(row, r.syn[lo].word)
				lo++
			}
			for p < len(r.plastic) && r.plastic[p] < key {
				p++
			}
			cd.Matrix.AddRow(key, row, p < len(r.plastic) && r.plastic[p] == key)
			plan.TotalBytes += row.SizeBytes()
		}
		plan.TotalSynapses += len(r.syn)
		*r = postRows{}
	}
	return plan, nil
}

// Compile runs the full pipeline: partition, place, route, build data,
// validate. This is the one-call front end the public API uses. Routing
// and data generation both read the one streaming expansion of every
// projection.
func Compile(net *Network, spec MachineSpec, strategy PlacementStrategy, opts RouteOptions, seed uint64) (*RoutingPlan, *DataPlan, error) {
	frags, err := Partition(net, spec)
	if err != nil {
		return nil, nil, err
	}
	if err := Place(frags, spec, strategy, seed); err != nil {
		return nil, nil, err
	}
	data := &dataBuilder{frags: frags, post: make([]postRows, len(frags))}
	dests, err := expand(net, frags, data)
	if err != nil {
		return nil, nil, err
	}
	rplan, err := routeTo(dests, frags, spec, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := rplan.Validate(); err != nil {
		return nil, nil, fmt.Errorf("mapping: generated plan failed validation: %w", err)
	}
	dplan, err := data.finish()
	if err != nil {
		return nil, nil, err
	}
	return rplan, dplan, nil
}
