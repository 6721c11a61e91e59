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

// rowKey names one synaptic row: the core it lives on and the
// presynaptic neuron's AER key.
type rowKey struct {
	frag   *Fragment
	preKey uint32
}

// dataBuilder accumulates a DataPlan one synapse at a time; finish packs
// the rows into the per-core matrices.
type dataBuilder struct {
	plan    *DataPlan
	rows    map[rowKey]neural.Row
	plastic map[rowKey]*neural.STDPConfig
	order   []rowKey // rows in first-synapse order until finish sorts them by key
}

func newDataBuilder(frags []*Fragment) *dataBuilder {
	b := &dataBuilder{
		plan:    &DataPlan{Cores: make(map[topo.Coord]map[int]*CoreData)},
		rows:    make(map[rowKey]neural.Row),
		plastic: make(map[rowKey]*neural.STDPConfig),
	}
	// Make sure every fragment has a (possibly empty) core image.
	for _, f := range frags {
		b.coreData(f)
	}
	return b
}

func (b *dataBuilder) coreData(f *Fragment) *CoreData {
	chip := b.plan.Cores[f.Chip]
	if chip == nil {
		chip = make(map[int]*CoreData)
		b.plan.Cores[f.Chip] = chip
	}
	cd := chip[f.Core]
	if cd == nil {
		cd = &CoreData{Frag: f, Matrix: neural.NewMatrix()}
		chip[f.Core] = cd
	}
	return cd
}

// add appends one synapse of projection pr to its row.
func (b *dataBuilder) add(pr *Projection, pre, post *Fragment, conn Conn) {
	k := rowKey{post, pre.KeyFor(conn.PreIdx)}
	if _, ok := b.rows[k]; !ok {
		b.order = append(b.order, k)
	}
	b.rows[k] = append(b.rows[k], neural.MakeSynWord(
		conn.Weight, conn.Delay, conn.Inhibitory, conn.PostIdx-post.Lo))
	if pr.STDP != nil {
		b.plastic[k] = pr.STDP
	}
	b.plan.TotalSynapses++
}

// finish moves the rows into the per-core matrices in ascending key
// order (a core's matrix takes them no other way), releasing each as it
// lands so set-up never holds the whole connectivity twice.
func (b *dataBuilder) finish() (*DataPlan, error) {
	slices.SortStableFunc(b.order, func(x, y rowKey) int { return cmp.Compare(x.preKey, y.preKey) })
	for _, k := range b.order {
		cd := b.coreData(k.frag)
		cfg := b.plastic[k]
		cd.Matrix.AddRow(k.preKey, b.rows[k], cfg != nil)
		b.plan.TotalBytes += b.rows[k].SizeBytes()
		delete(b.rows, k)
		if cfg != nil {
			if cd.STDP != nil && *cd.STDP != *cfg {
				return nil, fmt.Errorf("mapping: conflicting STDP rules target %q fragment %d",
					k.frag.Pop.Name, k.frag.Index)
			}
			cd.STDP = cfg
		}
	}
	return b.plan, nil
}

// BuildData expands every projection into per-core synaptic matrices
// ("connectivity data constructed", section 5.3).
func BuildData(net *Network, frags []*Fragment) (*DataPlan, error) {
	b := newDataBuilder(frags)
	for _, pr := range net.Projs {
		if err := eachConn(frags, pr, func(pre, post *Fragment, conn Conn) { b.add(pr, pre, post, conn) }); err != nil {
			return nil, err
		}
	}
	return b.finish()
}

// Compile runs the full pipeline: partition, place, route, build data,
// validate. This is the one-call front end the public API uses. Routing
// and data generation both read the expanded projections; they share
// one expansion.
func Compile(net *Network, spec MachineSpec, strategy PlacementStrategy, opts RouteOptions, seed uint64) (*RoutingPlan, *DataPlan, error) {
	frags, err := Partition(net, spec)
	if err != nil {
		return nil, nil, err
	}
	if err := Place(frags, spec, strategy, seed); err != nil {
		return nil, nil, err
	}
	dests, data := newDestSets(frags), newDataBuilder(frags)
	for _, pr := range net.Projs {
		err := eachConn(frags, pr, func(pre, post *Fragment, conn Conn) {
			dests.add(pre, post)
			data.add(pr, pre, post, conn)
		})
		if err != nil {
			return nil, nil, err
		}
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
