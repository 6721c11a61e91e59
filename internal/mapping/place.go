package mapping

import (
	"fmt"

	"spinngo/internal/sim"
	"spinngo/internal/topo"
)

// MachineSpec describes the target machine for the mapper.
type MachineSpec struct {
	Torus topo.Torus
	// AppCoresPerChip is how many application cores each chip offers
	// (20 minus monitor minus faulty, typically 17-18).
	AppCoresPerChip int
	// MaxNeuronsPerCore bounds fragment size (DTCM and real-time
	// limits; also the 8-bit neuron index in the AER key split).
	MaxNeuronsPerCore int
	// TableSize is the router CAM capacity.
	TableSize int
}

// DefaultMachineSpec returns a machine of w x h chips with paper-scale
// parameters.
func DefaultMachineSpec(w, h int) MachineSpec {
	return MachineSpec{
		Torus:             topo.MustTorus(w, h),
		AppCoresPerChip:   17,
		MaxNeuronsPerCore: 256,
		TableSize:         1024,
	}
}

// Validate checks the spec.
func (m MachineSpec) Validate() error {
	if m.AppCoresPerChip <= 0 {
		return fmt.Errorf("mapping: no application cores")
	}
	if m.MaxNeuronsPerCore <= 0 || m.MaxNeuronsPerCore > 256 {
		return fmt.Errorf("mapping: neurons/core %d out of range 1..256 (8-bit AER index)",
			m.MaxNeuronsPerCore)
	}
	return nil
}

// Fragment is a slice of one population assigned to one core: neurons
// [Lo, Hi) of the population.
type Fragment struct {
	Index  int // global fragment index, also its routing-key base
	Pop    *Population
	Lo, Hi int
	// Placement (filled by Place).
	Chip topo.Coord
	Core int // application-core slot on the chip
}

// Size reports the fragment's neuron count.
func (f *Fragment) Size() int { return f.Hi - f.Lo }

// Key reports the fragment's AER key base: fragment index in the high
// 24 bits, neuron index in the low 8.
func (f *Fragment) Key() uint32 { return uint32(f.Index) << 8 }

// KeyFor reports the AER key of a neuron (population-relative index).
func (f *Fragment) KeyFor(popIdx int) uint32 {
	return f.Key() | uint32(popIdx-f.Lo)
}

// KeyMaskValue is the ternary match covering the whole fragment.
const FragmentMask uint32 = 0xffffff00

// Partition slices every population into fragments of at most
// MaxNeuronsPerCore neurons, in population order.
func Partition(net *Network, spec MachineSpec) ([]*Fragment, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var frags []*Fragment
	for _, p := range net.Pops {
		for lo := 0; lo < p.N; lo += spec.MaxNeuronsPerCore {
			hi := lo + spec.MaxNeuronsPerCore
			if hi > p.N {
				hi = p.N
			}
			frags = append(frags, &Fragment{Index: len(frags), Pop: p, Lo: lo, Hi: hi})
		}
	}
	if len(frags) > 1<<24 {
		return nil, fmt.Errorf("mapping: %d fragments exceed the 24-bit key space", len(frags))
	}
	return frags, nil
}

// PlacementStrategy selects the placement algorithm.
type PlacementStrategy int

const (
	// PlaceSerpentine walks chips in a boustrophedon space-filling
	// order, keeping consecutive fragments (which are usually densely
	// connected) on nearby chips — the locality heuristic of section
	// 3.2: mapping proximal neurons to proximal processors minimises
	// routing cost, though correctness never depends on it.
	PlaceSerpentine PlacementStrategy = iota
	// PlaceRandom scatters fragments uniformly (the ablation baseline:
	// virtualised topology means this still works, just costs more
	// routing).
	PlaceRandom
)

func (s PlacementStrategy) String() string {
	if s == PlaceRandom {
		return "random"
	}
	return "serpentine"
}

// serpentineOrder returns chip coordinates in boustrophedon scan order.
func serpentineOrder(t topo.Torus) []topo.Coord {
	out := make([]topo.Coord, 0, t.Size())
	for y := 0; y < t.H; y++ {
		if y%2 == 0 {
			for x := 0; x < t.W; x++ {
				out = append(out, topo.Coord{X: x, Y: y})
			}
		} else {
			for x := t.W - 1; x >= 0; x-- {
				out = append(out, topo.Coord{X: x, Y: y})
			}
		}
	}
	return out
}

// Place assigns each fragment a (chip, core). It fails when the machine
// has too few application cores.
func Place(frags []*Fragment, spec MachineSpec, strategy PlacementStrategy, seed uint64) error {
	capacity := spec.Torus.Size() * spec.AppCoresPerChip
	if len(frags) > capacity {
		return fmt.Errorf("mapping: %d fragments exceed machine capacity %d cores",
			len(frags), capacity)
	}
	chips := serpentineOrder(spec.Torus)
	if strategy == PlaceRandom {
		rng := sim.NewRNG(seed)
		perm := rng.Perm(len(chips))
		shuffled := make([]topo.Coord, len(chips))
		for i, j := range perm {
			shuffled[i] = chips[j]
		}
		chips = shuffled
	}
	slot := 0
	for _, f := range frags {
		chip := chips[slot/spec.AppCoresPerChip]
		f.Chip = chip
		f.Core = slot % spec.AppCoresPerChip
		slot++
	}
	return nil
}

// FragmentsByChip groups placed fragments per chip.
func FragmentsByChip(frags []*Fragment) map[topo.Coord][]*Fragment {
	out := make(map[topo.Coord][]*Fragment)
	for _, f := range frags {
		out[f.Chip] = append(out[f.Chip], f)
	}
	return out
}

// FragmentForNeuron locates the fragment holding a population's neuron.
func FragmentForNeuron(frags []*Fragment, p *Population, idx int) (*Fragment, error) {
	for _, f := range frags {
		if f.Pop == p && idx >= f.Lo && idx < f.Hi {
			return f, nil
		}
	}
	return nil, fmt.Errorf("mapping: neuron %d of %q not in any fragment", idx, p.Name)
}

// neuronFrags indexes a population's fragments by neuron: entry i is the
// fragment holding neuron i.
func neuronFrags(frags []*Fragment, p *Population) ([]*Fragment, error) {
	of := make([]*Fragment, p.N)
	for _, f := range frags {
		if f.Pop == p {
			for i := f.Lo; i < f.Hi; i++ {
				of[i] = f
			}
		}
	}
	for i, f := range of {
		if f == nil {
			return nil, fmt.Errorf("mapping: neuron %d of %q not in any fragment", i, p.Name)
		}
	}
	return of, nil
}
