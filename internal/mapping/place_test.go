package mapping

import (
	"testing"

	"spinngo/internal/topo"
)

func TestPartitionSizes(t *testing.T) {
	net, _ := twoPopNet(600, 100, AllToAll)
	spec := DefaultMachineSpec(4, 4)
	frags, err := Partition(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	// 600 -> 256+256+88, 100 -> 100: four fragments.
	if len(frags) != 4 {
		t.Fatalf("fragments = %d, want 4", len(frags))
	}
	sizes := []int{frags[0].Size(), frags[1].Size(), frags[2].Size(), frags[3].Size()}
	want := []int{256, 256, 88, 100}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("fragment %d size %d, want %d", i, sizes[i], want[i])
		}
	}
	// Fragments tile the population exactly.
	total := 0
	for _, f := range frags {
		if f.Pop == net.Pops[0] {
			total += f.Size()
		}
	}
	if total != 600 {
		t.Errorf("pre fragments cover %d neurons, want 600", total)
	}
}

func TestFragmentKeys(t *testing.T) {
	net, _ := twoPopNet(300, 10, AllToAll)
	frags, err := Partition(net, DefaultMachineSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	f1 := frags[1] // second fragment of pre: neurons 256..299
	if f1.Key() != 1<<8 {
		t.Errorf("fragment 1 key = %#x", f1.Key())
	}
	if got := f1.KeyFor(260); got != (1<<8)|4 {
		t.Errorf("KeyFor(260) = %#x", got)
	}
}

func TestPlaceSerpentineLocality(t *testing.T) {
	net, _ := twoPopNet(256*8, 10, AllToAll)
	spec := DefaultMachineSpec(8, 8)
	spec.AppCoresPerChip = 2
	frags, err := Partition(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Place(frags, spec, PlaceSerpentine, 0); err != nil {
		t.Fatal(err)
	}
	// Consecutive fragments must sit on the same or adjacent chips.
	for i := 1; i < len(frags); i++ {
		d := spec.Torus.Distance(frags[i-1].Chip, frags[i].Chip)
		if d > 1 {
			t.Errorf("fragments %d,%d placed %d hops apart under serpentine", i-1, i, d)
		}
	}
}

func TestPlaceCapacity(t *testing.T) {
	net, _ := twoPopNet(256*5, 10, AllToAll)
	spec := DefaultMachineSpec(1, 1)
	spec.AppCoresPerChip = 2
	frags, err := Partition(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Place(frags, spec, PlaceSerpentine, 0); err == nil {
		t.Error("overfull placement accepted")
	}
}

func TestPlaceRandomCoversMachine(t *testing.T) {
	net, _ := twoPopNet(256*16, 10, AllToAll)
	spec := DefaultMachineSpec(4, 4)
	spec.AppCoresPerChip = 4
	frags, err := Partition(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Place(frags, spec, PlaceRandom, 42); err != nil {
		t.Fatal(err)
	}
	byChip := map[topo.Coord]bool{}
	for _, f := range frags {
		byChip[f.Chip] = true
	}
	if len(byChip) < 4 {
		t.Errorf("random placement used only %d chips", len(byChip))
	}
	// No core slot may be double-booked.
	type slot struct {
		c    topo.Coord
		core int
	}
	seen := map[slot]bool{}
	for _, f := range frags {
		s := slot{f.Chip, f.Core}
		if seen[s] {
			t.Fatalf("slot %v double-booked", s)
		}
		seen[s] = true
	}
}

func TestFragmentForNeuron(t *testing.T) {
	net, _ := twoPopNet(600, 10, AllToAll)
	frags, _ := Partition(net, DefaultMachineSpec(4, 4))
	f, err := FragmentForNeuron(frags, net.Pops[0], 300)
	if err != nil {
		t.Fatal(err)
	}
	if f.Lo > 300 || f.Hi <= 300 {
		t.Errorf("wrong fragment [%d,%d) for neuron 300", f.Lo, f.Hi)
	}
	if _, err := FragmentForNeuron(frags, net.Pops[0], 600); err == nil {
		t.Error("out-of-range neuron located")
	}
}

func TestMachineSpecValidate(t *testing.T) {
	spec := DefaultMachineSpec(2, 2)
	spec.MaxNeuronsPerCore = 257
	if spec.Validate() == nil {
		t.Error("257 neurons/core accepted (breaks 8-bit AER index)")
	}
	spec = DefaultMachineSpec(2, 2)
	spec.AppCoresPerChip = 0
	if spec.Validate() == nil {
		t.Error("0 app cores accepted")
	}
}
