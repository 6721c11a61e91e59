package packet

// AER key construction. The 32-bit multicast key identifies the neuron
// that fired (paper section 4). spinngo uses the conventional SpiNNaker
// split: the high bits identify the source core (population fragment) and
// the low bits the neuron index within it. The split point is chosen by
// the mapping layer; KeyMask captures a (key, mask) ternary pair as stored
// in router entries.

// KeyMask is a ternary routing match: an incoming key matches when
// key&Mask == Key&Mask. Mask bits that are 0 are "don't care".
type KeyMask struct {
	Key  uint32
	Mask uint32
}

// Matches reports whether k matches this entry.
func (km KeyMask) Matches(k uint32) bool { return k&km.Mask == km.Key&km.Mask }

// MergeDistance counts the cared-for bit positions where the two entries
// disagree. Entries with equal masks and distance 1 can be merged into a
// single entry with that bit masked out (used by table minimisation).
func (km KeyMask) MergeDistance(other KeyMask) int {
	if km.Mask != other.Mask {
		return -1
	}
	diff := (km.Key ^ other.Key) & km.Mask
	n := 0
	for diff != 0 {
		diff &= diff - 1
		n++
	}
	return n
}

// Merge combines two entries with equal masks differing in exactly one
// cared-for bit into one broader entry. It panics if the precondition
// fails; callers check MergeDistance first.
func (km KeyMask) Merge(other KeyMask) KeyMask {
	if km.MergeDistance(other) != 1 {
		panic("packet: Merge precondition violated")
	}
	diff := (km.Key ^ other.Key) & km.Mask
	m := km.Mask &^ diff
	return KeyMask{Key: km.Key & m, Mask: m}
}
