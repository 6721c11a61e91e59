// Package neural provides the spiking-neuron substrate that SpiNNaker
// exists to run (paper sections 1, 3 and 5.3): leaky integrate-and-fire
// and Izhikevich point neurons in the 16.16 fixed-point arithmetic the
// ARM968 uses (it has no floating-point unit), packed synaptic words,
// and the deferred-event input ring that re-inserts axonal delays at the
// target neuron (section 3.2: delays are made 'soft').
package neural

import "fmt"

// Fix is a signed 16.16 fixed-point number, the native numeric format of
// SpiNNaker neuron kernels.
type Fix int32

// One is the fixed-point representation of 1.0.
const One Fix = 1 << 16

// F converts a float64 to fixed point (saturating).
func F(x float64) Fix {
	v := x * float64(One)
	switch {
	case v >= float64(1<<31-1):
		return Fix(1<<31 - 1)
	case v <= float64(-(1 << 31)):
		return Fix(-(1 << 31))
	default:
		return Fix(int32(v))
	}
}

// Mul multiplies two fixed-point numbers with a 64-bit intermediate.
func (a Fix) Mul(b Fix) Fix { return Fix(int64(a) * int64(b) >> 16) }

// String renders the value as a decimal.
func (f Fix) String() string { return fmt.Sprintf("%g", float64(f)/float64(One)) }
