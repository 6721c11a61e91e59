// Package sim provides the deterministic discrete-event simulation kernel
// that underpins the spinngo SpiNNaker model.
//
// All architectural experiments run on this kernel so that results are
// bit-reproducible: events at equal timestamps are executed in scheduling
// order, and all randomness flows from an explicitly seeded generator.
//
// There is one way to schedule an event: hand a Payload to AtP/AfterP
// (Engine, Domain), DeliverAtP (a cross-domain delivery) or PostP (a
// cross-shard one). Run is the event; EventDesc names it for snapshots
// as a Desc — a kind plus scalar arguments and an opaque blob — which a
// Kinds table turns back into the same payload on restore. Func wraps a
// plain function for tests and for phases where no snapshot can be
// taken; it has no Desc, and ExportEvents refuses it.
package sim

import "fmt"

// Time is a simulated instant, measured in nanoseconds from the start of
// the simulation. It is a distinct type from time.Duration to make it
// impossible to confuse simulated time with host wall-clock time.
type Time int64

// Common durations expressed in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel meaning "no deadline".
const Forever Time = 1<<63 - 1

// String renders a Time with an adaptive unit, e.g. "1.5ms".
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < -Forever: // the one instant whose negation overflows
		return fmt.Sprintf("%dns", int64(t))
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%gs", float64(t)/float64(Second))
	}
}

// Seconds converts a Time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts a Time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros converts a Time to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }
