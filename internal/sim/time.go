// Package sim provides the discrete-event simulation kernel that drives all
// virtual-time activity in this repository: the workflow management system,
// the platform model, and the parallel file system all schedule their work as
// events on a single sim.Kernel.
//
// The kernel is deliberately single-threaded: determinism across runs with
// the same seed is a core requirement of the reproduction (see DESIGN.md §5).
// Parallelism is obtained one level up, by running many independent kernels
// (one per workflow run) on separate goroutines.
package sim

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Time is a virtual timestamp measured from the start of a simulation.
// It has nanosecond resolution, like time.Duration, and supports the same
// arithmetic by conversion.
type Time time.Duration

// Common virtual durations.
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
	Minute      Time = Time(time.Minute)
)

// Seconds converts a floating-point number of seconds into a virtual Time.
func Seconds(s float64) Time { return Time(s * float64(time.Second)) }

// Milliseconds converts a floating-point number of milliseconds into a Time.
func Milliseconds(ms float64) Time { return Time(ms * float64(time.Millisecond)) }

// Microseconds converts a floating-point number of microseconds into a Time.
func Microseconds(us float64) Time { return Time(us * float64(time.Microsecond)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Duration converts t to a time.Duration of the same magnitude.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time as seconds with microsecond precision, e.g. "12.345678s".
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// MarshalJSON writes t as a JSON number of float seconds, in exactly the text
// encoding/json writes for the float64 t.Seconds(): provenance events carry
// virtual times this way on the wire.
func (t Time) MarshalJSON() ([]byte, error) {
	f := t.Seconds()
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(make([]byte, 0, 24), f, format, -1, 64)
	if format == 'e' {
		// Like encoding/json, shorten a two-digit negative exponent: e-09 to e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// UnmarshalJSON reads float seconds back through Seconds, so a decoded time
// is exactly what Seconds makes of the float the producer wrote. JSON null
// leaves t unchanged.
func (t *Time) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("sim: time %s: %w", b, err)
	}
	*t = Seconds(f)
	return nil
}
