package main

import (
	"math"
	"sort"
)

// samples collects one metric's per-iteration values.
type samples []float64

// median returns the middle value (the mean of the two middle values for an
// even count); NaN when empty.
func (s samples) median() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// bounds returns the smallest and largest sample.
func (s samples) bounds() (lo, hi float64) {
	if len(s) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = s[0], s[0]
	for _, x := range s[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
