package bench

import (
	"fmt"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between the closest ranks; xs is not modified. It
// returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Median is the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which
// is how run-to-run spread is judged. Fewer than two values give (x, x).
func Quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("quartiles of no values")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], nil
	}
	q := func(j int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1.
		m := len(s) + 1
		pos := j * m
		k := min(max(pos/4, 1), len(s)-1)
		delta := float64(pos - 4*k)
		return (s[k-1]*(4-delta) + s[k]*delta) / 4
	}
	return q(1), q(3), nil
}
