package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// count as resolved: with fewer, one outlier moves the estimate.
const minBeyond = 10

// quantile is one percentile estimate together with the evidence
// behind it.
type quantile struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	// Beyond counts the samples ranked above the estimate.
	Beyond     int  `json:"beyond"`
	Unresolved bool `json:"unresolved,omitempty"`
}

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, so the value is always one that was measured. It
// is unresolved when fewer than minBeyond samples rank above it, and
// for an empty sample.
func percentile(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Unresolved: true}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	return quantile{Value: s[rank-1], Samples: n, Beyond: beyond, Unresolved: beyond < minBeyond}
}

// p50 is the median value of xs, 0 for an empty sample.
func p50(xs []float64) float64 { return percentile(xs, 0.5).Value }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (no work was done in the layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
