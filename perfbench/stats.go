package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns 0
// for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples strictly above cut: the benchmark reports a
// tail only where at least ten samples lie beyond it.
func beyond(xs []float64, cut float64) int {
	n := 0
	for _, x := range xs {
		if x > cut {
			n++
		}
	}
	return n
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
