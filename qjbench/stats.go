package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have
// beyond it.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by the nearest-rank
// rule, or an error when fewer than minTail samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median of xs (the mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with the
// default exclusive method, which the spread report is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	at := func(j int) float64 {
		pos := float64(j) * (n + 1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

func gmean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
