package service

import (
	"testing"
	"time"
)

// TestHistogramQuantileInterpolation pins the in-bucket linear
// interpolation on the finite buckets.
func TestHistogramQuantileInterpolation(t *testing.T) {
	h := newHistogram()
	// 100 observations, all landing in the (2, 5] ms bucket.
	for i := 0; i < 100; i++ {
		h.observe(3 * time.Millisecond)
	}
	// Median of a bucket assumed uniform over (2, 5]: 2 + 0.5*(5-2) = 3.5.
	if got := h.quantile(0.50); got != 3.5 {
		t.Errorf("p50 = %v, want 3.5 (midpoint of the (2,5] bucket)", got)
	}
	if got := h.quantile(0.99); got != 2+0.99*3 {
		t.Errorf("p99 = %v, want %v", got, 2+0.99*3)
	}
}

// TestHistogramQuantileOverflow pins the terminal-bucket fix: a quantile
// landing in the overflow (+Inf) bucket must interpolate between the last
// finite bound and the largest observation, not report the raw bucket
// edge. Before the fix every overflow quantile collapsed to the last
// bound (10 s), under-reporting a 30 s tail by 3×.
func TestHistogramQuantileOverflow(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.observe(30 * time.Second) // far past the 10 s terminal bound
	}
	lastBound := latencyBucketMs[len(latencyBucketMs)-1]
	maxMs := 30000.0

	p50 := h.quantile(0.50)
	if want := lastBound + 0.5*(maxMs-lastBound); p50 != want {
		t.Errorf("p50 = %v, want %v (interpolated into overflow)", p50, want)
	}
	for _, q := range []float64{0.50, 0.90, 0.99} {
		v := h.quantile(q)
		if v <= lastBound {
			t.Errorf("quantile(%v) = %v, must exceed the last finite bound %v", q, v, lastBound)
		}
		if v > maxMs {
			t.Errorf("quantile(%v) = %v, must not exceed the max observation %v", q, v, maxMs)
		}
	}
}

// TestHistogramQuantileMixedTail checks a realistic split: a fast body
// with a heavy overflow tail keeps body quantiles in their buckets while
// tail quantiles track the observed maximum.
func TestHistogramQuantileMixedTail(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 50; i++ {
		h.observe(3 * time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		h.observe(15 * time.Second)
	}
	if got := h.quantile(0.50); got != 5 {
		t.Errorf("p50 = %v, want 5 (upper edge of the fast bucket)", got)
	}
	// target 99 of 100: 50 finite + frac (99-50)/50 of [10000, 15000].
	if got, want := h.quantile(0.99), 10000+0.98*(15000-10000); got != want {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	if p50, p90, p99 := h.quantile(0.5), h.quantile(0.9), h.quantile(0.99); !(p50 <= p90 && p90 <= p99) {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
}

// TestHistogramQuantileEmpty: no observations means no statement.
func TestHistogramQuantileEmpty(t *testing.T) {
	h := newHistogram()
	if got := h.quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}
