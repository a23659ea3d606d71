// Package classical provides classical join-ordering baselines: exact
// optimisation by dynamic programming over relation subsets (left-deep
// trees with cross products), exhaustive enumeration for cross-checking,
// and a greedy heuristic. The exact optimum serves as ground truth for the
// valid/optimal statistics reported for the quantum backends (the paper's
// Tables 2 and 3), mirroring the role of the classical MILP solver in the
// original study.
package classical

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"quantumjoin/internal/join"
)

// MaxDPRelations bounds the DP solver. The sweep keeps three 2^T tables
// (cost, cardinality and last relation: 17·2^T bytes), ~17 MiB at 20
// relations and ~1.1 GiB at 26; beyond that they do not fit in memory on
// commodity machines.
const MaxDPRelations = 26

// Result is an optimised join order with its C_out cost.
type Result struct {
	Order join.Order
	Cost  float64
}

// Optimal computes the cheapest left-deep join order (cross products
// allowed) by dynamic programming over subsets: dp[S] is the cheapest cost
// of any left-deep tree joining exactly the relations in S, and because
// C_out charges each intermediate result cardinality exactly once,
// dp[S] = min over r in S of dp[S \ {r}] + card(S).
func Optimal(q *join.Query) (Result, error) {
	return OptimalContext(context.Background(), q)
}

// dpPollMask gates the context check and the finish-time prediction in
// OptimalContext to once every 1024 subsets (~50 µs of sweep at 20
// relations), keeping both off the inner loop's hot path.
const dpPollMask = 1024 - 1

// dpPredictAfter is the share of the sweep's inner-loop work done before
// the finish-time prediction is trusted: earlier, a single scheduling
// stall would dominate the measured rate.
const dpPredictAfter = 1.0 / 16

// dpSafety pads the predicted remaining sweep time, leaving room for the
// caller's work after the sweep. The extrapolation errs both ways: a
// garbage collection started by the tables' allocation slows the first
// subsets, and the growing working set slows the last. Replaying the
// prediction over the 24 querygen.DeadlineStratified queries at 18 and 20
// relations (seed 1, twice each, 2 vCPUs) at padding 1.1, 1 of 48
// 20-relation sweeps that fit a 100 ms budget was dropped, and no sweep
// that missed a 20, 25 or 100 ms budget was kept; padding 1.5 dropped 19
// of those 48.
const dpSafety = 1.1

// dpStepCost is the time per inner-loop iteration that the sweep assumes
// before it has measured its own: 3 ns, the 20-relation chain's rate on a
// 2-vCPU host (32 ms for n·2^(n−1) ≈ 10.5M iterations), about the lower
// quartile of the rates measured over querygen.DeadlineStratified queries
// at 16–20 relations (2.3–7.8 ns, median ~4.7). A sweep whose whole work at
// this rate, padded by dpSafety, would finish after the deadline is not
// started: 35 ms at 20 relations, so a 25 ms request never sweeps 20
// relations. Whether a sweep starts is then a function of its size and
// the time left. A sweep that fits only when the host runs fast would
// otherwise decide by timing whether the encoding's optimum memo gets
// filled, and with it how every later request on that encoding is served.
// It is a variable only so that tests can turn it off and reach the
// in-sweep prediction.
var dpStepCost = 3 * time.Nanosecond

// OptimalContext is Optimal under a context. The subset sweep polls the
// context periodically, so cancellation interrupts the table fill. When
// the context has a deadline the sweep also predicts its own finish from
// the inner-loop work done so far and the time it took on this host, and
// gives up as soon as that finish (padded by dpSafety) falls after the
// deadline, rather than spending the caller's whole budget on a plan it
// cannot deliver. Either way the error wraps the context's error, or
// context.DeadlineExceeded for a predicted overrun. A context that is
// already done, or whose deadline leaves less than the sweep's work at
// dpStepCost, returns before any table is allocated.
func OptimalContext(ctx context.Context, q *join.Query) (Result, error) {
	n := q.NumRelations()
	if n < 2 {
		return Result{}, fmt.Errorf("classical: need at least two relations, got %d", n)
	}
	if n > MaxDPRelations {
		return Result{}, fmt.Errorf("classical: %d relations exceeds DP limit %d", n, MaxDPRelations)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("classical: DP not started: %w", err)
	}
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline && !time.Now().Before(deadline) {
		return Result{}, fmt.Errorf("classical: DP not started: %w", context.DeadlineExceeded)
	}
	// work is the sweep's inner-loop iteration count, Σ popcount(s).
	work := float64(n) * float64(uint64(1)<<uint(n-1))
	if hasDeadline {
		if est := time.Duration(work * float64(dpStepCost) * dpSafety); time.Now().Add(est).After(deadline) {
			return Result{}, fmt.Errorf("classical: DP not started: %d relations take ~%v, more than the %v left: %w",
				n, est.Round(time.Microsecond), time.Until(deadline).Round(time.Microsecond), context.DeadlineExceeded)
		}
	}

	// nbr[a] holds the relations joined to a by some predicate, sel[a*n+b]
	// the product of the selectivities of those predicates.
	nbr := make([]uint64, n)
	sel := make([]float64, n*n)
	for i := range sel {
		sel[i] = 1
	}
	for _, p := range q.Predicates {
		nbr[p.R1] |= 1 << uint(p.R2)
		nbr[p.R2] |= 1 << uint(p.R1)
		sel[p.R1*n+p.R2] *= p.Sel
		sel[p.R2*n+p.R1] *= p.Sel
	}

	tables := getDPTables(n)
	defer putDPTables(n, tables)
	dp, card, last := tables.dp, tables.card, tables.last
	size := uint64(len(dp))
	card[0] = 1
	start := time.Now()
	for s := uint64(1); s < size; s++ {
		if s&dpPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("classical: DP interrupted after %d of %d subsets: %w", s, size, err)
			}
			if hasDeadline {
				// The clock is read directly: the context's timer may fire
				// late while the sweep holds the processor.
				now := time.Now()
				if !now.Before(deadline) {
					return Result{}, fmt.Errorf("classical: DP interrupted after %d of %d subsets: %w", s, size, context.DeadlineExceeded)
				}
				if done := popcountPrefix(s); done >= dpPredictAfter*work {
					left := time.Duration(float64(now.Sub(start)) / done * (work - done) * dpSafety)
					if finish := now.Add(left); finish.After(deadline) {
						return Result{}, fmt.Errorf("classical: DP after %d of %d subsets predicts its finish %v past the deadline: %w",
							s, size, finish.Sub(deadline).Round(time.Microsecond), context.DeadlineExceeded)
					}
				}
			}
		}
		// card(S) = card(S \ {low}) · card(low) · Π sel(low, i) over the
		// members i of S \ {low} that low joins.
		low := bits.TrailingZeros64(s)
		rest := s & (s - 1)
		c := card[rest] * q.Relations[low].Card
		for m := rest & nbr[low]; m != 0; m &= m - 1 {
			c *= sel[low*n+bits.TrailingZeros64(m)]
		}
		card[s] = c
		if rest == 0 { // singleton
			dp[s] = 0
			last[s] = -1
			continue
		}
		best, arg := math.Inf(1), int8(0)
		for m := s; m != 0; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			if v := dp[s&^(1<<uint(r))] + c; v < best {
				best, arg = v, int8(r)
			}
		}
		dp[s], last[s] = best, arg
	}
	full := size - 1
	order := make(join.Order, n)
	s := full
	for i := n - 1; i >= 1; i-- {
		r := int(last[s])
		order[i] = r
		s &^= 1 << uint(r)
	}
	// The remaining singleton is the first relation.
	order[0] = bits.TrailingZeros64(s)
	return Result{Order: order, Cost: dp[full]}, nil
}

// dpTables holds one sweep's tables. The sweep writes every entry it
// reads, so a reused set needs no clearing.
type dpTables struct {
	dp, card []float64
	last     []int8
}

// dpRetainRelations is the largest relation count whose tables are kept
// between sweeps: 17 MiB per set at 20 relations, ≤ 36 MiB over all sizes.
// Above it every sweep allocates its own set and drops it afterwards, so
// a 26-relation set (1.1 GiB) is never pinned.
const dpRetainRelations = 20

// dpTableSlots holds at most one idle table set per relation count. A
// fresh 20-relation set is 17 MiB that the kernel must fault in and the
// runtime zero before the first poll: measured at 10–15 ms on a 2-vCPU VM,
// longer than a tight deadline and invisible to the predictor. A retained
// set is reused as is, so that cost is paid once per process and size.
// Unlike a sync.Pool, whose per-P private slots can pin one set per
// processor and which drops idle sets at every other collection, a single
// slot holds one set that no collection frees. Concurrent sweeps of one
// size beyond the first allocate their own sets; the slot keeps one of
// them.
var dpTableSlots [dpRetainRelations + 1]atomic.Pointer[dpTables]

func getDPTables(n int) *dpTables {
	if n <= dpRetainRelations {
		if t := dpTableSlots[n].Swap(nil); t != nil {
			return t
		}
	}
	size := 1 << uint(n)
	return &dpTables{dp: make([]float64, size), card: make([]float64, size), last: make([]int8, size)}
}

func putDPTables(n int, t *dpTables) {
	if n <= dpRetainRelations {
		dpTableSlots[n].CompareAndSwap(nil, t)
	}
}

// popcountPrefix returns Σ popcount(k) over 0 ≤ k < s: the inner-loop
// iterations of the subsets the sweep has finished. Bit b is set in
// 2^b of every 2^(b+1) consecutive integers.
func popcountPrefix(s uint64) float64 {
	var sum uint64
	for b := uint(0); s>>b != 0; b++ {
		period := uint64(1) << (b + 1)
		sum += s / period << b
		if r := s % period; r > period/2 {
			sum += r - period/2
		}
	}
	return float64(sum)
}

// OptimalCost is a convenience wrapper returning only the optimal cost.
func OptimalCost(q *join.Query) (float64, error) {
	r, err := Optimal(q)
	if err != nil {
		return 0, err
	}
	return r.Cost, nil
}

// MaxExhaustiveRelations bounds Exhaustive; n! permutations beyond ~10
// relations are impractical.
const MaxExhaustiveRelations = 10

// Exhaustive enumerates every permutation and returns the cheapest order.
// Intended for validating Optimal in tests and for tiny instances.
func Exhaustive(q *join.Query) (Result, error) {
	n := q.NumRelations()
	if n < 2 {
		return Result{}, fmt.Errorf("classical: need at least two relations, got %d", n)
	}
	if n > MaxExhaustiveRelations {
		return Result{}, fmt.Errorf("classical: %d relations exceeds exhaustive limit %d", n, MaxExhaustiveRelations)
	}
	perm := make(join.Order, n)
	for i := range perm {
		perm[i] = i
	}
	best := Result{Cost: math.Inf(1)}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if c := q.Cost(perm); c < best.Cost {
				best.Cost = c
				best.Order = append(join.Order(nil), perm...)
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best, nil
}

// Greedy builds an order by repeatedly appending the relation that
// minimises the next intermediate result cardinality (min-selectivity
// greedy). It is a fast non-optimal baseline.
func Greedy(q *join.Query) Result {
	n := q.NumRelations()
	order := make(join.Order, 0, n)
	var mask uint64
	// Start with the pair producing the smallest first intermediate.
	bestI, bestJ, bestCard := -1, -1, math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// bestI == -1 guards degenerate cost arithmetic (all
			// candidates Inf): some pair must be picked regardless.
			if c := q.SetCard(1<<uint(i) | 1<<uint(j)); bestI == -1 || c < bestCard {
				bestI, bestJ, bestCard = i, j, c
			}
		}
	}
	order = append(order, bestI, bestJ)
	mask = 1<<uint(bestI) | 1<<uint(bestJ)
	cost := bestCard
	for len(order) < n {
		bestT, bestC := -1, math.Inf(1)
		for t := 0; t < n; t++ {
			if mask&(1<<uint(t)) != 0 {
				continue
			}
			if c := q.SetCard(mask | 1<<uint(t)); bestT == -1 || c < bestC {
				bestT, bestC = t, c
			}
		}
		order = append(order, bestT)
		mask |= 1 << uint(bestT)
		cost += bestC
	}
	return Result{Order: order, Cost: cost}
}

// IsOptimal reports whether the cost equals the optimal cost within a
// relative tolerance of 1e-9 (costs are derived from the same float
// arithmetic, so exact up to rounding).
func IsOptimal(q *join.Query, cost float64) (bool, error) {
	opt, err := OptimalCost(q)
	if err != nil {
		return false, err
	}
	return cost <= opt*(1+1e-9)+1e-12, nil
}
