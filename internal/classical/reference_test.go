package classical

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"quantumjoin/internal/join"
	"quantumjoin/internal/querygen"
)

// optimalRef is the plain form of the DP sweep, kept as ground truth for
// OptimalContext: every subset's cardinality comes from Query.SetCard and
// the inner loop visits all n relations. Same recurrence, same ascending-r
// strict-< tie-break, same order reconstruction.
func optimalRef(q *join.Query) Result {
	n := q.NumRelations()
	size := uint64(1) << uint(n)
	dp := make([]float64, size)
	last := make([]int8, size)
	for s := uint64(1); s < size; s++ {
		if bits.OnesCount64(s) == 1 {
			dp[s] = 0
			last[s] = -1
			continue
		}
		dp[s] = math.Inf(1)
		card := q.SetCard(s)
		for r := 0; r < n; r++ {
			if s&(1<<uint(r)) == 0 {
				continue
			}
			if c := dp[s&^(1<<uint(r))] + card; c < dp[s] {
				dp[s] = c
				last[s] = int8(r)
			}
		}
	}
	order := make(join.Order, n)
	s := size - 1
	for i := n - 1; i >= 1; i-- {
		r := int(last[s])
		order[i] = r
		s &^= 1 << uint(r)
	}
	order[0] = bits.TrailingZeros64(s)
	return Result{Order: order, Cost: dp[size-1]}
}

// minRelations is the smallest query querygen builds for a shape.
func minRelations(g querygen.GraphType) int {
	if g == querygen.Cycle {
		return 3
	}
	return 2
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestOptimalMatchesReference checks the incremental-cardinality sweep
// against optimalRef on every graph shape, with integer-log parameters
// (many exact cost ties) and continuous ones, with and without skew.
func TestOptimalMatchesReference(t *testing.T) {
	shapes := []querygen.GraphType{querygen.Chain, querygen.Star, querygen.Cycle, querygen.Clique, querygen.Tree}
	for _, g := range shapes {
		for _, integerLog := range []bool{true, false} {
			for _, skew := range []float64{0, 0.5} {
				name := fmt.Sprintf("%v/intlog=%v/skew=%v", g, integerLog, skew)
				t.Run(name, func(t *testing.T) {
					for n := minRelations(g); n <= 16; n++ {
						for seed := int64(1); seed <= 5; seed++ {
							cfg := querygen.Config{Relations: n, Graph: g, IntegerLog: integerLog, Skew: skew}
							if integerLog {
								cfg.MinLogCard, cfg.MaxLogCard, cfg.MinLogSel, cfg.MaxLogSel = 1, 3, 1, 2
							}
							q, err := querygen.Generate(cfg, rand.New(rand.NewSource(seed*100+int64(n))))
							if err != nil {
								t.Fatal(err)
							}
							got, err := Optimal(q)
							if err != nil {
								t.Fatal(err)
							}
							want := optimalRef(q)
							if !got.Order.IsPermutation(n) {
								t.Fatalf("n=%d seed=%d: order %v is not a permutation", n, seed, got.Order)
							}
							if !relClose(got.Cost, want.Cost, 1e-12) {
								t.Fatalf("n=%d seed=%d: cost %v, reference %v", n, seed, got.Cost, want.Cost)
							}
							if gc, wc := q.Cost(got.Order), q.Cost(want.Order); !relClose(gc, wc, 1e-12) {
								t.Fatalf("n=%d seed=%d: order %v costs %v, reference order %v costs %v",
									n, seed, got.Order, gc, want.Order, wc)
							}
						}
					}
				})
			}
		}
	}
}

// TestOptimalMatchesExhaustiveAllShapes checks the sweep against full
// permutation enumeration up to 9 relations.
func TestOptimalMatchesExhaustiveAllShapes(t *testing.T) {
	for _, g := range []querygen.GraphType{querygen.Chain, querygen.Star, querygen.Cycle, querygen.Clique, querygen.Tree} {
		for n := minRelations(g); n <= 9; n++ {
			q, err := querygen.Generate(querygen.Config{Relations: n, Graph: g}, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Optimal(q)
			if err != nil {
				t.Fatal(err)
			}
			exh, err := Exhaustive(q)
			if err != nil {
				t.Fatal(err)
			}
			if !relClose(got.Cost, exh.Cost, 1e-12) || !relClose(q.Cost(got.Order), exh.Cost, 1e-12) {
				t.Fatalf("%v n=%d: DP cost %v (order %v costs %v), exhaustive %v",
					g, n, got.Cost, got.Order, q.Cost(got.Order), exh.Cost)
			}
		}
	}
}

// TestOptimalContextHandlesDuplicatePredicates: two predicates on the same
// pair multiply, as in Query.SetCard.
func TestOptimalContextHandlesDuplicatePredicates(t *testing.T) {
	q := randomQuery(rand.New(rand.NewSource(9)), 7)
	q.Predicates = append(q.Predicates, q.Predicates[2], join.Predicate{R1: 6, R2: 0, Sel: 0.05})
	got, err := Optimal(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := optimalRef(q); !relClose(got.Cost, want.Cost, 1e-12) {
		t.Fatalf("cost %v, reference %v", got.Cost, want.Cost)
	}
}

func clique20(t testing.TB) *join.Query {
	q, err := querygen.Generate(querygen.Config{Relations: 20, Graph: querygen.Clique}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestPredictExpiredContext: a context whose deadline has passed returns
// before the tables are allocated.
func TestPredictExpiredContext(t *testing.T) {
	q := clique20(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	_, err := OptimalContext(ctx, q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired DP returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Millisecond {
		t.Errorf("expired DP took %v, want an immediate return", elapsed)
	}
}

// TestPredictOverrunReturnsEarly: a 20-relation clique cannot be swept in
// 5 ms, and the sweep must give up within deadline + 1 ms. One unbounded
// sweep runs first, as in a serving process that has already swept this
// size: a cold process also faults the 17 MiB tables in before the first
// poll, which no deadline check can interrupt (see getDPTables). Under
// race, sync.Pool drops a quarter of its Puts on purpose, so the warm-up
// cannot promise the timed sweep its tables and the test is skipped. go
// test runs packages in parallel, and a host saturated by another
// package's tests can deschedule the sweep for milliseconds, so the timed
// sweep gets five attempts; one that ignored the deadline would miss all
// five by tens of milliseconds.
func TestPredictOverrunReturnsEarly(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under race; the timed sweep may start cold")
	}
	q := clique20(t)
	if _, err := Optimal(q); err != nil {
		t.Fatal(err)
	}
	const budget = 5 * time.Millisecond
	var elapsed time.Duration
	for attempt := 0; attempt < 5; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		start := time.Now()
		_, err := OptimalContext(ctx, q)
		elapsed = time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("DP under a %v deadline returned %v, want context.DeadlineExceeded", budget, err)
		}
		if elapsed <= budget+time.Millisecond {
			return
		}
		t.Logf("attempt %d: DP gave up after %v", attempt+1, elapsed)
	}
	t.Errorf("DP gave up after %v, want within %v", elapsed, budget+time.Millisecond)
}

// TestPredictNoDeadlineCompletes: without a deadline nothing is predicted
// and the sweep always finishes, also when a far deadline admits it.
func TestPredictNoDeadlineCompletes(t *testing.T) {
	q := randomQuery(rand.New(rand.NewSource(5)), 18)
	want := optimalRef(q)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	far, cancelFar := context.WithTimeout(context.Background(), time.Hour)
	defer cancelFar()
	for _, c := range []context.Context{context.Background(), ctx, far} {
		got, err := OptimalContext(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(got.Cost, want.Cost, 1e-12) {
			t.Fatalf("cost %v, reference %v", got.Cost, want.Cost)
		}
	}
}

func TestPopcountPrefix(t *testing.T) {
	sum := 0
	for s := 0; s < 1<<12; s++ {
		if got := popcountPrefix(uint64(s)); got != float64(sum) {
			t.Fatalf("popcountPrefix(%d) = %v, want %d", s, got, sum)
		}
		sum += bits.OnesCount64(uint64(s))
	}
}

// BenchmarkOptimal times the full sweep; DESIGN.md's DP timing table
// comes from it.
func BenchmarkOptimal(b *testing.B) {
	for _, g := range []querygen.GraphType{querygen.Chain, querygen.Clique} {
		for _, n := range []int{14, 18, 20} {
			q, err := querygen.Generate(querygen.Config{Relations: n, Graph: g}, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%v/%d", g, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Optimal(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
