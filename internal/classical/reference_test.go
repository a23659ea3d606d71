package classical

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
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

// TestPredictBeforeStart: a deadline that leaves less than the sweep's
// work at dpStepCost returns at once with the context still live and the
// idle tables untouched. 20 relations under 25 ms never start, however
// fast the host runs.
func TestPredictBeforeStart(t *testing.T) {
	q := clique20(t)
	if _, err := Optimal(q); err != nil {
		t.Fatal(err)
	}
	kept := dpTableSlots[20].Load()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := OptimalContext(ctx, q)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
		t.Fatalf("DP under a 25 ms deadline returned %v with context error %v, want a predicted overrun", err, ctx.Err())
	}
	if elapsed > time.Millisecond {
		t.Errorf("DP under a 25 ms deadline took %v to give up, want an immediate return", elapsed)
	}
	if dpTableSlots[20].Load() != kept {
		t.Error("a sweep that did not start took the idle tables")
	}
}

// TestPredictOverrunReturnsEarly: a 20-relation clique cannot be swept in
// 5 ms, and the sweep must give up within deadline + 1 ms. dpStepCost is
// off, so the sweep starts and its in-sweep prediction must stop it. One
// unbounded sweep runs first, as in a serving process that has already
// swept this size: it leaves its tables in the idle slot, whereas a cold
// process also faults the 17 MiB tables in before the first poll, which
// no deadline check can interrupt (see dpTableSlots). go test runs
// packages in parallel, and a host saturated by another package's tests
// can deschedule the sweep for milliseconds, so the timed sweep gets five
// attempts; one that ignored the deadline would miss all five by tens of
// milliseconds.
func TestPredictOverrunReturnsEarly(t *testing.T) {
	defer func(c time.Duration) { dpStepCost = c }(dpStepCost)
	dpStepCost = 0
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

// TestDPTablesSurviveGC: the tables of a 20-relation sweep stay in their
// slot across collections, and the next sweep of that size reuses them.
func TestDPTablesSurviveGC(t *testing.T) {
	q := clique20(t)
	if _, err := Optimal(q); err != nil {
		t.Fatal(err)
	}
	kept := dpTableSlots[20].Load()
	if kept == nil {
		t.Fatal("a 20-relation sweep left no idle table set")
	}
	runtime.GC()
	runtime.GC()
	if dpTableSlots[20].Load() != kept {
		t.Fatal("the idle 20-relation table set did not survive two collections")
	}
	if _, err := Optimal(q); err != nil {
		t.Fatal(err)
	}
	if dpTableSlots[20].Load() != kept {
		t.Fatal("the next 20-relation sweep did not reuse the idle table set")
	}
}

// TestDPTablesNotRetainedAbove20: a set above dpRetainRelations is
// dropped after its sweep, never kept for the next.
func TestDPTablesNotRetainedAbove20(t *testing.T) {
	const n = dpRetainRelations + 1
	small := &dpTables{}
	putDPTables(n, small)
	got := getDPTables(n)
	if got == small {
		t.Fatalf("a %d-relation table set was retained", n)
	}
	if len(got.dp) != 1<<n || len(got.card) != 1<<n || len(got.last) != 1<<n {
		t.Fatalf("fresh %d-relation set has tables of %d, %d, %d entries, want %d",
			n, len(got.dp), len(got.card), len(got.last), 1<<n)
	}
}

// TestDPTablesNeverShared: concurrent sweeps of one size each hold their
// own table set — the slot hands its set to one of them — and each
// returns the reference optimum of its own query.
func TestDPTablesNeverShared(t *testing.T) {
	const n, sweeps = 14, 4
	first, second := getDPTables(n), getDPTables(n)
	if first == second {
		t.Fatal("two gets without a put returned the same table set")
	}
	putDPTables(n, first)
	putDPTables(n, second)
	if got := getDPTables(n); got != first {
		t.Fatal("the slot did not keep the first idle set")
	}
	if got := getDPTables(n); got == first {
		t.Fatal("the slot handed its set out twice")
	}

	queries := make([]*join.Query, sweeps)
	for i := range queries {
		queries[i] = randomQuery(rand.New(rand.NewSource(int64(40+i))), n)
	}
	results := make([]Result, sweeps)
	errs := make([]error, sweeps)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 3 && errs[i] == nil; k++ {
				results[i], errs[i] = Optimal(queries[i])
			}
		}(i)
	}
	wg.Wait()
	for i, q := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if want := optimalRef(q); !relClose(results[i].Cost, want.Cost, 1e-12) || !results[i].Order.IsPermutation(n) {
			t.Errorf("sweep %d: order %v cost %v, reference %v", i, results[i].Order, results[i].Cost, want.Cost)
		}
	}
}
