package decomp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

func genQuery(t testing.TB, n int, g querygen.GraphType, seed int64) *join.Query {
	t.Helper()
	q, err := querygen.Generate(querygen.Config{Relations: n, Graph: g},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

var shapes = []querygen.GraphType{querygen.Chain, querygen.Star, querygen.Clique, querygen.Tree}

// connected reports whether the part is connected over the query's
// part-internal predicate edges.
func connected(q *join.Query, part []int) bool {
	if len(part) <= 1 {
		return true
	}
	in := make(map[int]bool, len(part))
	for _, v := range part {
		in[v] = true
	}
	adj := make(map[int][]int)
	for _, p := range q.Predicates {
		if in[p.R1] && in[p.R2] {
			adj[p.R1] = append(adj[p.R1], p.R2)
			adj[p.R2] = append(adj[p.R2], p.R1)
		}
	}
	seen := map[int]bool{part[0]: true}
	stack := []int{part[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return len(seen) == len(part)
}

func TestPartitionInvariants(t *testing.T) {
	for _, g := range shapes {
		for _, n := range []int{12, 30, 47, 60} {
			for _, budget := range []int{4, 10, 16} {
				q := genQuery(t, n, g, int64(n*100+budget))
				p, err := PartitionQuery(q, budget)
				if err != nil {
					t.Fatalf("%v n=%d budget=%d: %v", g, n, budget, err)
				}
				seen := make([]bool, n)
				for pi, part := range p.Parts {
					if len(part) == 0 || len(part) > budget {
						t.Fatalf("%v n=%d budget=%d: part %d has %d relations", g, n, budget, pi, len(part))
					}
					for _, v := range part {
						if seen[v] {
							t.Fatalf("%v n=%d: relation %d in two parts", g, n, v)
						}
						seen[v] = true
						if p.PartOf[v] != pi {
							t.Fatalf("%v n=%d: PartOf[%d]=%d, want %d", g, n, v, p.PartOf[v], pi)
						}
					}
					if !connected(q, part) {
						t.Fatalf("%v n=%d budget=%d: part %d %v is disconnected", g, n, budget, pi, part)
					}
				}
				for v, ok := range seen {
					if !ok {
						t.Fatalf("%v n=%d: relation %d unassigned", g, n, v)
					}
				}
				// Deterministic: same query and budget, same partition.
				p2, err := PartitionQuery(q, budget)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p.Parts, p2.Parts) {
					t.Fatalf("%v n=%d budget=%d: partition not deterministic", g, n, budget)
				}
			}
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	q := genQuery(t, 8, querygen.Chain, 1)
	if _, err := PartitionQuery(q, 0); err == nil {
		t.Fatal("budget 0 accepted")
	}
	if _, err := PartitionQuery(&join.Query{}, 4); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestContractComposites(t *testing.T) {
	q := genQuery(t, 24, querygen.Tree, 7)
	p, err := PartitionQuery(q, 6)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := contract(q, p.Parts)
	if err != nil {
		t.Fatal(err)
	}
	if cq.NumRelations() != len(p.Parts) {
		t.Fatalf("contracted to %d relations, want %d parts", cq.NumRelations(), len(p.Parts))
	}
	for i, r := range cq.Relations {
		if r.Card < 1 {
			t.Fatalf("composite %d has cardinality %v < 1", i, r.Card)
		}
	}
	// A tree stays a tree under contraction of connected parts: exactly
	// parts-1 cross edges.
	if len(cq.Predicates) != len(p.Parts)-1 {
		t.Fatalf("contracted tree has %d predicates, want %d", len(cq.Predicates), len(p.Parts)-1)
	}
}

// TestStitchedPlansValidAndNeverWorseThanGreedy is the subsystem's core
// property: across graph shapes, sizes well past the monolithic limit, and
// seeds, the decomposed plan is a valid permutation whose true cost never
// exceeds the global greedy plan's.
func TestStitchedPlansValidAndNeverWorseThanGreedy(t *testing.T) {
	b := New(7)
	for _, g := range shapes {
		for _, n := range []int{20, 34, 41} {
			for seed := int64(0); seed < 2; seed++ {
				q := genQuery(t, n, g, seed*1000+int64(n))
				d, err := b.SolveQuery(context.Background(), q, service.Params{Seed: seed})
				if err != nil {
					t.Fatalf("%v n=%d seed=%d: %v", g, n, seed, err)
				}
				if !d.Order.IsPermutation(n) {
					t.Fatalf("%v n=%d seed=%d: order %v is not a permutation", g, n, seed, d.Order)
				}
				greedy := classical.Greedy(q)
				if d.Cost > greedy.Cost*(1+1e-12) {
					t.Fatalf("%v n=%d seed=%d: decomp cost %g worse than greedy %g",
						g, n, seed, d.Cost, greedy.Cost)
				}
				if got := q.Cost(d.Order); got != d.Cost {
					t.Fatalf("%v n=%d seed=%d: reported cost %g != recomputed %g", g, n, seed, d.Cost, got)
				}
			}
		}
	}
}

// TestSolvesBeyondMonolithicLimit pins the headline capability: a query the
// monolithic encoder rejects outright is solved end-to-end by decomp.
func TestSolvesBeyondMonolithicLimit(t *testing.T) {
	n := 40
	q := genQuery(t, n, querygen.Chain, 9)
	if _, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 3)}); err == nil {
		t.Fatalf("monolithic encode of %d relations unexpectedly succeeded", n)
	}
	d, err := New(10).SolveQuery(context.Background(), q, service.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Valid || !d.Order.IsPermutation(n) {
		t.Fatalf("invalid decomposed plan: %+v", d)
	}
}

// TestPartBudgetOverride checks Params.Decomp.PartBudget steers the
// partitioner per request.
func TestPartBudgetOverride(t *testing.T) {
	q := genQuery(t, 36, querygen.Chain, 3)
	p, err := PartitionQuery(q, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range p.Parts {
		if len(part) > 6 {
			t.Fatalf("part exceeds budget: %v", part)
		}
	}
	p2, err := PartitionQuery(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Parts) >= len(p.Parts) {
		t.Fatalf("larger budget produced %d parts, smaller produced %d", len(p2.Parts), len(p.Parts))
	}
}

// TestSolveOnEncoding exercises the plain service.Backend entry point: a
// monolithic-sized encoding is still solved via decomposition, and the
// decoded order must be valid for the encoding's query.
func TestSolveOnEncoding(t *testing.T) {
	q := genQuery(t, 12, querygen.Star, 5)
	enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 3)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(5).Solve(context.Background(), enc, service.Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Valid || !d.Order.IsPermutation(12) {
		t.Fatalf("invalid decoded plan: %+v", d)
	}
	if greedy := classical.Greedy(q); d.Cost > greedy.Cost*(1+1e-12) {
		t.Fatalf("cost %g worse than greedy %g", d.Cost, greedy.Cost)
	}
}

// TestSinglePartIsOptimal: a query whose whole graph fits one part is
// planned by one exact DP sweep, so decomp returns classical.Optimal's
// cost.
func TestSinglePartIsOptimal(t *testing.T) {
	for _, g := range shapes {
		for _, n := range []int{3, 9, 16, maxPartDP} {
			q := genQuery(t, n, g, int64(n))
			opt, err := classical.Optimal(q)
			if err != nil {
				t.Fatal(err)
			}
			d, err := New(maxPartDP).SolveQuery(context.Background(), q, service.Params{})
			if err != nil {
				t.Fatalf("%v n=%d: %v", g, n, err)
			}
			// The sweep sums its cost in another order than join.Query.Cost,
			// so compare against the optimal order costed the same way.
			if want := q.Cost(opt.Order); d.Cost != want {
				t.Fatalf("%v n=%d: decomp cost %v, DP optimum %v", g, n, d.Cost, want)
			}
		}
	}
}

// relabel returns q with relation i moved to position perm[i].
func relabel(q *join.Query, perm []int) *join.Query {
	rq := &join.Query{Relations: make([]join.Relation, len(perm))}
	for i, r := range q.Relations {
		rq.Relations[perm[i]] = r
	}
	for _, p := range q.Predicates {
		rq.Predicates = append(rq.Predicates, join.Predicate{R1: perm[p.R1], R2: perm[p.R2], Sel: p.Sel})
	}
	return rq
}

// TestRelabelledQuerySameCost: served through the service, which hands the
// backend the query's canonical relabelling, the plan's cost does not
// depend on how the client numbered the relations — also on the
// integer-log instances, whose many equal cardinalities and selectivities
// leave the partitioner and greedy with ties to break by index.
func TestRelabelledQuerySameCost(t *testing.T) {
	reg := service.NewRegistry()
	if err := reg.Register(New(8)); err != nil {
		t.Fatal(err)
	}
	svc := service.New(reg, service.Config{Workers: 1, DefaultBackend: Name})
	defer svc.Close(context.Background())
	for _, integerLog := range []bool{false, true} {
		for _, g := range shapes {
			for _, n := range []int{14, 30, 45} {
				cfg := querygen.Config{Relations: n, Graph: g}
				if integerLog {
					cfg = querygen.Config{Relations: n, Graph: g, IntegerLog: true,
						MinLogCard: 1, MaxLogCard: 3, MinLogSel: 1, MaxLogSel: 2}
				}
				for seed := int64(0); seed < 3; seed++ {
					q, err := querygen.Generate(cfg, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					rq := relabel(q, rand.New(rand.NewSource(seed+100)).Perm(n))
					resp, err := svc.Optimize(context.Background(), &service.Request{Query: q, Lean: true})
					if err != nil {
						t.Fatal(err)
					}
					rresp, err := svc.Optimize(context.Background(), &service.Request{Query: rq, Lean: true})
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(rresp.Cost-resp.Cost) > 1e-9*resp.Cost {
						t.Fatalf("integer-log %v, %v n=%d seed=%d: relabelled cost %v, original %v",
							integerLog, g, n, seed, rresp.Cost, resp.Cost)
					}
				}
			}
		}
	}
}

// TestExpiredContextStillPlans: with no time left no DP sweep starts, yet
// the answer is still a valid plan no worse than greedy.
func TestExpiredContextStillPlans(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, g := range shapes {
		q := genQuery(t, 40, g, 2)
		d, err := New(10).SolveQuery(ctx, q, service.Params{})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if !d.Order.IsPermutation(40) {
			t.Fatalf("%v: order %v is not a permutation", g, d.Order)
		}
		if greedy := classical.Greedy(q); d.Cost > greedy.Cost {
			t.Fatalf("%v: cost %g worse than greedy %g", g, d.Cost, greedy.Cost)
		}
	}
}
