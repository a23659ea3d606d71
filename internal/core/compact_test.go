package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/join"
	"quantumjoin/internal/querygen"
)

func compactPair(t *testing.T, q *join.Query, r int) (std, cmp *Encoding) {
	t.Helper()
	th := DefaultThresholds(q, r)
	std, err := Encode(q, Options{Thresholds: th, Omega: 1})
	if err != nil {
		t.Fatalf("standard encode: %v", err)
	}
	cmp, err = Encode(q, Options{Thresholds: th, Omega: 1, Compact: true})
	if err != nil {
		t.Fatalf("compact encode: %v", err)
	}
	return std, cmp
}

// The compact encoding must drop exactly T·(J−1) decision variables (the
// eliminated tio[t][j>0] columns) and all T·(J−1) recursion constraints,
// and therefore strictly fewer qubits on any query with 3+ relations.
func TestCompactVariableReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{3, 5, 8, 10} {
		for g := querygen.GraphType(0); g < 4; g++ {
			q, err := querygen.Generate(querygen.Config{
				Relations: n, Graph: g, IntegerLog: true,
				MinLogCard: 1, MaxLogCard: 3, MinLogSel: 1, MaxLogSel: 2,
			}, rng)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			std, cmp := compactPair(t, q, 2)
			wantDrop := n * (q.NumJoins() - 1)
			gotDrop := std.NumDecisionVars() - cmp.NumDecisionVars()
			if gotDrop != wantDrop {
				t.Errorf("n=%d %v: decision var drop = %d, want %d", n, g, gotDrop, wantDrop)
			}
			if cmp.NumQubits() >= std.NumQubits() {
				t.Errorf("n=%d %v: compact qubits %d not below standard %d", n, g, cmp.NumQubits(), std.NumQubits())
			}
			if got, want := len(cmp.MILP.Cons), len(std.MILP.Cons)-n*(q.NumJoins()-1); got != want {
				t.Errorf("n=%d %v: compact constraints = %d, want %d", n, g, got, want)
			}
		}
	}
}

// Equivalence on small instances: branch-and-bound over the compact MILP
// must reach the same optimum as over the standard MILP, and both must
// equal the classical DP optimum — the decoded orders cost bit-identically.
func TestCompactMILPOptimumMatchesStandardAndDP(t *testing.T) {
	gen := func(n int, g querygen.GraphType, rng *rand.Rand) *join.Query {
		q, err := querygen.Generate(querygen.Config{
			Relations: n, Graph: g, IntegerLog: true,
			MinLogCard: 1, MaxLogCard: 3, MinLogSel: 1, MaxLogSel: 2,
		}, rng)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		return q
	}
	type instance struct {
		n int
		g querygen.GraphType
		q *join.Query
	}
	var cases []instance
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 5} {
		for g := querygen.GraphType(0); g < 4; g++ {
			cases = append(cases, instance{n, g, gen(n, g, rng)})
		}
	}
	// Plus the 5-relation chain and star drawn from a fresh seed-5
	// generator each: the instances CI gates the compact encoding on.
	for _, g := range []querygen.GraphType{querygen.Chain, querygen.Star} {
		cases = append(cases, instance{5, g, gen(5, g, rand.New(rand.NewSource(5)))})
	}
	for _, c := range cases {
		n, g, q := c.n, c.g, c.q
		std, cmp := compactPair(t, q, 3)
		ds, err := std.SolveMILP()
		if err != nil {
			t.Fatalf("standard MILP solve: %v", err)
		}
		dc, err := cmp.SolveMILP()
		if err != nil {
			t.Fatalf("compact MILP solve: %v", err)
		}
		if !ds.Valid || !dc.Valid {
			t.Fatalf("n=%d %v: MILP solutions not valid (std %v, compact %v)", n, g, ds.Valid, dc.Valid)
		}
		as, err := std.ApproxCost(ds.Order)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := cmp.ApproxCost(dc.Order)
		if err != nil {
			t.Fatal(err)
		}
		// Both encodings minimise the same threshold-approximated
		// objective; their optima must agree bit-identically.
		if as != ac {
			t.Errorf("n=%d %v: approx optimum differs: standard %v, compact %v", n, g, as, ac)
		}
		// Each decoded order must either attain the exact DP optimum
		// or tie the DP-optimal order on the approximated objective
		// (the threshold grid can alias orders; both encodings then
		// legitimately pick any tied order).
		opt, err := classical.Optimal(q)
		if err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string]struct {
			e *Encoding
			d Decoded
		}{"standard": {std, ds}, "compact": {cmp, dc}} {
			ok, err := pair.e.IsOptimal(pair.d)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				continue
			}
			ao, err := pair.e.ApproxCost(opt.Order)
			if err != nil {
				t.Fatal(err)
			}
			ad, err := pair.e.ApproxCost(pair.d.Order)
			if err != nil {
				t.Fatal(err)
			}
			if ad != ao {
				t.Errorf("n=%d %v: %s optimum cost %v (approx %v) vs DP %v (approx %v)",
					n, g, name, pair.d.Cost, ad, opt.Cost, ao)
			}
		}
	}
}

// Exhaustive-energy equivalence: enumerating every join order, the QUBO
// energy argmin of the compact encoding decodes to the same exact cost as
// the standard encoding's argmin and the DP optimum (bit-identical costs).
func TestCompactEnergyArgminMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{4, 6} {
		for g := querygen.GraphType(0); g < 4; g++ {
			q, err := querygen.Generate(querygen.Config{
				Relations: n, Graph: g, IntegerLog: true,
				MinLogCard: 1, MaxLogCard: 3, MinLogSel: 1, MaxLogSel: 2,
			}, rng)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			_, cmp := compactPair(t, q, 4)
			best := Decoded{}
			bestEnergy := math.Inf(1)
			perm := make(join.Order, n)
			var rec func(depth int, used uint64)
			rec = func(depth int, used uint64) {
				if depth == n {
					o := append(join.Order(nil), perm...)
					x, err := cmp.EncodeOrder(o)
					if err != nil {
						t.Fatal(err)
					}
					full, err := cmp.CompleteSlacks(x)
					if err != nil {
						t.Fatal(err)
					}
					d := cmp.Decode(full)
					if !d.Valid {
						t.Fatalf("round-trip decode invalid for %v", o)
					}
					if d.Order.IsPermutation(n) == false {
						t.Fatalf("decoded order %v not a permutation", d.Order)
					}
					for i := range o {
						if d.Order[i] != o[i] {
							t.Fatalf("decode(%v) = %v", o, d.Order)
						}
					}
					if d.Energy < bestEnergy {
						bestEnergy = d.Energy
						best = d
					}
					return
				}
				for t0 := 0; t0 < n; t0++ {
					if used&(1<<uint(t0)) != 0 {
						continue
					}
					perm[depth] = t0
					rec(depth+1, used|1<<uint(t0))
				}
			}
			rec(0, 0)
			opt, err := classical.Optimal(q)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := cmp.IsOptimal(best)
			if err != nil {
				t.Fatal(err)
			}
			// With 4 thresholds on these tiny integer-log instances the
			// approximation is fine enough that the energy argmin lands on
			// a DP-optimal order; if the grid ever aliases two orders the
			// argmin must still tie the optimum's approximated cost.
			if !ok {
				ae, err := cmp.ApproxCost(best.Order)
				if err != nil {
					t.Fatal(err)
				}
				ao, err := cmp.ApproxCost(opt.Order)
				if err != nil {
					t.Fatal(err)
				}
				if ae != ao {
					t.Errorf("n=%d %v: energy argmin cost %v (approx %v) vs DP %v (approx %v)",
						n, g, best.Cost, ae, opt.Cost, ao)
				}
			}
		}
	}
}

// Property: any join order encodes to a zero-residual compact assignment
// whose QUBO energy is exactly B·ApproxCost — the compact constraint
// penalty vanishes on every valid order, as in the standard encoding.
func TestQuickCompactEncodeOrderZeroPenalty(t *testing.T) {
	f := func(seed int64, nRaw, gRaw, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw%5) // 3..7 relations
		g := querygen.GraphType(gRaw % 4)
		r := 1 + int(rRaw%3)
		q, err := querygen.Generate(querygen.Config{
			Relations: n, Graph: g, IntegerLog: true,
			MinLogCard: 1, MaxLogCard: 3, MinLogSel: 1, MaxLogSel: 2,
		}, rng)
		if err != nil {
			return true
		}
		enc, err := Encode(q, Options{Thresholds: DefaultThresholds(q, r), Omega: 1, Compact: true})
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		order := join.Order(rng.Perm(n))
		x, err := enc.EncodeOrder(order)
		if err != nil {
			t.Logf("encode order: %v", err)
			return false
		}
		if !enc.FeasibleMILP(x, 1e-9) {
			t.Logf("order %v infeasible under compact encoding", order)
			return false
		}
		full, err := enc.CompleteSlacks(x)
		if err != nil {
			t.Logf("complete slacks: %v", err)
			return false
		}
		for _, res := range enc.Residuals(full) {
			if res > 1e-9 {
				t.Logf("residual %v", res)
				return false
			}
		}
		approx, err := enc.ApproxCost(order)
		if err != nil {
			return false
		}
		energy := enc.QUBO.Value(full)
		tol := 1e-9 * (1 + math.Abs(enc.PenaltyA))
		if math.Abs(energy-enc.PenaltyB*approx) > tol {
			t.Logf("energy %v != B·approx %v", energy, enc.PenaltyB*approx)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
