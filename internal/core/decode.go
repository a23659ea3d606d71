package core

import (
	"context"
	"fmt"
	"math"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/join"
)

// Decoded is the result of post-processing one QPU sample (§3.5).
type Decoded struct {
	// Valid reports whether the assignment unambiguously encodes a valid
	// left-deep join tree (exactly one distinct inner relation per join).
	Valid bool
	// Order is the decoded join order (only meaningful when Valid).
	Order join.Order
	// Cost is the exact C_out cost of Order (only meaningful when Valid).
	Cost float64
	// Energy is the QUBO objective value of the assignment.
	Energy float64
}

// Decode post-processes a sampled variable assignment following §3.5:
// instead of judging the sample by its penalty value (QPUs routinely
// violate some constraints), it inspects the tii variables, requires each
// join's inner operand to be represented by exactly one relation with all
// inner relations distinct, and derives the first outer relation by
// elimination. The assignment may cover either all QUBO variables
// (including slack bits) or just the decision variables.
func (e *Encoding) Decode(x []bool) Decoded {
	if len(x) < e.NumDecisionVars() {
		panic(fmt.Sprintf("core: assignment has %d variables, need at least %d", len(x), e.NumDecisionVars()))
	}
	d := Decoded{}
	if len(x) == e.QUBO.N() {
		d.Energy = e.QUBO.Value(x)
	}
	T := e.Query.NumRelations()
	J := e.Query.NumJoins()
	used := make([]bool, T)
	inner := make([]int, J)
	for j := 0; j < J; j++ {
		inner[j] = -1
		for t := 0; t < T; t++ {
			if !x[e.tii[t][j]] {
				continue
			}
			if inner[j] >= 0 {
				return d // ambiguous: two inner relations for one join
			}
			inner[j] = t
		}
		if inner[j] < 0 || used[inner[j]] {
			return d // missing or repeated inner relation
		}
		used[inner[j]] = true
	}
	first := -1
	for t := 0; t < T; t++ {
		if !used[t] {
			first = t
			break
		}
	}
	if first < 0 {
		return d
	}
	order := make(join.Order, 0, T)
	order = append(order, first)
	order = append(order, inner...)
	d.Valid = true
	d.Order = order
	d.Cost = e.Query.Cost(order)
	return d
}

// EncodeOrder produces the canonical feasible BILP assignment (decision
// variables only, slack bits excluded) representing a join order; the
// inverse of Decode for valid orders. cto variables are set to the minimal
// values satisfying the threshold constraints and pao variables to their
// maximal admissible values (which is what the optimiser would choose).
func (e *Encoding) EncodeOrder(o join.Order) ([]bool, error) {
	q := e.Query
	T := q.NumRelations()
	if !o.IsPermutation(T) {
		return nil, fmt.Errorf("core: order %v is not a permutation of %d relations", o, T)
	}
	J := q.NumJoins()
	x := make([]bool, e.NumDecisionVars())
	inOuter := make([]uint64, J) // mask of relations in outer operand of join j
	inOuter[0] = 1 << uint(o[0])
	for j := 1; j < J; j++ {
		inOuter[j] = inOuter[j-1] | 1<<uint(o[j])
	}
	// Choose pao assignments the way a solver would: predicates only help
	// (they lower c_j below thresholds), but the threshold constraints
	// only admit slacks for c_j >= 0 (Lemma 5.1 assumes non-negative
	// intermediate log-cardinalities), so predicates are applied greedily
	// while c_j stays non-negative. The resulting c_j per join drives the
	// cto activations.
	paoOn := make([][]bool, q.NumPredicates())
	for p := range paoOn {
		paoOn[p] = make([]bool, J)
	}
	cj := make([]float64, J)
	for j := 0; j < J; j++ {
		for t := 0; t < T; t++ {
			if inOuter[j]&(1<<uint(t)) != 0 {
				cj[j] += q.LogCard(t)
			}
		}
		for p, pred := range q.Predicates {
			m := inOuter[j]
			applicable := m&(1<<uint(pred.R1)) != 0 && m&(1<<uint(pred.R2)) != 0
			if applicable && cj[j]+q.LogSel(p) >= 0 {
				paoOn[p][j] = true
				cj[j] += q.LogSel(p)
			}
		}
	}
	for vi, info := range e.Infos {
		switch info.Kind {
		case TIO:
			x[vi] = inOuter[info.J]&(1<<uint(info.T)) != 0
		case TII:
			x[vi] = o[info.J+1] == info.T
		case PAO:
			x[vi] = paoOn[info.P][info.J]
		case CTO:
			// Activated iff the outer operand's (predicate-adjusted) log
			// cardinality exceeds the grid-snapped threshold.
			x[vi] = cj[info.J] > e.snappedLogThreshold(info.R)+1e-12
		}
	}
	return x, nil
}

// ApproxCost evaluates the threshold-approximated cost the objective
// charges for a join order: Σ_{r,j} θ_r whenever the outer operand of join
// j exceeds θ_r. This is the quantity the QUBO actually minimises; Decode
// reports the exact C_out cost for comparison (Example 3.3 discusses the
// gap).
func (e *Encoding) ApproxCost(o join.Order) (float64, error) {
	x, err := e.EncodeOrder(o)
	if err != nil {
		return 0, err
	}
	cost := 0.0
	for vi, info := range e.Infos {
		if info.Kind == CTO && x[vi] {
			if e.Opts.LogObjective {
				cost += math.Log10(e.Opts.Thresholds[info.R])
			} else {
				cost += e.Opts.Thresholds[info.R]
			}
		}
	}
	return cost, nil
}

// BestValid scans a set of samples, decodes each, and returns the decoded
// solution with the lowest exact cost among valid ones together with the
// number of valid samples; ok is false when no sample is valid. This is
// the paper's final post-processing step ("determine the best join order
// among all valid solutions").
func (e *Encoding) BestValid(samples [][]bool) (best Decoded, valid int, ok bool) {
	for _, s := range samples {
		d := e.Decode(s)
		if !d.Valid {
			continue
		}
		valid++
		if !ok || d.Cost < best.Cost {
			best = d
			ok = true
		}
	}
	return best, valid, ok
}

// Decoder decodes samples without per-call allocations: the per-decode
// scratch (used marks, inner picks, order buffers) lives on the Decoder
// and is reused across calls, growing only when a larger encoding shows
// up. A Decoder is not safe for concurrent use; pool instances instead of
// sharing one. The zero value is ready to use.
type Decoder struct {
	used  []bool
	inner []int
	cur   Decoded // scratch for the candidate being decoded
}

// grow sizes the scratch for an encoding with T relations and J joins.
func (dec *Decoder) grow(t, j int) {
	if cap(dec.used) < t {
		dec.used = make([]bool, t)
	}
	dec.used = dec.used[:t]
	for i := range dec.used {
		dec.used[i] = false
	}
	if cap(dec.inner) < j {
		dec.inner = make([]int, j)
	}
	dec.inner = dec.inner[:j]
}

// DecodeInto is Encoding.Decode writing its result into *d, reusing
// d.Order's backing array when it has capacity. On invalid samples d is
// reset to the zero Decoded (with Energy, like Decode).
func (dec *Decoder) DecodeInto(e *Encoding, x []bool, d *Decoded) {
	if len(x) < e.NumDecisionVars() {
		panic(fmt.Sprintf("core: assignment has %d variables, need at least %d", len(x), e.NumDecisionVars()))
	}
	d.Valid = false
	d.Order = d.Order[:0]
	d.Cost = 0
	d.Energy = 0
	if len(x) == e.QUBO.N() {
		d.Energy = e.QUBO.Value(x)
	}
	T := e.Query.NumRelations()
	J := e.Query.NumJoins()
	dec.grow(T, J)
	for j := 0; j < J; j++ {
		dec.inner[j] = -1
		for t := 0; t < T; t++ {
			if !x[e.tii[t][j]] {
				continue
			}
			if dec.inner[j] >= 0 {
				return // ambiguous: two inner relations for one join
			}
			dec.inner[j] = t
		}
		if dec.inner[j] < 0 || dec.used[dec.inner[j]] {
			return // missing or repeated inner relation
		}
		dec.used[dec.inner[j]] = true
	}
	first := -1
	for t := 0; t < T; t++ {
		if !dec.used[t] {
			first = t
			break
		}
	}
	if first < 0 {
		return
	}
	d.Order = append(d.Order, first)
	for _, t := range dec.inner {
		d.Order = append(d.Order, t)
	}
	d.Valid = true
	d.Cost = e.Query.Cost(d.Order)
}

// BestValidInto is BestValid with Decoder scratch reuse: *best receives
// the cheapest valid decode (its Order backing array is reused). ok is
// false — and *best is left untouched — when no sample is valid.
func (dec *Decoder) BestValidInto(e *Encoding, samples [][]bool, best *Decoded) (valid int, ok bool) {
	for _, s := range samples {
		dec.DecodeInto(e, s, &dec.cur)
		if !dec.cur.Valid {
			continue
		}
		valid++
		if !ok || dec.cur.Cost < best.Cost {
			// Swap buffers instead of copying: cur's order becomes the
			// best, and best's old backing array is recycled as scratch.
			dec.cur, *best = *best, dec.cur
			ok = true
		}
	}
	return valid, ok
}

// Optimal is OptimalContext without a deadline.
func (e *Encoding) Optimal() (classical.Result, error) {
	res, _, err := e.OptimalContext(context.Background())
	return res, err
}

// OptimalContext returns the classical DP optimum of the encoded query
// and whether it came from the encoding's memo. An encoding held in the
// service's LRU cache therefore pays for the exponential DP once per query
// shape, not once per request, and an evicted encoding drops its optimum
// with it; since plan costs are invariant under relation relabelling, the
// memoised cost is also the optimum of every query that canonicalises to
// this encoding. A hit returns the stored result whatever ctx's state. A
// miss sweeps under ctx with no lock held (two concurrent misses both
// sweep and store the same result) and stores the result only when the
// sweep completed: the sweep errors whenever it was cut short, by
// cancellation, by the deadline or by a predicted overrun, so the memo
// never depends on the deadline of the request that filled it. Every
// caller gets its own copy of the order.
func (e *Encoding) OptimalContext(ctx context.Context) (res classical.Result, reused bool, err error) {
	if m := e.optPtr.Load(); m != nil {
		return classical.Result{Order: append(join.Order(nil), m.Order...), Cost: m.Cost}, true, nil
	}
	if res, err = classical.OptimalContext(ctx, e.Query); err != nil {
		return classical.Result{}, false, err
	}
	e.optPtr.Store(&classical.Result{Order: append(join.Order(nil), res.Order...), Cost: res.Cost})
	return res, false, nil
}

// IsOptimal reports whether a decoded solution attains the classical
// optimum of the underlying query (cached, see Optimal).
func (e *Encoding) IsOptimal(d Decoded) (bool, error) {
	if !d.Valid {
		return false, nil
	}
	opt, err := e.Optimal()
	if err != nil {
		return false, err
	}
	return d.Cost <= opt.Cost*(1+1e-9)+1e-12, nil
}
