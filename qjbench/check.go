package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"quantumjoin/internal/join"
)

// costTol is the relative tolerance of cost comparisons: costs are sums
// of products of cardinalities and selectivities, so two evaluations of
// the same order may differ in the last bits.
const costTol = 1e-9

func relName(q *join.Query, t int) string {
	if n := q.Relations[t].Name; n != "" {
		return n
	}
	return fmt.Sprintf("R%d", t)
}

// answer is one checked plan.
type answer struct {
	order    join.Order
	cost     float64
	optimal  bool
	ratio    float64 // cost ÷ optimum
	degraded bool
	// labelWorse marks a hybrid answer worse than greedy on the request's
	// own labelling (but not on the canonical one).
	labelWorse bool
}

// checkAnswer verifies one answered item: the order is a permutation of
// the request's relations, the reported cost is the order's cost, no
// cost beats the DP optimum, dp answers are optimal, and hybrid answers
// are no worse than greedy.
func checkAnswer(it *item, names []string, cost float64, degraded bool) (answer, error) {
	q := it.query
	n := len(q.Relations)
	if len(names) != n {
		return answer{}, fmt.Errorf("order has %d relations, query has %d", len(names), n)
	}
	index := make(map[string]int, n)
	for t := range q.Relations {
		index[relName(q, t)] = t
	}
	order := make(join.Order, n)
	for i, name := range names {
		t, ok := index[name]
		if !ok {
			return answer{}, fmt.Errorf("order names unknown relation %q", name)
		}
		order[i] = t
	}
	if !order.IsPermutation(n) {
		return answer{}, fmt.Errorf("order %v is not a permutation of %d relations", names, n)
	}
	actual := q.Cost(order)
	if !near(actual, cost) {
		return answer{}, fmt.Errorf("reported cost %g, order costs %g", cost, actual)
	}
	if actual < it.optimum*(1-costTol) {
		return answer{}, fmt.Errorf("cost %g below the DP optimum %g", actual, it.optimum)
	}
	optimal := actual <= it.optimum*(1+costTol)
	if it.backend == "dp" && !optimal {
		return answer{}, fmt.Errorf("dp answer cost %g, optimum %g", actual, it.optimum)
	}
	if it.backend == "hybrid" && actual > it.greedy*(1+costTol) {
		return answer{}, fmt.Errorf("hybrid answer cost %g worse than greedy %g", actual, it.greedy)
	}
	return answer{
		order: order, cost: actual, optimal: optimal, ratio: actual / it.optimum, degraded: degraded,
		labelWorse: it.backend == "hybrid" && actual > it.labelGreedy*(1+costTol),
	}, nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= costTol*math.Max(math.Abs(a), math.Abs(b))
}

// digest accumulates the plans of the warm-up pass, in distinct-request
// order, so two runs of the same code and seed can be compared.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(a answer) {
	var buf [8]byte
	for _, t := range a.order {
		binary.LittleEndian.PutUint64(buf[:], uint64(t))
		d.h.Write(buf[:])
	}
	d.h.Write([]byte{0xff})
}

func (d *digest) hex() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:8]) }
