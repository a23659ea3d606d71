// Package join models the join ordering (JO) problem domain: queries over
// relations with binary join predicates, left-deep join trees, and the
// classic C_out cost function of Cluet and Moerkotte that the paper's QUBO
// formulation targets.
//
// A join order for n relations is a permutation s_1 ... s_n interpreted as
// the left-deep tree (...((s_1 ⋈ s_2) ⋈ s_3)... ⋈ s_n). Cross products are
// permitted: a join step without an applicable predicate multiplies
// cardinalities.
package join

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Relation is a base relation with a name and cardinality.
type Relation struct {
	Name string
	Card float64 // cardinality, must be >= 1
}

// Predicate is a binary join predicate between two relations, identified by
// their indices into Query.Relations, with a selectivity in (0, 1].
// Predicates are uncorrelated (the paper's §3.2 restriction): the
// cardinality of a joined set is the product of base cardinalities and the
// selectivities of all predicates internal to the set.
type Predicate struct {
	R1, R2 int
	Sel    float64
}

// Query is a join ordering problem instance.
type Query struct {
	Relations  []Relation
	Predicates []Predicate
}

// MaxRelations is the hard relation-count ceiling for a single Query: set
// cardinalities, DP bitsets, and the permutation fast path all use uint64
// masks indexed by relation. Larger join graphs must be split first (see
// internal/decomp, which partitions the join graph and stitches per-part
// orders).
const MaxRelations = 64

// NumRelations returns the number of base relations T.
func (q *Query) NumRelations() int { return len(q.Relations) }

// NumJoins returns the number of joins J = T-1 in any left-deep tree.
func (q *Query) NumJoins() int {
	if len(q.Relations) == 0 {
		return 0
	}
	return len(q.Relations) - 1
}

// NumPredicates returns the number of join predicates P.
func (q *Query) NumPredicates() int { return len(q.Predicates) }

// Validate checks structural invariants: at least two relations, all
// cardinalities >= 1, predicate endpoints in range and distinct, and all
// selectivities in (0, 1].
func (q *Query) Validate() error {
	if len(q.Relations) < 2 {
		return errors.New("join: query needs at least two relations")
	}
	if len(q.Relations) > MaxRelations {
		return fmt.Errorf("join: %d relations exceeds the %d-relation limit of the uint64 set masks; partition the join graph instead (the decomp backend splits large graphs into bounded parts and stitches the per-part orders)", len(q.Relations), MaxRelations)
	}
	for i, r := range q.Relations {
		if r.Card < 1 || math.IsNaN(r.Card) || math.IsInf(r.Card, 0) {
			return fmt.Errorf("join: relation %d (%s) has invalid cardinality %v", i, r.Name, r.Card)
		}
	}
	for i, p := range q.Predicates {
		if p.R1 < 0 || p.R1 >= len(q.Relations) || p.R2 < 0 || p.R2 >= len(q.Relations) {
			return fmt.Errorf("join: predicate %d references relation out of range", i)
		}
		if p.R1 == p.R2 {
			return fmt.Errorf("join: predicate %d joins relation %d with itself", i, p.R1)
		}
		if !(p.Sel > 0 && p.Sel <= 1) {
			return fmt.Errorf("join: predicate %d has selectivity %v outside (0, 1]", i, p.Sel)
		}
	}
	// Selectivities are <= 1, so the product of all base cardinalities
	// bounds every intermediate SetCard; if it overflows float64, linear
	// cost arithmetic breaks down (Inf comparisons) before any solver runs.
	logCard := 0.0
	for t := range q.Relations {
		logCard += q.LogCard(t)
	}
	if logCard > math.Log10(math.MaxFloat64) {
		return fmt.Errorf("join: cardinality product 1e%.0f overflows float64 cost arithmetic", logCard)
	}
	return nil
}

// LogCard returns log10 of the cardinality of relation t.
func (q *Query) LogCard(t int) float64 { return math.Log10(q.Relations[t].Card) }

// LogSel returns log10 of the selectivity of predicate p (non-positive).
func (q *Query) LogSel(p int) float64 { return math.Log10(q.Predicates[p].Sel) }

// SetCard returns the cardinality of the join of the relation set given as
// a bitmask over relation indices: the product of the base cardinalities
// and of the selectivities of every predicate whose endpoints are both in
// the set. A single relation yields its base cardinality; the empty set
// yields 1.
func (q *Query) SetCard(mask uint64) float64 {
	card := 1.0
	for t := 0; t < len(q.Relations); t++ {
		if mask&(1<<uint(t)) != 0 {
			card *= q.Relations[t].Card
		}
	}
	for _, p := range q.Predicates {
		if mask&(1<<uint(p.R1)) != 0 && mask&(1<<uint(p.R2)) != 0 {
			card *= p.Sel
		}
	}
	return card
}

// LogSetCard returns log10 of SetCard(mask), computed in log space to avoid
// overflow for large sets.
func (q *Query) LogSetCard(mask uint64) float64 {
	l := 0.0
	for t := 0; t < len(q.Relations); t++ {
		if mask&(1<<uint(t)) != 0 {
			l += q.LogCard(t)
		}
	}
	for i, p := range q.Predicates {
		if mask&(1<<uint(p.R1)) != 0 && mask&(1<<uint(p.R2)) != 0 {
			l += q.LogSel(i)
		}
	}
	return l
}

// Order is a left-deep join order: a permutation of relation indices.
type Order []int

// IsPermutation reports whether o is a permutation of 0..n-1.
func (o Order) IsPermutation(n int) bool {
	if len(o) != n {
		return false
	}
	if n <= 64 {
		// Allocation-free fast path; every query this package can cost
		// has at most 64 relations (set cardinalities use uint64 masks).
		var seen uint64
		for _, t := range o {
			if t < 0 || t >= n || seen&(1<<uint(t)) != 0 {
				return false
			}
			seen |= 1 << uint(t)
		}
		return true
	}
	seen := make([]bool, n)
	for _, t := range o {
		if t < 0 || t >= n || seen[t] {
			return false
		}
		seen[t] = true
	}
	return true
}

// Cost evaluates the C_out cost of the left-deep join order per Eq. (2) of
// the paper: the sum over i = 2..n of the cardinality of the intermediate
// result after joining the first i relations. It panics if the order is not
// a permutation of the query's relations (programming error).
func (q *Query) Cost(o Order) float64 {
	n := len(q.Relations)
	if !o.IsPermutation(n) {
		panic(fmt.Sprintf("join: order %v is not a permutation of %d relations", o, n))
	}
	var mask uint64
	cost := 0.0
	for i, t := range o {
		mask |= 1 << uint(t)
		if i >= 1 {
			cost += q.SetCard(mask)
		}
	}
	return cost
}

// LogCost evaluates the cost in log space: sum over prefixes of
// 10^LogSetCard(prefix). Equivalent to Cost but stable for large queries.
func (q *Query) LogCost(o Order) float64 {
	n := len(q.Relations)
	if !o.IsPermutation(n) {
		panic(fmt.Sprintf("join: order %v is not a permutation of %d relations", o, n))
	}
	var mask uint64
	cost := 0.0
	for i, t := range o {
		mask |= 1 << uint(t)
		if i >= 1 {
			cost += math.Pow(10, q.LogSetCard(mask))
		}
	}
	return cost
}

// Tree renders the order as a left-deep join tree, e.g. ((R ⋈ S) ⋈ T).
func (q *Query) Tree(o Order) string {
	if len(o) == 0 {
		return ""
	}
	name := func(t int) string {
		if n := q.Relations[t].Name; n != "" {
			return n
		}
		return fmt.Sprintf("R%d", t)
	}
	var b strings.Builder
	b.WriteString(name(o[0]))
	for _, t := range o[1:] {
		s := b.String()
		b.Reset()
		fmt.Fprintf(&b, "(%s ⋈ %s)", s, name(t))
	}
	return b.String()
}

// PredicatesBetween returns the indices of predicates connecting relation t
// to any relation in mask.
func (q *Query) PredicatesBetween(mask uint64, t int) []int {
	var out []int
	for i, p := range q.Predicates {
		other := -1
		switch t {
		case p.R1:
			other = p.R2
		case p.R2:
			other = p.R1
		}
		if other >= 0 && mask&(1<<uint(other)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// RequiresCrossProduct reports whether evaluating the order requires at
// least one cross product (a join step with no applicable new predicate).
func (q *Query) RequiresCrossProduct(o Order) bool {
	var mask uint64
	for i, t := range o {
		if i >= 1 && len(q.PredicatesBetween(mask, t)) == 0 {
			return true
		}
		mask |= 1 << uint(t)
	}
	return false
}
