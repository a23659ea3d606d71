package decomp

import (
	"context"
	"fmt"
	"math"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/join"
)

// subQuery extracts the part's induced subproblem: relations reindexed
// 0..len(rels)-1 (rels is sorted, so local order mirrors global order) and
// the predicates internal to the part remapped onto the local indices.
func subQuery(q *join.Query, rels []int) *join.Query {
	local := make(map[int]int, len(rels))
	sq := &join.Query{Relations: make([]join.Relation, len(rels))}
	for li, g := range rels {
		local[g] = li
		sq.Relations[li] = q.Relations[g]
	}
	for _, p := range q.Predicates {
		a, aok := local[p.R1]
		b, bok := local[p.R2]
		if aok && bok {
			sq.Predicates = append(sq.Predicates, join.Predicate{R1: a, R2: b, Sel: p.Sel})
		}
	}
	return sq
}

// contract builds the part-graph query: one composite relation per part
// with the part's joined cardinality (SetCard over the part mask, clamped
// to >= 1 — highly selective parts can shrink below a single row, which
// join.Validate rejects), and one predicate per connected part pair whose
// selectivity is the product of the cut predicates' selectivities. This is
// exactly the uncorrelated-predicate cardinality model lifted to composite
// relations, so the classical planner can run on it unchanged.
func contract(q *join.Query, parts [][]int) (*join.Query, error) {
	k := len(parts)
	cq := &join.Query{Relations: make([]join.Relation, k)}
	partOf := make([]int, q.NumRelations())
	for pi, part := range parts {
		var mask uint64
		for _, g := range part {
			partOf[g] = pi
			mask |= 1 << uint(g)
		}
		card := q.SetCard(mask)
		if card < 1 {
			card = 1
		}
		cq.Relations[pi] = join.Relation{Name: fmt.Sprintf("P%d", pi), Card: card}
	}
	cross := make(map[[2]int]float64)
	for _, p := range q.Predicates {
		a, b := partOf[p.R1], partOf[p.R2]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if s, ok := cross[key]; ok {
			cross[key] = s * p.Sel
		} else {
			cross[key] = p.Sel
		}
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if s, ok := cross[[2]int{a, b}]; ok {
				if s < math.SmallestNonzeroFloat64 {
					s = math.SmallestNonzeroFloat64
				}
				cq.Predicates = append(cq.Predicates, join.Predicate{R1: a, R2: b, Sel: s})
			}
		}
	}
	if err := cq.Validate(); err != nil {
		return nil, fmt.Errorf("decomp: contracted part-graph invalid: %w", err)
	}
	return cq, nil
}

// maxStitchDP caps the part count for the exact DP stitch over the
// contracted part-graph: 2^16 subsets is milliseconds. Above it the stitch
// falls back to greedy.
const maxStitchDP = 16

// stitchOrder sequences the parts over the contracted query — exact DP
// when the part count admits it, greedy otherwise; a single part needs no
// sequencing — and expands the part sequence into a full join order by
// splicing each part's internal order (local indices) back onto the global
// relation indices.
func stitchOrder(ctx context.Context, q *join.Query, parts [][]int, partOrders []join.Order) (join.Order, string, error) {
	seq, producer := join.Order{0}, "single"
	if len(parts) > 1 {
		cq, err := contract(q, parts)
		if err != nil {
			return nil, "", err
		}
		seq, producer = nil, "greedy"
		if len(parts) <= maxStitchDP {
			if res, err := classical.OptimalContext(ctx, cq); err == nil {
				seq, producer = res.Order, "dp"
			}
		}
		if seq == nil {
			seq = classical.Greedy(cq).Order
		}
	}
	full := make(join.Order, 0, q.NumRelations())
	for _, pi := range seq {
		for _, li := range partOrders[pi] {
			full = append(full, parts[pi][li])
		}
	}
	return full, producer, nil
}
