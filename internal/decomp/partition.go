// Package decomp plans join graphs past the monolithic QUBO limit by graph
// decomposition (after Nayak et al., "Improved Join Order Optimization …
// Hybrid Quantum-Classical Approaches for QUBO Problems"): the
// join-predicate graph is partitioned into connected subgraphs of bounded
// size with a min-cut-flavoured greedy partitioner plus KL-style
// refinement, each part is planned exactly by classical DP (greedy above
// the DP size or when the deadline cuts the sweep short), and the per-part
// orders are stitched into a full plan by the classical planner running on
// the contracted part-graph — parts become composite relations with
// derived cardinalities and selectivities. No part is QUBO-encoded: DP
// proves a part of this size optimal in milliseconds, so a quantum or
// heuristic part solver has nothing left to win. The service runs the
// backend like dp or greedy, on the query's prepared cache entry.
package decomp

import (
	"fmt"
	"math"
	"sort"

	"quantumjoin/internal/join"
)

// Partition is a decomposition of a query's relations into disjoint,
// connected parts of bounded size.
type Partition struct {
	// Parts lists the relation indices of each part, each sorted ascending.
	Parts [][]int
	// PartOf maps relation index -> part index.
	PartOf []int
	// CutEdges counts predicates whose endpoints land in different parts.
	CutEdges int
	// CutWeight is the total −log10(selectivity) weight of cut predicates:
	// the selectivity "lost" to the contraction (smaller is better).
	CutWeight float64
}

// edgeWeight scores a predicate for the partitioner: 1 − log10(sel).
// The constant keeps sel = 1 predicates attractive (they still constrain
// the graph), and more selective predicates — the ones that shrink
// intermediates the most — pull their endpoints into the same part
// hardest, which is exactly min-cut on the selectivity mass.
func edgeWeight(sel float64) float64 {
	return 1 - math.Log10(sel)
}

// PartitionQuery splits the query's join graph into connected parts of at
// most budget relations: greedy agglomerative growth (heaviest-connection
// vertex joins the open part) followed by KL-style boundary refinement
// (single-vertex moves that reduce the cut while preserving connectivity
// and the budget). Vertices with no unassigned neighbours seed their own
// parts, so star spokes become singletons instead of cross-product parts.
// The result is deterministic for a given query and budget.
func PartitionQuery(q *join.Query, budget int) (*Partition, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("decomp: cannot partition invalid query: %w", err)
	}
	if budget < 1 {
		return nil, fmt.Errorf("decomp: part budget must be >= 1, got %d", budget)
	}
	n := q.NumRelations()
	// Dense weighted adjacency: n <= 64 (join.MaxRelations), so n² stays
	// trivial and the inner loops branch-free.
	adj := make([][]float64, n)
	for i := range adj {
		adj[i] = make([]float64, n)
	}
	for _, p := range q.Predicates {
		w := edgeWeight(p.Sel)
		adj[p.R1][p.R2] += w
		adj[p.R2][p.R1] += w
	}

	partOf := make([]int, n)
	for i := range partOf {
		partOf[i] = -1
	}
	var parts [][]int
	conn := make([]float64, n)
	remaining := n
	for remaining > 0 {
		// Seed: the unassigned vertex with the heaviest connection to other
		// unassigned vertices (ties to the lowest index). Heavy hubs anchor
		// parts early, pulling their strongest neighbours in after them.
		seed, seedW := -1, -1.0
		for v := 0; v < n; v++ {
			if partOf[v] >= 0 {
				continue
			}
			w := 0.0
			for u := 0; u < n; u++ {
				if partOf[u] < 0 {
					w += adj[v][u]
				}
			}
			if w > seedW {
				seed, seedW = v, w
			}
		}
		pi := len(parts)
		part := []int{seed}
		partOf[seed] = pi
		remaining--
		for v := 0; v < n; v++ {
			conn[v] = adj[seed][v]
		}
		for len(part) < budget {
			best, bestW := -1, 0.0
			for v := 0; v < n; v++ {
				if partOf[v] < 0 && conn[v] > bestW {
					best, bestW = v, conn[v]
				}
			}
			if best < 0 {
				break // nothing connected remains: keep the part connected
			}
			part = append(part, best)
			partOf[best] = pi
			remaining--
			for v := 0; v < n; v++ {
				conn[v] += adj[best][v]
			}
		}
		sort.Ints(part)
		parts = append(parts, part)
	}

	refine(q, adj, parts, partOf, budget)

	p := &Partition{Parts: parts, PartOf: partOf}
	for _, pr := range q.Predicates {
		if partOf[pr.R1] != partOf[pr.R2] {
			p.CutEdges++
			p.CutWeight += -math.Log10(pr.Sel)
		}
	}
	return p, nil
}

// refine performs KL-style steepest-descent vertex moves: while some
// boundary vertex is more strongly connected to a neighbouring part than
// to the rest of its own (and moving it keeps the source part connected
// and the target within budget), apply the best such move. Bounded by 2n
// moves — each strictly reduces the cut, so termination is guaranteed
// anyway; the bound just caps the worst case.
func refine(q *join.Query, adj [][]float64, parts [][]int, partOf []int, budget int) {
	n := len(partOf)
	toPart := make([]float64, len(parts))
	for moves := 0; moves < 2*n; moves++ {
		bestV, bestTo, bestGain := -1, -1, 0.0
		for v := 0; v < n; v++ {
			from := partOf[v]
			if len(parts[from]) <= 1 {
				continue
			}
			for i := range toPart {
				toPart[i] = 0
			}
			internal := 0.0
			for u := 0; u < n; u++ {
				if w := adj[v][u]; w > 0 {
					if partOf[u] == from {
						internal += w
					} else {
						toPart[partOf[u]] += w
					}
				}
			}
			for to, w := range toPart {
				if w <= 0 || len(parts[to]) >= budget {
					continue
				}
				gain := w - internal
				if gain > bestGain && connectedWithout(adj, parts[from], v, partOf) {
					bestV, bestTo, bestGain = v, to, gain
				}
			}
		}
		if bestV < 0 {
			return
		}
		from := partOf[bestV]
		parts[from] = removeInt(parts[from], bestV)
		parts[bestTo] = append(parts[bestTo], bestV)
		sort.Ints(parts[bestTo])
		partOf[bestV] = bestTo
	}
}

// connectedWithout reports whether part stays connected (over part-internal
// predicate edges) after removing vertex v.
func connectedWithout(adj [][]float64, part []int, v int, partOf []int) bool {
	if len(part) <= 2 {
		return true // removing one vertex from <=2 leaves <=1: trivially connected
	}
	start := -1
	inPart := make(map[int]bool, len(part))
	for _, u := range part {
		if u != v {
			inPart[u] = true
			if start < 0 {
				start = u
			}
		}
	}
	seen := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for u := range inPart {
			if !seen[u] && adj[x][u] > 0 {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return len(seen) == len(inPart)
}

func removeInt(s []int, v int) []int {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
