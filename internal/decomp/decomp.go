package decomp

import (
	"context"
	"fmt"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/service"
)

// Name is the registry name of the decomposition backend.
const Name = "decomp"

// defaultPartBudget is the part budget of a Backend built with budget 0.
const defaultPartBudget = 12

// maxPartDP is the largest part planned by exact DP: the bound of hybrid's
// default MaxDPRelations, and the largest size whose DP tables (17 MiB at
// 20 relations) classical keeps between sweeps. Larger parts take greedy.
const maxPartDP = 20

func clampBudget(b int) int {
	if b < 2 {
		b = 2
	}
	if b > core.MaxMonolithicRelations {
		b = core.MaxMonolithicRelations
	}
	return b
}

// Backend decomposes large join graphs into parts of bounded size, plans
// each part exactly by classical DP, and stitches the per-part orders with
// the classical planner. It is an ordinary service.Backend: it reads only
// the query of the prepared cache entry it is handed, builds no QUBO, and
// plans any valid query up to join.MaxRelations. It is safe for
// concurrent use.
type Backend struct {
	partBudget int
}

// New builds the decomposition backend. partBudget is the default maximum
// relations per part (0 selects 12; clamped to [2,
// core.MaxMonolithicRelations]); requests override it via
// Params.Decomp.PartBudget.
func New(partBudget int) *Backend {
	if partBudget == 0 {
		partBudget = defaultPartBudget
	}
	return &Backend{partBudget: partBudget}
}

// Name implements service.Backend.
func (b *Backend) Name() string { return Name }

// Solve implements service.Backend by planning the encoding's query (the
// service hands it the canonical relabelling, so the plan does not depend
// on how the request numbered its relations). It never builds the QUBO.
func (b *Backend) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	return b.SolveQuery(ctx, enc.Query, p)
}

// SolveQuery plans q: partition → per-part solve → stitch. A part whose
// DP sweep the deadline cuts short takes its greedy plan, and the stitched
// plan is floored at the global greedy plan, so the result is never worse
// than classical.Greedy, even on an expired context.
func (b *Backend) SolveQuery(ctx context.Context, q *join.Query, p service.Params) (*core.Decoded, error) {
	if q == nil {
		return nil, fmt.Errorf("decomp: nil query: %w", service.ErrBadRequest)
	}
	budget := p.Decomp.PartBudget
	if budget == 0 {
		budget = b.partBudget
	}
	budget = clampBudget(budget)

	_, pspan := obs.StartSpan(ctx, "partition")
	part, err := PartitionQuery(q, budget)
	if err != nil {
		pspan.End(err)
		return nil, fmt.Errorf("%w: %w", err, service.ErrBadRequest)
	}
	pspan.SetAttrInt("parts", len(part.Parts))
	pspan.SetAttrInt("cut_edges", part.CutEdges)
	pspan.SetAttrFloat("cut_weight", part.CutWeight)
	pspan.End(nil)

	partOrders := make([]join.Order, len(part.Parts))
	for i, rels := range part.Parts {
		sctx, span := obs.StartSpan(ctx, "subsolve")
		span.SetAttrInt("part", i)
		span.SetAttrInt("relations", len(rels))
		order, solver := planPart(sctx, q, rels)
		partOrders[i] = order
		span.SetAttrStr("solver", solver)
		span.End(nil)
	}

	sctx, sspan := obs.StartSpan(ctx, "stitch")
	full, producer, err := stitchOrder(sctx, q, part.Parts, partOrders)
	if err != nil {
		sspan.End(err)
		return nil, err
	}
	cost := q.Cost(full)
	// Global floor: the stitch is heuristic (part boundaries constrain the
	// order), so never return a plan worse than the one-shot greedy plan
	// over the full graph.
	if g := classical.Greedy(q); g.Cost < cost {
		full, cost = g.Order, g.Cost
		producer = "greedy-floor"
	}
	sspan.SetAttrStr("producer", producer)
	sspan.SetAttrFloat("cost", cost)
	sspan.End(nil)

	return &core.Decoded{Valid: true, Order: full, Cost: cost}, nil
}

// planPart returns one part's local join order (indices into rels) and
// the solver that produced it: exact DP on the part's induced sub-query up
// to maxPartDP relations, greedy above that or when the context cuts the
// sweep short. A one-relation part has nothing to plan.
func planPart(ctx context.Context, q *join.Query, rels []int) (join.Order, string) {
	if len(rels) == 1 {
		return join.Order{0}, "single"
	}
	sq := subQuery(q, rels)
	if len(rels) <= maxPartDP {
		if res, err := classical.OptimalContext(ctx, sq); err == nil {
			return res.Order, "dp"
		}
	}
	return classical.Greedy(sq).Order, "greedy"
}
