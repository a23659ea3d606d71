package decomp

import (
	"context"
	"fmt"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/service"
)

// Name is the registry name of the decomposition backend.
const Name = "decomp"

// Config assembles a decomposition Backend over an existing registry.
type Config struct {
	// Registry resolves the subsolver backends (required).
	Registry *service.Registry
	// Metrics, when non-nil, receives per-backend outcomes from the hybrid
	// orchestration of each part.
	Metrics *service.Metrics
	// PartBudget is the default maximum relations per part (default 12,
	// clamped to [2, core.MaxMonolithicRelations]). Requests override it
	// via Params.Decomp.PartBudget.
	PartBudget int
	// MaxStitchDPParts caps the part count for the exact DP stitch over the
	// contracted part-graph; above it the stitch falls back to greedy
	// (default 16).
	MaxStitchDPParts int
	// Subsolver, when non-empty, names a single registry backend to solve
	// every part with (batched through SolveBatch when supported) instead
	// of hybrid orchestration. Deterministic given a seed, which makes it
	// the right mode for CI gates and benchmarks.
	Subsolver string
	// Portfolio and HedgeDelay tune the per-part hybrid orchestration used
	// when Subsolver is empty; zero values select the hybrid defaults.
	Portfolio  []string
	HedgeDelay time.Duration
	// StandardParts disables the compact per-part encoding: by default
	// parts are encoded with core.Options.Compact (fewer qubits per part)
	// unless the request already asked for a specific encoding.
	StandardParts bool
}

func (c Config) withDefaults() Config {
	if c.PartBudget == 0 {
		c.PartBudget = 12
	}
	if c.MaxStitchDPParts == 0 {
		c.MaxStitchDPParts = maxStitchDP
	}
	return c
}

func clampBudget(b int) int {
	if b < 2 {
		b = 2
	}
	if b > core.MaxMonolithicRelations {
		b = core.MaxMonolithicRelations
	}
	return b
}

// Backend decomposes large join graphs into QUBO-sized parts, solves each
// part through the backend portfolio, and stitches the per-part orders with
// the classical planner. It implements service.QueryBackend, so the service
// routes it around the monolithic encoding cache, and is safe for
// concurrent use.
type Backend struct {
	cfg Config
	hyb *hybrid.Backend
}

// New builds the decomposition backend over the registry.
func New(cfg Config) (*Backend, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil {
		return nil, fmt.Errorf("decomp: config needs a backend registry")
	}
	hyb, err := hybrid.New(hybrid.Config{
		Registry:   cfg.Registry,
		Metrics:    cfg.Metrics,
		Portfolio:  cfg.Portfolio,
		HedgeDelay: cfg.HedgeDelay,
	})
	if err != nil {
		return nil, fmt.Errorf("decomp: %w", err)
	}
	return &Backend{cfg: cfg, hyb: hyb}, nil
}

// Name implements service.Backend.
func (b *Backend) Name() string { return Name }

// Solve implements service.Backend for callers holding a monolithic
// encoding (tests, direct library use): it recovers the query and encoding
// spec from the encoding and delegates to SolveQuery. The service itself
// never takes this path — it detects the QueryBackend interface and calls
// SolveQuery before any monolithic encode is attempted.
func (b *Backend) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	spec := service.EncodeSpec{
		Thresholds:   len(enc.Opts.Thresholds),
		Omega:        enc.Opts.Omega,
		LogObjective: enc.Opts.LogObjective,
		Compact:      enc.Opts.Compact,
	}
	res, err := b.SolveQuery(ctx, enc.Query, spec, p)
	if err != nil {
		return nil, err
	}
	d := res.Decoded
	return &d, nil
}

// SolveQuery implements service.QueryBackend: partition → per-part solve →
// stitch. Per-part solver failures degrade to the part's classical plan
// rather than failing the query, and the stitched plan is floored at the
// global greedy plan, so the result is never worse than classical.Greedy.
func (b *Backend) SolveQuery(ctx context.Context, q *join.Query, spec service.EncodeSpec, p service.Params) (*service.QueryResult, error) {
	if q == nil {
		return nil, fmt.Errorf("decomp: nil query: %w", service.ErrBadRequest)
	}
	budget := p.Decomp.PartBudget
	if budget == 0 {
		budget = b.cfg.PartBudget
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

	partOrders, totalQubits := b.solveParts(ctx, q, part.Parts, spec, p)

	sctx, sspan := obs.StartSpan(ctx, "stitch")
	cq, err := contract(q, part.Parts)
	if err != nil {
		sspan.End(err)
		return nil, err
	}
	dpParts := b.cfg.MaxStitchDPParts
	if dpParts > classical.MaxDPRelations {
		dpParts = classical.MaxDPRelations
	}
	full, producer := stitchOrder(sctx, part.Parts, partOrders, cq, dpParts)
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

	return &service.QueryResult{
		Decoded:       core.Decoded{Valid: true, Order: full, Cost: cost},
		LogicalQubits: totalQubits,
	}, nil
}

// saltSeed derives a distinct deterministic seed per part so parts do not
// replay identical sampler trajectories.
func saltSeed(seed int64, i int) int64 {
	return int64(uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15)
}

// partJob is the prepared per-part solve: the induced subquery, its
// classical floor (warm-start incumbent and degrade path), and the part's
// encoding with derived params (nil enc for parts solved classically).
type partJob struct {
	rels  []int
	sq    *join.Query
	floor classical.Result
	enc   *core.Encoding
	pp    service.Params
}

// solveParts resolves a local join order per part, returning the orders
// index-aligned with parts and the aggregate logical qubit count. When the
// named subsolver has a SolveBatch fast path, every encoded part goes
// through it in one amortised call; otherwise parts solve one at a time
// (hybrid orchestration or plain Solve).
func (b *Backend) solveParts(ctx context.Context, q *join.Query, parts [][]int, spec service.EncodeSpec, p service.Params) ([]join.Order, int) {
	orders := make([]join.Order, len(parts))
	jobs := make([]*partJob, len(parts))
	totalQubits := 0

	if bs := b.batchSubsolver(); bs != nil {
		var encs []*core.Encoding
		var pps []service.Params
		var idx []int
		for i, rels := range parts {
			_, span := obs.StartSpan(ctx, "subsolve")
			span.SetAttrInt("part", i)
			span.SetAttrInt("relations", len(rels))
			jobs[i] = b.preparePart(ctx, q, rels, spec, p, i)
			orders[i] = jobs[i].floor.Order
			if jobs[i].enc != nil {
				span.SetAttrInt("qubits", jobs[i].enc.NumQubits())
				totalQubits += jobs[i].enc.NumQubits()
				encs = append(encs, jobs[i].enc)
				pps = append(pps, jobs[i].pp)
				idx = append(idx, i)
			} else {
				span.SetAttrStr("solver", "classical")
			}
			span.End(nil)
		}
		if len(encs) > 0 {
			bctx, span := obs.StartSpan(ctx, "subsolve.batch")
			span.SetAttrInt("parts", len(encs))
			span.SetAttrStr("solver", b.cfg.Subsolver)
			ds, errs := bs.SolveBatch(bctx, encs, pps)
			span.End(nil)
			for k, i := range idx {
				if errs[k] != nil {
					obs.Logger(ctx).WarnContext(ctx, "batched part solve failed, using classical plan",
						"part", i, "subsolver", b.cfg.Subsolver, "error", errs[k])
					continue
				}
				orders[i] = pickOrder(jobs[i], ds[k])
			}
		}
		return orders, totalQubits
	}

	for i, rels := range parts {
		sctx, span := obs.StartSpan(ctx, "subsolve")
		span.SetAttrInt("part", i)
		span.SetAttrInt("relations", len(rels))
		job := b.preparePart(sctx, q, rels, spec, p, i)
		orders[i] = job.floor.Order
		if job.enc == nil {
			span.SetAttrStr("solver", "classical")
			span.End(nil)
			continue
		}
		span.SetAttrInt("qubits", job.enc.NumQubits())
		totalQubits += job.enc.NumQubits()
		d, solver := b.subsolve(sctx, job.enc, job.pp)
		span.SetAttrStr("solver", solver)
		orders[i] = pickOrder(job, d)
		span.End(nil)
	}
	return orders, totalQubits
}

// batchSubsolver returns the named subsolver's batch interface when it is
// registered, healthy, and implements SolveBatch.
func (b *Backend) batchSubsolver() service.BatchSolver {
	if b.cfg.Subsolver == "" {
		return nil
	}
	be, ok := b.cfg.Registry.Get(b.cfg.Subsolver)
	if !ok {
		return nil
	}
	if hr, ok := be.(service.HealthReporter); ok && hr.Health().State == service.HealthOpen {
		return nil
	}
	bs, ok := be.(service.BatchSolver)
	if !ok {
		return nil
	}
	return bs
}

// pickOrder selects the part's final local order: the solver's sample when
// it is a valid permutation strictly cheaper than the classical floor, the
// floor otherwise.
func pickOrder(job *partJob, d *core.Decoded) join.Order {
	if d != nil && d.Valid && d.Order.IsPermutation(len(job.rels)) {
		if job.sq.Cost(d.Order) < job.floor.Cost {
			return d.Order
		}
	}
	return job.floor.Order
}

// preparePart builds one part's solve job: trivial and two-relation parts
// are resolved classically (nil enc); larger parts get a compact-by-default
// encoding, a per-part salted seed, and a warm start from the floor.
func (b *Backend) preparePart(ctx context.Context, q *join.Query, rels []int, spec service.EncodeSpec, p service.Params, i int) *partJob {
	job := &partJob{rels: rels}
	if len(rels) == 1 {
		job.floor = classical.Result{Order: join.Order{0}}
		return job
	}
	job.sq = subQuery(q, rels)

	// Classical floor for the part: exact DP when the part is small enough
	// for the non-cancellable pass, greedy otherwise. This is also the
	// warm-start incumbent and the degrade path on solver failure.
	job.floor = classical.Greedy(job.sq)
	if len(rels) <= 18 {
		if res, err := classical.OptimalContext(ctx, job.sq); err == nil {
			job.floor = res
		}
	}
	if len(rels) == 2 {
		return job
	}

	enc, err := b.encodePart(ctx, job.sq, spec)
	if err != nil {
		obs.Logger(ctx).WarnContext(ctx, "part encode failed, using classical plan",
			"part", i, "error", err)
		return job
	}
	job.enc = enc
	job.pp = p
	job.pp.Seed = saltSeed(p.Seed, i)
	job.pp.Decomp = service.DecompParams{}
	job.pp.Hybrid = service.HybridParams{}
	if warm, werr := enc.EncodeOrder(job.floor.Order); werr == nil {
		if full, ferr := enc.CompleteSlacks(warm); ferr == nil {
			job.pp.InitialState = full
		}
	}
	return job
}

// encodePart builds the part's QUBO encoding. Parts default to the compact
// encoding — the whole point of decomposition is fitting hardware, and the
// compact substitution drops T·(J−1) decision qubits per part — unless the
// backend is configured for standard part encodings. A request that set
// spec.Compact explicitly always gets compact parts.
func (b *Backend) encodePart(ctx context.Context, sq *join.Query, spec service.EncodeSpec) (*core.Encoding, error) {
	thresholds := spec.Thresholds
	if thresholds <= 0 {
		thresholds = 3
	}
	omega := spec.Omega
	if omega == 0 {
		omega = 1
	}
	return core.EncodeContext(ctx, sq, core.Options{
		Thresholds:   core.DefaultThresholds(sq, thresholds),
		Omega:        omega,
		LogObjective: spec.LogObjective,
		Compact:      spec.Compact || !b.cfg.StandardParts,
	})
}

// subsolve runs one part's encoding through the configured solver path and
// reports which solver produced the result ("" when none did).
func (b *Backend) subsolve(ctx context.Context, enc *core.Encoding, pp service.Params) (*core.Decoded, string) {
	if b.cfg.Subsolver != "" {
		be, ok := b.cfg.Registry.Get(b.cfg.Subsolver)
		if !ok {
			obs.Logger(ctx).WarnContext(ctx, "decomp subsolver not registered", "subsolver", b.cfg.Subsolver)
			return nil, ""
		}
		if hr, ok := be.(service.HealthReporter); ok && hr.Health().State == service.HealthOpen {
			return nil, "" // breaker open: fast-degrade to the classical floor
		}
		d, err := be.Solve(ctx, enc, pp)
		if err != nil {
			obs.Logger(ctx).WarnContext(ctx, "decomp subsolver failed, using classical plan",
				"subsolver", b.cfg.Subsolver, "error", err)
			return nil, ""
		}
		return d, b.cfg.Subsolver
	}
	out, err := b.hyb.Orchestrate(ctx, enc, pp)
	if err != nil {
		obs.Logger(ctx).WarnContext(ctx, "decomp hybrid orchestration failed, using classical plan",
			"error", err)
		return nil, ""
	}
	return out.Best, "hybrid/" + out.Winner
}
