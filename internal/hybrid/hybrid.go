// Package hybrid orchestrates the registered solver backends into a single
// deadline-aware meta-backend, following the hybrid quantum-classical
// framing of the paper's co-design discussion: near-term quantum solvers
// are unreliable per-shot, so production use hedges them behind classical
// baselines and lets an arbiter pick the best valid plan produced before
// the deadline.
//
// The orchestration is staged: the classical stage (greedy, then DP when
// the instance is small enough) yields an instant feasible incumbent. It
// reads only the query, so the encoding's MILP → BILP → QUBO build is not
// paid for it. A DP plan is the exact optimum and ends the request;
// otherwise — after a hedge delay — the QUBO is built, if the deadline
// leaves room for the build, and the quantum-simulated portfolio launches
// warm-started from that incumbent and improves the answer anytime until
// the deadline. The final plan is never worse than the classical
// incumbent.
//
// Every candidate is validated and re-scored by true plan cost (Query.Cost
// of the decoded order), never by QUBO energy, and per-backend win/loss
// and latency outcomes are recorded into the service metrics registry.
package hybrid

import (
	"context"
	"fmt"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/service"
)

// StrategyStaged is the only value Config.Strategy accepts besides "".
//
// Deprecated: staged is the only orchestration; the constant remains for
// callers that still name it.
const StrategyStaged = "staged"

// minBudget is the minimum remaining deadline worth launching a quantum
// stage for; below it the classical incumbent is returned at once.
const minBudget = 10 * time.Millisecond

// Name is the registry name of the hybrid backend.
const Name = "hybrid"

// Config assembles a hybrid Backend over an existing registry.
type Config struct {
	// Registry resolves portfolio backend names (required).
	Registry *service.Registry
	// Metrics, when non-nil, receives per-backend win/loss and latency
	// outcomes from the arbiter.
	Metrics *service.Metrics
	// Strategy must be empty or StrategyStaged.
	//
	// Deprecated: staged is the only orchestration; New rejects any
	// other value.
	Strategy string
	// Portfolio is the default quantum-stage portfolio (the classical
	// stage is always greedy+DP). Default: anneal, tabu, qaoa — filtered
	// to what the registry actually has.
	Portfolio []string
	// HedgeDelay is the default pause between the classical incumbent and
	// the quantum launch (default 25ms). The pause lets cheap requests
	// return without ever spinning up samplers. It applies only when DP
	// did not prove the incumbent optimal: a DP plan ends the request at
	// once.
	HedgeDelay time.Duration
	// MaxDPRelations caps the instance size for the classical stage's DP
	// pass (default 20: a sweep of ~40–90 ms and 17 MiB of tables on a
	// 2-vCPU host). The pass does not start when the deadline leaves less
	// than its work at a fixed per-iteration cost (35 ms at 20
	// relations), polls the context every 1024 subsets and drops the
	// sweep as soon as it predicts a finish past the deadline, so the
	// deadline bounds its time either way; the gate bounds the
	// 17·2^n bytes of tables. The dp backend memoises a completed sweep's
	// optimum on the cached encoding, so a repeat request on that
	// encoding gets the optimum without a sweep, also under a deadline
	// on which a cold sweep would predict an overrun.
	MaxDPRelations int
}

func (c Config) withDefaults() Config {
	if c.Portfolio == nil {
		c.Portfolio = []string{"anneal", "tabu", "qaoa"}
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 25 * time.Millisecond
	}
	if c.MaxDPRelations == 0 {
		c.MaxDPRelations = 20
	}
	return c
}

// Backend is the hybrid orchestrator; it implements service.Backend and is
// safe for concurrent use.
type Backend struct {
	cfg Config
}

// New builds the hybrid backend. It returns an error when the registry is
// missing or Strategy names anything but staged.
func New(cfg Config) (*Backend, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil {
		return nil, fmt.Errorf("hybrid: config needs a backend registry")
	}
	if cfg.Strategy != "" && cfg.Strategy != StrategyStaged {
		return nil, fmt.Errorf("hybrid: unknown strategy %q (staged is the only one)", cfg.Strategy)
	}
	return &Backend{cfg: cfg}, nil
}

// Name implements service.Backend.
func (b *Backend) Name() string { return Name }

// Solve implements service.Backend: it orchestrates the request and
// returns the arbiter's pick.
func (b *Backend) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	out, err := b.Orchestrate(ctx, enc, p)
	if err != nil {
		return nil, err
	}
	return out.Best, nil
}

// Outcome is the full orchestration result, exposing what Solve discards.
type Outcome struct {
	// Winner is the backend whose candidate the arbiter selected.
	Winner string
	// Best is the selected decoded join order.
	Best *core.Decoded
	// Candidates are all finished attempts, including losers and errors.
	Candidates []Candidate
}

// Orchestrate runs the staged orchestration and returns the arbitrated
// outcome. It is the programmatic entry point for callers that want the
// losing candidates too (benchmarks, tests).
func (b *Backend) Orchestrate(ctx context.Context, enc *core.Encoding, p service.Params) (*Outcome, error) {
	portfolio, skippedOpen, err := b.portfolio(p)
	if err != nil {
		return nil, err
	}
	return b.staged(ctx, enc, p, portfolio, skippedOpen)
}

// portfolio resolves the request's (or the default) portfolio against the
// registry. Unknown names are client errors; the hybrid backend itself is
// rejected to keep orchestration non-recursive. A default portfolio is
// silently filtered to registered backends so a slim registry still works.
//
// Backends whose circuit breaker reports open (see service.HealthReporter)
// are skipped — launching a racer that is guaranteed to fast-fail wastes a
// goroutine and pollutes the loss statistics — and the skip count is
// returned so the orchestration can distinguish "no such backends" (a client
// error) from "all backends tripped" (transient unavailability, 503).
// Half-open backends stay in: portfolio traffic is how they get probed
// back to health.
func (b *Backend) portfolio(p service.Params) ([]string, int, error) {
	names := p.Hybrid.Portfolio
	explicit := len(names) > 0
	if !explicit {
		names = b.cfg.Portfolio
	}
	var out []string
	skippedOpen := 0
	for _, name := range names {
		if name == Name {
			return nil, 0, fmt.Errorf("hybrid: portfolio must not include %q itself: %w",
				Name, service.ErrBadRequest)
		}
		be, ok := b.cfg.Registry.Get(name)
		if !ok {
			if explicit {
				return nil, 0, fmt.Errorf("hybrid: unknown portfolio backend %q: %w",
					name, service.ErrBadRequest)
			}
			continue
		}
		if hr, ok := be.(service.HealthReporter); ok && hr.Health().State == service.HealthOpen {
			skippedOpen++
			continue
		}
		out = append(out, name)
	}
	if explicit && len(out) == 0 && skippedOpen == 0 {
		return nil, 0, fmt.Errorf("hybrid: empty portfolio: %w", service.ErrBadRequest)
	}
	return out, skippedOpen, nil
}

// subParams derives the parameters passed to a portfolio backend: the
// hybrid knobs are stripped (they are meaningless one level down) and the
// warm-start state is attached when the classical stage produced one.
func subParams(p service.Params, warm []bool) service.Params {
	p.Hybrid = service.HybridParams{}
	p.InitialState = warm
	return p
}
