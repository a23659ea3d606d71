package hybrid

import (
	"context"
	"fmt"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/service"
)

// Candidate is one backend's finished attempt inside an orchestration.
type Candidate struct {
	// Backend is the registered backend name.
	Backend string
	// Decoded is the validated result (nil when Err is set or validation
	// failed).
	Decoded *core.Decoded
	// Cost is the true plan cost of Decoded.Order, recomputed by the
	// arbiter from the query — never the QUBO energy the backend
	// optimised.
	Cost float64
	// Err is the backend's error, or the arbiter's validation error.
	Err error
	// Elapsed is the backend's solve latency.
	Elapsed time.Duration
}

// vet validates a backend result the way the §3.5 post-processing does —
// the decoded order must exist, be a permutation of all relations, and is
// re-scored by true plan cost so a backend reporting a stale or energy-
// based cost cannot win on a lie.
func vet(enc *core.Encoding, backend string, d *core.Decoded, err error, elapsed time.Duration) Candidate {
	c := Candidate{Backend: backend, Err: err, Elapsed: elapsed}
	if err != nil {
		return c
	}
	if d == nil || !d.Valid {
		c.Err = fmt.Errorf("hybrid: backend %q returned no valid join order", backend)
		return c
	}
	n := enc.Query.NumRelations()
	if !d.Order.IsPermutation(n) {
		c.Err = fmt.Errorf("hybrid: backend %q returned order %v, not a permutation of %d relations",
			backend, d.Order, n)
		return c
	}
	c.Decoded = d
	c.Cost = enc.Query.Cost(d.Order)
	return c
}

// arbitrate picks the cheapest valid candidate, records win/loss and
// latency outcomes into the metrics registry, and assembles the Outcome.
// With no valid candidate it surfaces the first backend error (preferring
// a context error so the HTTP layer maps deadlines to 504).
func (b *Backend) arbitrate(ctx context.Context, candidates []Candidate) (*Outcome, error) {
	best := -1
	for i, c := range candidates {
		if c.Decoded == nil {
			continue
		}
		if best < 0 || c.Cost < candidates[best].Cost {
			best = i
		}
	}
	if b.cfg.Metrics != nil {
		for i, c := range candidates {
			bm := b.cfg.Metrics.Backend(c.Backend)
			bm.Observe(c.Elapsed, c.Err)
			if i == best {
				bm.RecordWin()
			} else {
				bm.RecordLoss()
			}
		}
	}
	if best >= 0 {
		if span := obs.ActiveSpan(ctx); span != nil {
			span.SetAttr("hybrid_winner", candidates[best].Backend)
			span.SetAttr("hybrid_candidates", len(candidates))
		}
		obs.Logger(ctx).DebugContext(ctx, "hybrid arbitration",
			"winner", candidates[best].Backend,
			"cost", candidates[best].Cost,
			"candidates", len(candidates))
	}
	if best < 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hybrid: no valid candidate from %d backends before deadline: %w",
				len(candidates), err)
		}
		for _, c := range candidates {
			if c.Err != nil {
				return nil, fmt.Errorf("hybrid: no valid candidate from %d backends: %w",
					len(candidates), c.Err)
			}
		}
		return nil, fmt.Errorf("hybrid: no candidates produced (empty portfolio?): %w",
			service.ErrBadRequest)
	}
	return &Outcome{
		Winner:     candidates[best].Backend,
		Best:       candidates[best].Decoded,
		Candidates: candidates,
	}, nil
}
