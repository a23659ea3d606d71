package hybrid

import (
	"context"
	"errors"
	"fmt"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/service"
)

// classicalStage names the backends of the first stage, in launch order.
// Greedy is O(T²) and never fails; DP is exact, polls the context and
// drops its sweep once it predicts a finish past the deadline (so a tight
// deadline degrades the stage to greedy quality rather than blowing the
// budget), and is additionally gated on instance size
// (Config.MaxDPRelations) to bound the 2^T table memory. The dp backend
// reads the optimum memoised on the encoding, so only the first complete
// sweep per cached encoding costs time; its span records
// optimum=reused|computed.
var classicalStage = []string{"greedy", "dp"}

// dpDecision says why DP did or did not decide a request's plan; it is
// the orchestration span's hybrid_dp attribute. It is empty when the
// registry has no dp backend, when the deadline passed before DP could
// start, and when DP failed for a reason its span records.
func dpDecision(ctx context.Context, c Candidate, err error) string {
	switch {
	case c.Decoded != nil:
		return "optimal"
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		// The sweep gave up with budget left: it predicted its own
		// finish after the deadline.
		return "predicted_overrun"
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return "interrupted"
	}
	return ""
}

// staged runs the hedged two-stage orchestration: the classical stage
// produces an instant feasible incumbent from the query alone. When DP
// proved that incumbent optimal the request returns at once. Otherwise —
// after the hedge delay, and only if enough deadline remains — the QUBO
// is built (unless already built, and only if its predicted cost leaves
// the racers minBudget; else hybrid_stage2=build_over_budget) and the
// quantum-simulated portfolio launches warm-started from that incumbent,
// improving the answer anytime until the deadline. A request that ends
// before stage 2 leaves the encoding unbuilt. The final plan is never
// worse than the classical incumbent.
// Open-breaker backends were already filtered from the portfolio; the
// classical stage keeps working regardless, so tripped quantum backends
// degrade quality, never availability.
func (b *Backend) staged(ctx context.Context, enc *core.Encoding, p service.Params, portfolio []string, skippedOpen int) (*Outcome, error) {
	var candidates []Candidate
	var incumbent *Candidate
	var dp string // dpDecision

	// Stage 1: classical, synchronous, microseconds-to-milliseconds. Both
	// backends are optional registry members; a slim registry degrades to
	// a pure quantum portfolio.
	n := enc.Query.NumRelations()
	for _, name := range classicalStage {
		be, ok := b.cfg.Registry.Get(name)
		if !ok {
			continue
		}
		if name == "dp" && n > b.cfg.MaxDPRelations {
			dp = "size_gated"
			continue
		}
		if ctx.Err() != nil {
			break
		}
		clCtx, clSpan := obs.StartSpan(ctx, "classical."+name)
		start := time.Now()
		d, err := be.Solve(clCtx, enc, subParams(p, nil))
		c := vet(enc, name, d, err, time.Since(start))
		clSpan.SetAttr("valid", c.Decoded != nil)
		clSpan.End(err)
		candidates = append(candidates, c)
		if c.Decoded != nil && (incumbent == nil || c.Cost < incumbent.Cost) {
			cc := c
			incumbent = &cc
		}
		// The dp backend errors whenever its sweep is cut short, so a
		// vetted dp order is the exact C_out optimum of the left-deep
		// plan space the samplers search too: none of them can beat it.
		if name == "dp" {
			dp = dpDecision(ctx, c, err)
		}
	}
	if dp != "" {
		obs.ActiveSpan(ctx).SetAttrStr("hybrid_dp", dp)
	}

	// Stage 2, unless DP proved the incumbent optimal: hedge, then launch
	// the quantum portfolio. The hedge delay gives cheap requests a chance
	// to return without ever spinning up samplers; a negative request
	// value disables it.
	if dp == "optimal" {
		obs.ActiveSpan(ctx).SetAttrStr("hybrid_stage2", "skipped_dp_optimal")
		obs.Logger(ctx).DebugContext(ctx, "hybrid stage 2 skipped: dp proved the incumbent optimal")
	} else if len(portfolio) > 0 && b.hedge(ctx, p) && b.budgetLeft(ctx) {
		// The racers and the warm start read the QUBO, so it is built
		// only here, once the hedge and the budget have let stage 2 go.
		if skip := b.buildStage2(ctx, enc); skip != "" {
			obs.ActiveSpan(ctx).SetAttrStr("hybrid_stage2", skip)
		} else {
			candidates = append(candidates, b.race(ctx, enc, p, portfolio, incumbent)...)
		}
	}
	if len(candidates) == 0 && skippedOpen > 0 {
		// Slim registry without classical backends and every quantum
		// backend tripped: transient unavailability, not a client error.
		return nil, fmt.Errorf("hybrid: all %d portfolio backends have open circuit breakers: %w",
			skippedOpen, service.ErrUnavailable)
	}
	return b.arbitrate(ctx, candidates)
}

// race launches the portfolio on the built encoding, warm-started from
// the incumbent, and collects the racers' candidates until every racer
// finished or the deadline passed.
func (b *Backend) race(ctx context.Context, enc *core.Encoding, p service.Params, portfolio []string, incumbent *Candidate) []Candidate {
	warm := warmState(enc, incumbent)
	var candidates []Candidate
	results := make(chan Candidate, len(portfolio))
	for _, name := range portfolio {
		be, _ := b.cfg.Registry.Get(name)
		spanCtx, span := obs.StartSpan(ctx, "racer."+name)
		span.SetAttr("warm_start", warm != nil)
		go func(name string, be service.Backend) {
			start := time.Now()
			d, err := be.Solve(spanCtx, enc, subParams(p, warm))
			c := vet(enc, name, d, err, time.Since(start))
			span.SetAttr("valid", c.Decoded != nil)
			endRacerSpan(ctx, span, err)
			results <- c
		}(name, be)
	}
	// Anytime collection: candidates are folded in as they finish, and
	// the deadline ends the wait even if a backend is stuck in a
	// non-interruptible section (the buffered channel lets stragglers
	// finish their send and exit on their own).
collect:
	for collected := 0; collected < len(portfolio); collected++ {
		select {
		case c := <-results:
			candidates = append(candidates, c)
		case <-ctx.Done():
			break collect
		}
	}
	return candidates
}

// endRacerSpan closes a portfolio racer's span, recording why a racer
// stopped early: the request deadline hit, or the client went away.
// Cancellation is an outcome, not a failure — only a genuine backend error
// (while the request was still live) marks the span errored, so healthy
// requests stay subject to probabilistic sampling.
func endRacerSpan(ctx context.Context, span *obs.Span, err error) {
	if ctx.Err() == nil {
		span.End(err)
		return
	}
	reason := "client_cancelled"
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		reason = "deadline"
	}
	span.SetAttr("cancel_reason", reason)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End(nil)
}

// hedge sleeps for the hedge delay (bounded by the context) and reports
// whether the quantum stage should still launch.
func (b *Backend) hedge(ctx context.Context, p service.Params) bool {
	delay := p.Hybrid.HedgeDelay
	if delay == 0 {
		delay = b.cfg.HedgeDelay
	}
	if delay <= 0 {
		return ctx.Err() == nil
	}
	// Launching right at the deadline is useless: cap the wait so at
	// least minBudget of solving time remains afterwards.
	if deadline, ok := ctx.Deadline(); ok {
		if room := time.Until(deadline) - minBudget; room < delay {
			delay = room
		}
		if delay <= 0 {
			return ctx.Err() == nil
		}
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// buildStage2 builds enc's QUBO, which the portfolio racers and the
// warm start read, and returns why stage 2 must not launch, or "" when it
// can. The build runs under a deadline minBudget before the request's,
// so service.BuildQUBO does not start a cold build whose predicted cost
// would leave the racers less than minBudget, and stops one that runs
// long: build_over_budget. So is a launch that the build has left without
// minBudget. A build the deadline cuts short keeps nothing, so a later
// request with more time builds afresh; a build that fails outright
// (above core.MaxMonolithicRelations, say) is build_failed.
func (b *Backend) buildStage2(ctx context.Context, enc *core.Encoding) string {
	bctx := ctx
	if deadline, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		bctx, cancel = context.WithDeadline(ctx, deadline.Add(-minBudget))
		defer cancel()
	}
	if err := service.BuildQUBO(bctx, enc); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			return "build_over_budget"
		}
		obs.Logger(ctx).WarnContext(ctx, "hybrid stage 2 skipped: the QUBO build failed", "error", err)
		return "build_failed"
	}
	if !b.budgetLeft(ctx) {
		return "build_over_budget"
	}
	return ""
}

// budgetLeft reports whether enough deadline remains to be worth starting
// a quantum-simulated solve.
func (b *Backend) budgetLeft(ctx context.Context) bool {
	if err := ctx.Err(); err != nil {
		return false
	}
	if deadline, ok := ctx.Deadline(); ok {
		return time.Until(deadline) >= minBudget
	}
	return true
}

// warmState embeds the classical incumbent into the full QUBO variable
// space (decision variables via EncodeOrder, slacks via CompleteSlacks) so
// samplers refine a good solution instead of starting from noise. Any
// failure degrades to a cold start — warm-starting is an optimisation,
// never a correctness requirement.
func warmState(enc *core.Encoding, incumbent *Candidate) []bool {
	if incumbent == nil {
		return nil
	}
	decision, err := enc.EncodeOrder(incumbent.Decoded.Order)
	if err != nil {
		return nil
	}
	full, err := enc.CompleteSlacks(decision)
	if err != nil {
		return nil
	}
	return full
}
