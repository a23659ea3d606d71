package hybrid

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

// preparedClique is an unbuilt encoding of an n-relation clique, as the
// service's encoding cache hands it to a backend on a miss.
func preparedClique(t *testing.T, n int, seed int64) (*join.Query, *core.Encoding) {
	t.Helper()
	q, err := querygen.Generate(querygen.Config{Relations: n, Graph: querygen.Clique}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.Prepare(q, core.Options{Thresholds: core.DefaultThresholds(q, 3)})
	if err != nil {
		t.Fatal(err)
	}
	return q, enc
}

// orchestrateTraced runs one orchestration under a stored root span and
// returns the outcome and the root's attributes.
func orchestrateTraced(t *testing.T, b *Backend, enc *core.Encoding, deadline time.Duration, p service.Params) (*Outcome, map[string]any) {
	t.Helper()
	tracer := obs.NewTracer(obs.Options{Capacity: 4, SampleRate: 1})
	ctx, cancel := context.WithTimeout(obs.NewContext(context.Background(), tracer), deadline)
	defer cancel()
	ctx, root := tracer.Start(ctx, "test-root")
	out, err := b.Orchestrate(ctx, enc, p)
	root.End(nil)
	if err != nil {
		t.Fatal(err)
	}
	trace, ok := tracer.Find(root.TraceID())
	if !ok {
		t.Fatal("trace was not stored despite SampleRate 1")
	}
	return out, trace.Root.Attrs
}

// TestLazyQUBOHybridDPOptimalStaysUnbuilt: a request that DP proves
// optimal ends at stage 1, which reads only the query, so its encoding is
// never built.
func TestLazyQUBOHybridDPOptimalStaysUnbuilt(t *testing.T) {
	b, slow := earlyExitSetup(t, Config{HedgeDelay: time.Millisecond},
		service.NewGreedyBackend(), service.NewDPBackend())
	q, enc := preparedClique(t, 8, 31)
	out, attrs := orchestrateTraced(t, b, enc, 10*time.Second, service.Params{Seed: 31})
	if got := attrs["hybrid_stage2"]; got != "skipped_dp_optimal" {
		t.Fatalf("hybrid_stage2 = %v, want skipped_dp_optimal", got)
	}
	if enc.Built() || enc.QUBO != nil {
		t.Error("a request that ended at DP built the QUBO")
	}
	if _, ok := attrs["qubo"]; ok {
		t.Errorf("a request that ended at DP says qubo=%v", attrs["qubo"])
	}
	if n := slow.calls.Load(); n != 0 {
		t.Errorf("portfolio Solve called %d times, want 0", n)
	}
	assertOptimal(t, q, out)
}

// TestLazyQUBOHybridBuildOverBudget: when stage 2 would launch but the
// predicted build of a cold ~11,250-qubit clique (0.24–0.32 s measured,
// more predicted) cannot fit the deadline, the request skips the launch
// at once, says build_over_budget, answers with the stage-1 incumbent and
// leaves the encoding unbuilt. The same request with the QUBO already
// built launches the portfolio.
func TestLazyQUBOHybridBuildOverBudget(t *testing.T) {
	const deadline = 150 * time.Millisecond
	// With no dp backend and hedging off, stage 2 is due at once.
	b, slow := earlyExitSetup(t, Config{HedgeDelay: -1}, service.NewGreedyBackend())
	q, enc := preparedClique(t, 20, 32)
	start := time.Now()
	out, attrs := orchestrateTraced(t, b, enc, deadline, service.Params{Seed: 32})
	elapsed := time.Since(start)
	if got := attrs["hybrid_stage2"]; got != "build_over_budget" {
		t.Fatalf("hybrid_stage2 = %v, want build_over_budget", got)
	}
	if enc.Built() || enc.QUBO != nil {
		t.Error("a build predicted to overrun ran anyway")
	}
	if n := slow.calls.Load(); n != 0 {
		t.Errorf("portfolio Solve called %d times, want 0", n)
	}
	if out.Winner != "greedy" || q.Cost(out.Best.Order) != classical.Greedy(q).Cost {
		t.Errorf("winner %s with cost %v, want the greedy incumbent", out.Winner, q.Cost(out.Best.Order))
	}
	if elapsed > deadline/2 {
		t.Errorf("answered after %v; a skipped launch should answer at once", elapsed)
	}

	if err := enc.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, attrs = orchestrateTraced(t, b, enc, deadline, service.Params{Seed: 32})
	if got, ok := attrs["hybrid_stage2"]; ok {
		t.Errorf("built encoding: hybrid_stage2 = %v, want the portfolio launched", got)
	}
	if got := attrs["qubo"]; got != "reused" {
		t.Errorf("built encoding: qubo = %v, want reused", got)
	}
	if n := slow.calls.Load(); n != 1 {
		t.Errorf("built encoding: portfolio Solve called %d times, want 1", n)
	}
}

// TestLazyQUBOHybridColdClique is the cold-build deadline property: a
// 20-relation clique never seen before, sent to hybrid through
// service.Optimize on qjoind's registry and default portfolio with a
// 25 ms deadline, answers in time, not degraded, with a plan no worse
// than greedy, both with degradation on (qjoind's default) and off. The
// service no longer builds the ~11,250-qubit QUBO (0.2–0.3 s) before the
// hybrid backend runs, and the backend does not build it either: DP
// predicts an overrun and the capped hedge leaves no budget to launch.
// epsilon is the slack the other deadline tests give the scheduler.
func TestLazyQUBOHybridColdClique(t *testing.T) {
	const deadline = 25 * time.Millisecond
	epsilon := 10 * time.Millisecond
	if raceEnabled {
		epsilon = 25 * time.Millisecond
	}
	for _, degrade := range []bool{true, false} {
		reg := service.DefaultRegistry(service.RegistryConfig{PegasusM: 3})
		svc := service.New(reg, service.Config{Workers: 2, Degrade: degrade})
		hb, err := New(Config{Registry: reg, Metrics: svc.Metrics()})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(hb); err != nil {
			t.Fatal(err)
		}
		q, _ := preparedClique(t, 20, 33)
		start := time.Now()
		resp, err := svc.Optimize(context.Background(), &service.Request{
			Query: q, Backend: Name, Timeout: deadline, Lean: true, Params: service.Params{Seed: 33},
		})
		elapsed := time.Since(start)
		svc.Close(context.Background())
		if err != nil {
			t.Fatalf("degrade %v: %v", degrade, err)
		}
		if resp.CacheHit {
			t.Fatalf("degrade %v: the clique was already cached", degrade)
		}
		if elapsed > deadline+epsilon {
			t.Errorf("degrade %v: answered after %v, deadline %v + epsilon %v", degrade, elapsed, deadline, epsilon)
		}
		if resp.Degraded || resp.Backend != Name {
			t.Errorf("degrade %v: answered by %s (degraded %v: %s), want hybrid", degrade, resp.Backend, resp.Degraded, resp.DegradedReason)
		}
		if greedy := classical.Greedy(q).Cost; resp.Cost > greedy*(1+1e-9) {
			t.Errorf("degrade %v: plan cost %v is worse than greedy %v", degrade, resp.Cost, greedy)
		}
	}
}
