package hybrid

import (
	"context"
	"testing"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/faults"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

// earlyExitSetup registers a counting slowBackend as the whole quantum
// portfolio beside the given classical backends.
func earlyExitSetup(t *testing.T, cfg Config, classicalBackends ...service.Backend) (*Backend, *slowBackend) {
	t.Helper()
	reg := service.NewRegistry()
	slow := &slowBackend{}
	for _, be := range append(classicalBackends, slow) {
		if err := reg.Register(be); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Registry = reg
	cfg.Portfolio = []string{"slow"}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b, slow
}

// assertOptimal fails unless the outcome's plan has the exact DP cost.
func assertOptimal(t *testing.T, q *join.Query, out *Outcome) {
	t.Helper()
	opt, err := classical.Optimal(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Cost(out.Best.Order); got > opt.Cost*(1+1e-9) {
		t.Errorf("plan cost %v (winner %s), want the DP optimum %v", got, out.Winner, opt.Cost)
	}
}

// TestEarlyExitSkipsQuantumStage: once DP has returned a vetted plan the
// staged strategy answers at once — no hedge sleep, no portfolio launch —
// and says why on the orchestration span.
func TestEarlyExitSkipsQuantumStage(t *testing.T) {
	const hedge = 2 * time.Second
	b, slow := earlyExitSetup(t, Config{HedgeDelay: hedge},
		service.NewGreedyBackend(), service.NewDPBackend())
	q, enc := cliqueInstance(t, 8, 21)

	tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
	ctx, cancel := context.WithTimeout(obs.NewContext(context.Background(), tracer), 10*time.Second)
	defer cancel()
	ctx, root := tracer.Start(ctx, "test-root")
	start := time.Now()
	out, err := b.Orchestrate(ctx, enc, service.Params{Seed: 21})
	elapsed := time.Since(start)
	root.End(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := slow.calls.Load(); n != 0 {
		t.Errorf("portfolio Solve called %d times, want 0", n)
	}
	if elapsed > hedge/10 {
		t.Errorf("request took %v, want well under the %v hedge delay", elapsed, hedge)
	}
	assertOptimal(t, q, out)

	trace, ok := tracer.Find(root.TraceID())
	if !ok {
		t.Fatal("trace was not stored despite SampleRate 1")
	}
	if findSpan(&trace.Root, "racer.slow") != nil {
		t.Error("trace has a racer span for the portfolio")
	}
	if got := trace.Root.Attrs["hybrid_stage2"]; got != "skipped_dp_optimal" {
		t.Errorf("hybrid_stage2 = %v, want skipped_dp_optimal (attrs %v)", got, trace.Root.Attrs)
	}
}

// cancelledDP runs the real DP backend under an already-cancelled context,
// so its subset sweep stops at the first poll: a DP that never proves
// anything.
type cancelledDP struct{}

func (cancelledDP) Name() string { return "dp" }

func (cancelledDP) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	return service.NewDPBackend().Solve(cctx, enc, p)
}

// TestEarlyExitNeedsDPProof: without a vetted DP plan the quantum stage
// still launches — when DP is size-gated and when its sweep is interrupted.
func TestEarlyExitNeedsDPProof(t *testing.T) {
	cases := []struct {
		name      string
		relations int
		cfg       Config
		dp        service.Backend
	}{
		// 8 relations against a limit of 7: DP never runs.
		{"size-gated", 8, Config{MaxDPRelations: 7}, service.NewDPBackend()},
		// 14 relations: the sweep passes its first context poll (every
		// 8192 subsets) and sees the cancellation.
		{"interrupted", 14, Config{}, cancelledDP{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.HedgeDelay = time.Millisecond
			b, slow := earlyExitSetup(t, tc.cfg, service.NewGreedyBackend(), tc.dp)
			q, enc := cliqueInstance(t, tc.relations, 22)
			tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
			ctx, cancel := context.WithTimeout(obs.NewContext(context.Background(), tracer), 300*time.Millisecond)
			defer cancel()
			ctx, root := tracer.Start(ctx, "test-root")
			out, err := b.Orchestrate(ctx, enc, service.Params{Seed: 22})
			root.End(nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := slow.calls.Load(); n != 1 {
				t.Errorf("portfolio Solve called %d times, want 1", n)
			}
			if out.Winner != "greedy" || !out.Best.Order.IsPermutation(q.NumRelations()) {
				t.Errorf("winner %q with order %v, want greedy's valid plan", out.Winner, out.Best.Order)
			}
			trace, ok := tracer.Find(root.TraceID())
			if !ok {
				t.Fatal("trace was not stored despite SampleRate 1")
			}
			if findSpan(&trace.Root, "racer.slow") == nil {
				t.Error("trace is missing racer.slow")
			}
			if got, ok := trace.Root.Attrs["hybrid_stage2"]; ok {
				t.Errorf("hybrid_stage2 = %v on a request whose DP proved nothing", got)
			}
		})
	}
}

// TestEarlyExitDeadlineStratified is the deadline property at the
// DP-sized end of the shared mixed-deadline workload: every staged answer
// is optimal and arrives within its deadline plus epsilon, the slack left
// for goroutine scheduling under -race on a loaded CI runner. No request
// launches the portfolio.
func TestEarlyExitDeadlineStratified(t *testing.T) {
	const epsilon = 5 * time.Millisecond
	items, err := querygen.DeadlineStratified(querygen.WorkloadConfig{Relations: 8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	b, slow := earlyExitSetup(t, Config{}, service.NewGreedyBackend(), service.NewDPBackend())
	for _, it := range items {
		enc, err := core.Encode(it.Query, core.Options{Thresholds: core.DefaultThresholds(it.Query, 2)})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), it.Deadline)
		out, err := b.Orchestrate(ctx, enc, service.Params{Seed: it.Seed})
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", it.Name, err)
		}
		if elapsed > it.Deadline+epsilon {
			t.Errorf("%s: answered after %v, deadline %v + epsilon %v", it.Name, elapsed, it.Deadline, epsilon)
		}
		assertOptimal(t, it.Query, out)
	}
	if n := slow.calls.Load(); n != 0 {
		t.Errorf("portfolio Solve called %d times over %d requests, want 0", n, len(items))
	}
}

// TestEarlyExitUnderChaos wraps dp in the chaos injector with every result
// corrupted. A soft lie (cost halved) leaves the order exact, so the
// request still ends at DP with the optimum; a hard one (a duplicated
// relation) fails vetting, so the quantum stage must run.
func TestEarlyExitUnderChaos(t *testing.T) {
	q, enc := cliqueInstance(t, 8, 24)
	dp := faults.Inject(service.NewDPBackend(), faults.InjectorConfig{CorruptProb: 1, Seed: 24})
	// The corruption kind is a pure function of the request seed; find
	// one seed of each kind.
	seeds := map[bool]int64{} // hard corruption → seed
	for s := int64(0); len(seeds) < 2 && s < 64; s++ {
		d, err := dp.Solve(context.Background(), enc, service.Params{Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		hard := !d.Order.IsPermutation(q.NumRelations())
		if _, ok := seeds[hard]; !ok {
			seeds[hard] = s
		}
	}
	if len(seeds) < 2 {
		t.Fatalf("found seeds only for hard-corruption = %v", seeds)
	}
	for _, hard := range []bool{false, true} {
		b, slow := earlyExitSetup(t, Config{HedgeDelay: time.Millisecond}, service.NewGreedyBackend(), dp)
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		out, err := b.Orchestrate(ctx, enc, service.Params{Seed: seeds[hard]})
		cancel()
		if err != nil {
			t.Fatalf("hard=%v: %v", hard, err)
		}
		wantCalls := int64(0)
		if hard {
			wantCalls = 1
		} else {
			assertOptimal(t, q, out)
		}
		if n := slow.calls.Load(); n != wantCalls {
			t.Errorf("hard=%v: portfolio Solve called %d times, want %d", hard, n, wantCalls)
		}
	}
}
