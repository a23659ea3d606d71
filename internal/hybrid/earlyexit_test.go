package hybrid

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
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
	if got := trace.Root.Attrs["hybrid_dp"]; got != "optimal" {
		t.Errorf("hybrid_dp = %v, want optimal (attrs %v)", got, trace.Root.Attrs)
	}
}

// cancelledDP runs the real DP backend under an already-cancelled context,
// so its subset sweep never starts: a DP that never proves anything.
type cancelledDP struct{}

func (cancelledDP) Name() string { return "dp" }

func (cancelledDP) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	return service.NewDPBackend().Solve(cctx, enc, p)
}

// TestEarlyExitNeedsDPProof: without a vetted DP plan the quantum stage
// still launches — when DP is size-gated, when it predicts that its sweep
// would overrun the deadline, and when its sweep is interrupted — and the
// orchestration span's hybrid_dp attribute says which.
func TestEarlyExitNeedsDPProof(t *testing.T) {
	// A 21-relation clique sweeps in ~100–250 ms in a plain build and
	// several times slower under race; either way the predictor sees the
	// overrun within the first sixteenth of the sweep, early enough to
	// leave the quantum stage its minimum budget even on a loaded host
	// whose first sweep must also fault its 35 MiB of tables in.
	overrunDeadline := 60 * time.Millisecond
	if raceEnabled {
		overrunDeadline = 300 * time.Millisecond
	}
	cases := []struct {
		name      string
		relations int
		deadline  time.Duration
		cfg       Config
		dp        service.Backend
		want      string // hybrid_dp
	}{
		// 8 relations against a limit of 7: DP never runs.
		{"size-gated", 8, 300 * time.Millisecond, Config{MaxDPRelations: 7}, service.NewDPBackend(), "size_gated"},
		{"predicted-overrun", 21, overrunDeadline, Config{MaxDPRelations: 21}, service.NewDPBackend(), "predicted_overrun"},
		// 14 relations, cancelled before the sweep starts.
		{"interrupted", 14, 300 * time.Millisecond, Config{}, cancelledDP{}, "interrupted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.HedgeDelay = time.Millisecond
			b, slow := earlyExitSetup(t, tc.cfg, service.NewGreedyBackend(), tc.dp)
			q, enc := cliqueInstance(t, tc.relations, 22)
			tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
			ctx, cancel := context.WithTimeout(obs.NewContext(context.Background(), tracer), tc.deadline)
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
			if got := trace.Root.Attrs["hybrid_dp"]; got != tc.want {
				t.Errorf("hybrid_dp = %v, want %s", got, tc.want)
			}
		})
	}
}

// TestEarlyExitOnWarmEncoding: the dp backend memoises a complete
// sweep's optimum on the encoding, so a request on a warm encoding ends at
// stage 1 with the DP optimum under a deadline on which a cold sweep
// predicts an overrun. The deadline is a quarter of a measured sweep, so
// the cold sweep predicts the overrun before it starts or after a
// sixteenth of the work. The classical.dp span says whether the optimum
// was computed or reused.
func TestEarlyExitOnWarmEncoding(t *testing.T) {
	b, slow := earlyExitSetup(t, Config{HedgeDelay: time.Millisecond}, service.NewGreedyBackend(), service.NewDPBackend())
	q, enc := cliqueInstance(t, 20, 26)
	start := time.Now()
	if _, err := classical.Optimal(q); err != nil {
		t.Fatal(err)
	}
	tight := time.Since(start) / 4
	tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
	orchestrate := func(deadline time.Duration) (*Outcome, obs.TraceSnapshot) {
		t.Helper()
		ctx, cancel := context.WithTimeout(obs.NewContext(context.Background(), tracer), deadline)
		defer cancel()
		ctx, root := tracer.Start(ctx, "test-root")
		out, err := b.Orchestrate(ctx, enc, service.Params{Seed: 26})
		root.End(nil)
		if err != nil {
			t.Fatal(err)
		}
		trace, ok := tracer.Find(root.TraceID())
		if !ok {
			t.Fatal("trace was not stored despite SampleRate 1")
		}
		return out, trace
	}
	optimum := func(trace obs.TraceSnapshot) any {
		t.Helper()
		sp := findSpan(&trace.Root, "classical.dp")
		if sp == nil {
			t.Fatal("trace has no classical.dp span")
		}
		return sp.Attrs["optimum"]
	}

	_, trace := orchestrate(tight)
	if got := trace.Root.Attrs["hybrid_dp"]; got != "predicted_overrun" {
		t.Fatalf("cold encoding under %v: hybrid_dp = %v, want predicted_overrun", tight, got)
	}
	if got := optimum(trace); got != nil {
		t.Errorf("cold encoding under %v: optimum = %v on a sweep that gave up", tight, got)
	}
	out, trace := orchestrate(10 * time.Second)
	if got := optimum(trace); got != "computed" {
		t.Errorf("unhurried request: optimum = %v, want computed", got)
	}
	assertOptimal(t, q, out)
	calls := slow.calls.Load()

	out, trace = orchestrate(tight)
	if got := trace.Root.Attrs["hybrid_dp"]; got != "optimal" {
		t.Errorf("warm encoding under %v: hybrid_dp = %v, want optimal", tight, got)
	}
	if got := trace.Root.Attrs["hybrid_stage2"]; got != "skipped_dp_optimal" {
		t.Errorf("warm encoding under %v: hybrid_stage2 = %v, want skipped_dp_optimal", tight, got)
	}
	if got := optimum(trace); got != "reused" {
		t.Errorf("warm encoding: optimum = %v, want reused", got)
	}
	if n := slow.calls.Load() - calls; n != 0 {
		t.Errorf("warm encoding: portfolio Solve called %d times, want 0", n)
	}
	assertOptimal(t, q, out)
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

// TestEarlyExitDeadlineStratified20 is the deadline property at 20
// relations, the staged DP gate, on qjoind's default registry and
// portfolio:
//
//   - every answer arrives within its deadline plus epsilon, the slack for
//     the arbiter and for goroutine scheduling after the deadline: 10 ms,
//     or 25 ms under race, whose instrumented racers hold the processors
//     longer;
//   - no answer is worse than greedy;
//   - medium (100 ms) and loose (400 ms) requests end at the exact DP
//     plan, except under race, whose slower sweep the predictor may
//     rightly drop. A medium sweep that host load pushed past 100 ms must
//     have been dropped by prediction, not cut at the deadline.
//
// Tight (25 ms) requests cannot fit the sweep, so the predictor drops it.
// go test runs packages in parallel, so the host may be saturated by
// another package's tests; a request that breaks the property is re-run
// on a fresh encoding, up to three attempts, and fails the test only if
// every attempt does.
func TestEarlyExitDeadlineStratified20(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Pegasus M=6 annealer and sweeps 16 20-relation DPs")
	}
	epsilon := 10 * time.Millisecond
	if raceEnabled {
		epsilon = 25 * time.Millisecond
	}
	const attempts = 3
	items, err := querygen.DeadlineStratified(querygen.WorkloadConfig{Relations: 20, PerCell: 1, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Registry: service.DefaultRegistry(service.RegistryConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, it := range items {
		greedy := classical.Greedy(it.Query).Cost
		opt, err := classical.Optimal(it.Query)
		if err != nil {
			t.Fatal(err)
		}
		var problems []string
		for a := 1; a <= attempts; a++ {
			// A fresh encoding per attempt: the dp backend memoises a
			// completed sweep on the encoding, and a re-run must sweep
			// cold as the first attempt did.
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
			problems = problems[:0]
			if elapsed > it.Deadline+epsilon {
				problems = append(problems, fmt.Sprintf("answered after %v, deadline %v + epsilon %v", elapsed, it.Deadline, epsilon))
			}
			cost := it.Query.Cost(out.Best.Order)
			if cost > greedy*(1+1e-9) {
				problems = append(problems, fmt.Sprintf("plan cost %v (winner %s) worse than greedy %v", cost, out.Winner, greedy))
			}
			exact := cost <= opt.Cost*(1+1e-9)
			switch {
			case exact || raceEnabled || it.Class == querygen.ClassTight:
			case it.Class == querygen.ClassMedium && predictedOverrun(out, it.Deadline):
				t.Logf("%s: dp predicted an overrun and gave way after %v", it.Name, dpCandidate(out).Elapsed)
			default:
				problems = append(problems, fmt.Sprintf("plan cost %v (winner %s), want the DP optimum %v", cost, out.Winner, opt.Cost))
			}
			// Racers cut off by the deadline exit on their own; let them
			// go before the next request, so that requests do not slow
			// each other.
			settleGoroutines(t, base)
			if len(problems) == 0 {
				break
			}
			t.Logf("%s: attempt %d of %d: %s", it.Name, a, attempts, strings.Join(problems, "; "))
		}
		if len(problems) > 0 {
			t.Errorf("%s: every attempt broke the deadline property, the last: %s", it.Name, strings.Join(problems, "; "))
		}
	}
}

// dpCandidate returns the outcome's dp candidate, or a zero one.
func dpCandidate(out *Outcome) Candidate {
	for _, c := range out.Candidates {
		if c.Backend == "dp" {
			return c
		}
	}
	return Candidate{}
}

// predictedOverrun reports whether the outcome's DP sweep gave up before
// the deadline because it predicted it could not finish in time.
func predictedOverrun(out *Outcome, deadline time.Duration) bool {
	c := dpCandidate(out)
	return errors.Is(c.Err, context.DeadlineExceeded) && c.Elapsed < deadline
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
