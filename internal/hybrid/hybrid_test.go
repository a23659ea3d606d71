package hybrid

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

// cliqueInstance generates a clique query of n relations and its encoding.
func cliqueInstance(t testing.TB, n int, seed int64) (*join.Query, *core.Encoding) {
	t.Helper()
	q, err := querygen.Generate(querygen.Config{Relations: n, Graph: querygen.Clique}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 2)})
	if err != nil {
		t.Fatal(err)
	}
	return q, enc
}

// testRegistry holds the classical stage plus tabu as the quantum-adjacent
// portfolio member (fast enough for unit tests) and a deliberately tiny
// annealer whose embedding fails on big instances, exercising the
// degraded-portfolio path.
func testRegistry(t testing.TB) *service.Registry {
	t.Helper()
	r := service.NewRegistry()
	for _, b := range []service.Backend{
		service.NewDPBackend(),
		service.NewGreedyBackend(),
		service.NewTabuBackend(),
		service.NewAnnealBackend(2),
	} {
		if err := r.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// slowBackend blocks until its context is cancelled — a stand-in for a
// stalled solver in racing and cancellation tests. It counts its calls so
// tests can tell whether a strategy launched it at all.
type slowBackend struct {
	released chan struct{} // closed when Solve observes cancellation
	calls    atomic.Int64
}

func (s *slowBackend) Name() string { return "slow" }

func (s *slowBackend) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	s.calls.Add(1)
	<-ctx.Done()
	if s.released != nil {
		close(s.released)
	}
	return nil, ctx.Err()
}

// settleGoroutines waits for the goroutine count to come back to (near)
// base, failing the test if orchestration leaked workers.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d running, base was %d", runtime.NumGoroutine(), base)
}

// TestStagedShortDeadlineAlwaysValid is the availability half of the
// acceptance criteria: a 50ms deadline on a 10-relation clique must always
// come back with a valid join order (the classical incumbent), regardless
// of what the quantum stage manages in the remaining budget.
func TestStagedShortDeadlineAlwaysValid(t *testing.T) {
	reg := testRegistry(t)
	b, err := New(Config{Registry: reg, Portfolio: []string{"tabu", "anneal"}, HedgeDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		q, enc := cliqueInstance(t, 10, seed)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		d, err := b.Solve(ctx, enc, service.Params{Reads: 100, Seed: seed})
		cancel()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !d.Valid || !d.Order.IsPermutation(q.NumRelations()) {
			t.Fatalf("seed %d: invalid result %+v", seed, d)
		}
	}
}

// TestStagedMatchesBestSingleBackend is the quality half: with a generous
// deadline on a 10-relation clique, the arbitrated plan cost must not
// exceed what any single backend achieves on the same seed.
func TestStagedMatchesBestSingleBackend(t *testing.T) {
	reg := testRegistry(t)
	b, err := New(Config{Registry: reg, Portfolio: []string{"tabu"}, HedgeDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 42
	q, enc := cliqueInstance(t, 10, seed)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	out, err := b.Orchestrate(ctx, enc, service.Params{Reads: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	hybridCost := q.Cost(out.Best.Order)

	for _, name := range []string{"greedy", "dp", "tabu"} {
		be, _ := reg.Get(name)
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		d, err := be.Solve(sctx, enc, service.Params{Reads: 4, Seed: seed})
		scancel()
		if err != nil {
			// A single backend producing nothing valid is a legitimate
			// outcome the hybrid trivially beats.
			t.Logf("%s alone found no valid plan (%v); hybrid wins by default", name, err)
			continue
		}
		single := q.Cost(d.Order)
		if hybridCost > single*(1+1e-9) {
			t.Errorf("hybrid cost %v worse than single backend %s at %v", hybridCost, name, single)
		}
	}
	if out.Winner == "" || out.Best == nil {
		t.Errorf("outcome missing winner/best: %+v", out)
	}
	// The classical stage always contributes both its candidates; the
	// quantum candidate may be abandoned at the deadline under -race.
	seen := map[string]bool{}
	for _, c := range out.Candidates {
		seen[c.Backend] = true
	}
	if !seen["greedy"] || !seen["dp"] {
		t.Errorf("classical candidates missing: %+v", seen)
	}
}

// TestStagedCancellationReleasesWorkers cancels the parent mid-quantum-
// stage and checks the portfolio goroutines exit. DP is gated below the
// instance size: an exact DP incumbent would end the request before the
// quantum stage ever launched.
func TestStagedCancellationReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := testRegistry(t)
	slow := &slowBackend{released: make(chan struct{})}
	if err := reg.Register(slow); err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Registry: reg, HedgeDelay: time.Millisecond, MaxDPRelations: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, enc := cliqueInstance(t, 6, 8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, err := b.Orchestrate(ctx, enc, service.Params{
			Seed:   8,
			Hybrid: service.HybridParams{Portfolio: []string{"slow"}},
		})
		// The classical incumbent survives the cancellation.
		if err != nil {
			t.Errorf("orchestrate: %v", err)
		} else if out.Best == nil || !out.Best.Valid {
			t.Errorf("no valid incumbent after cancellation: %+v", out)
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the quantum stage launch
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("orchestration did not return after cancellation")
	}
	select {
	case <-slow.released:
	case <-time.After(2 * time.Second):
		t.Fatal("slow racer never launched or never observed cancellation")
	}
	settleGoroutines(t, base)
}

func TestPortfolioValidation(t *testing.T) {
	reg := testRegistry(t)
	b, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	_, enc := cliqueInstance(t, 4, 9)
	ctx := context.Background()

	for name, portfolio := range map[string][]string{
		"recursive portfolio": {"hybrid"},
		"unknown backend":     {"warp-drive"},
	} {
		_, err := b.Orchestrate(ctx, enc, service.Params{Hybrid: service.HybridParams{Portfolio: portfolio}})
		if !errors.Is(err, service.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}

	// A default portfolio quietly drops unregistered names instead.
	slim := service.NewRegistry()
	if err := slim.Register(service.NewGreedyBackend()); err != nil {
		t.Fatal(err)
	}
	sb, err := New(Config{Registry: slim, HedgeDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sb.Solve(ctx, enc, service.Params{})
	if err != nil || !d.Valid {
		t.Errorf("slim-registry solve: d=%+v err=%v", d, err)
	}
}

// TestNewAcceptsOnlyStaged: the deprecated Config.Strategy takes "" or
// "staged" and nothing else.
func TestNewAcceptsOnlyStaged(t *testing.T) {
	reg := testRegistry(t)
	for _, s := range []string{"", StrategyStaged} {
		if _, err := New(Config{Registry: reg, Strategy: s}); err != nil {
			t.Errorf("strategy %q: %v", s, err)
		}
	}
	for _, s := range []string{"race", "learned"} {
		if _, err := New(Config{Registry: reg, Strategy: s}); err == nil {
			t.Errorf("strategy %q accepted", s)
		}
	}
}

func TestArbiterRecordsWinsAndLosses(t *testing.T) {
	reg := testRegistry(t)
	m := service.NewMetrics()
	b, err := New(Config{Registry: reg, Metrics: m, Portfolio: []string{"tabu"}, HedgeDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, enc := cliqueInstance(t, 6, 11)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := b.Orchestrate(ctx, enc, service.Params{Reads: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot(nil)
	var wins, losses int64
	for _, bs := range snap.Backends {
		wins += bs.Wins
		losses += bs.Losses
	}
	if wins != 1 {
		t.Errorf("total wins = %d, want exactly 1", wins)
	}
	if want := int64(len(out.Candidates) - 1); losses != want {
		t.Errorf("total losses = %d, want %d", losses, want)
	}
	if ws := snap.Backends[out.Winner]; ws.Wins != 1 {
		t.Errorf("winner %q has %d wins", out.Winner, ws.Wins)
	}
	// The arbiter also observed each candidate's latency.
	for _, c := range out.Candidates {
		if bs := snap.Backends[c.Backend]; bs.Latency.Count == 0 {
			t.Errorf("backend %q has no latency observations", c.Backend)
		}
	}
}

// TestWarmStartReachesQuantumStage pins the warm-start plumbing end to
// end: the staged strategy must hand the portfolio a full QUBO assignment
// built from the classical incumbent. DP is gated below the instance size
// so the incumbent is greedy's and the quantum stage runs.
func TestWarmStartReachesQuantumStage(t *testing.T) {
	reg := service.NewRegistry()
	for _, b := range []service.Backend{service.NewDPBackend(), service.NewGreedyBackend()} {
		if err := reg.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	var got []bool
	probe := &probeBackend{onSolve: func(p service.Params) { got = p.InitialState }}
	if err := reg.Register(probe); err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Registry: reg, Portfolio: []string{"probe"}, HedgeDelay: time.Millisecond, MaxDPRelations: 5})
	if err != nil {
		t.Fatal(err)
	}
	q, enc := cliqueInstance(t, 6, 13)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := b.Orchestrate(ctx, enc, service.Params{Seed: 13}); err != nil {
		t.Fatal(err)
	}
	if len(got) != enc.NumQubits() {
		t.Fatalf("portfolio received initial state of %d vars, want %d", len(got), enc.NumQubits())
	}
	// The warm state must decode back to a valid plan at least as good as
	// greedy (it came from the classical incumbent).
	d := enc.Decode(got)
	if !d.Valid {
		t.Fatal("warm state does not decode to a valid plan")
	}
	greedy, _ := reg.Get("greedy")
	gd, err := greedy.Solve(ctx, enc, service.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost > q.Cost(gd.Order)*(1+1e-9) {
		t.Errorf("warm state cost %v worse than greedy %v", d.Cost, q.Cost(gd.Order))
	}
}

// probeBackend records the params it was called with and fails, so the
// arbiter falls back to the classical incumbent.
type probeBackend struct {
	onSolve func(service.Params)
}

func (p *probeBackend) Name() string { return "probe" }

func (p *probeBackend) Solve(ctx context.Context, enc *core.Encoding, params service.Params) (*core.Decoded, error) {
	if p.onSolve != nil {
		p.onSolve(params)
	}
	return nil, errors.New("probe: no result")
}

// BenchmarkHybrid measures one staged orchestration on a mid-size chain
// (the CI smoke runs it with -benchtime 1x).
func BenchmarkHybrid(b *testing.B) {
	reg := testRegistry(b)
	hb, err := New(Config{Registry: reg, Portfolio: []string{"tabu"}, HedgeDelay: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	q, err := querygen.Generate(querygen.Config{Relations: 8, Graph: querygen.Chain}, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 2)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if _, err := hb.Solve(ctx, enc, service.Params{Reads: 50, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
}
