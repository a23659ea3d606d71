package service_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/decomp"
	"quantumjoin/internal/faults"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

func genQuery(t *testing.T, n int, g querygen.GraphType, seed int64) *join.Query {
	t.Helper()
	q, err := querygen.Generate(querygen.Config{Relations: n, Graph: g}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSinglePathDecompCacheHit: decomp runs on the query's prepared cache
// entry like dp and greedy: a repeated shape, relabelled too, is a cache
// hit, every response reports the entry's qubit count, and nothing builds
// the QUBO.
func TestSinglePathDecompCacheHit(t *testing.T) {
	tracer := obs.NewTracer(obs.Options{Capacity: 16, SampleRate: 1})
	svc, _ := lazyService(t, false, tracer)
	q := genQuery(t, 24, querygen.Tree, 3)
	enc, err := core.Prepare(q, core.Options{Thresholds: core.DefaultThresholds(q, 3)})
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(4)).Perm(q.NumRelations())
	var cost float64
	for i, rq := range []*join.Query{q, q, permuted(q, perm)} {
		resp, err := svc.Optimize(context.Background(), &service.Request{Query: rq, Backend: decomp.Name, Lean: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Backend != decomp.Name || resp.Degraded {
			t.Fatalf("request %d: answered by %s (degraded %v: %s)", i, resp.Backend, resp.Degraded, resp.DegradedReason)
		}
		if resp.CacheHit != (i > 0) {
			t.Errorf("request %d: cache_hit = %v, want %v", i, resp.CacheHit, i > 0)
		}
		if resp.LogicalQubits != enc.NumQubits() {
			t.Errorf("request %d: logical_qubits = %d, want the entry's %d", i, resp.LogicalQubits, enc.NumQubits())
		}
		if i == 0 {
			cost = resp.Cost
		} else if d := resp.Cost - cost; d > 1e-9*cost || d < -1e-9*cost {
			t.Errorf("request %d: cost %v, the first request's %v", i, resp.Cost, cost)
		}
		if n := countSpans(&tracer.Snapshots()[0].Root, "encode"); n != 0 {
			t.Errorf("request %d built the QUBO (%d encode spans)", i, n)
		}
	}
}

// TestSinglePathDecompBatchDedup: identical decomp items of a batch, and
// relabellings of them, dedupe into one solve, while an item of the same
// shape with another part budget is solved apart and gets its own plan.
func TestSinglePathDecompBatchDedup(t *testing.T) {
	svc, _ := lazyService(t, false, nil)
	// At 40 relations this tree plans differently with parts of 3 and 12.
	q := genQuery(t, 40, querygen.Tree, 0)
	req := func(q *join.Query, budget int) *service.Request {
		return &service.Request{Query: q, Backend: decomp.Name, Lean: true,
			Params: service.Params{Decomp: service.DecompParams{PartBudget: budget}}}
	}
	alone := map[int]float64{}
	for _, budget := range []int{3, 12} {
		resp, err := svc.Optimize(context.Background(), req(q, budget))
		if err != nil {
			t.Fatal(err)
		}
		alone[budget] = resp.Cost
	}
	if alone[3] == alone[12] {
		t.Fatalf("part budgets 3 and 12 both cost %v: the query cannot tell the groups apart", alone[3])
	}

	rq := permuted(q, rand.New(rand.NewSource(9)).Perm(q.NumRelations()))
	reqs := []*service.Request{req(q, 12), req(q, 3), req(q, 12), req(rq, 12)}
	resps, errs, stats := svc.OptimizeBatch(context.Background(), reqs, 10*time.Second)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		budget := reqs[i].Params.Decomp.PartBudget
		if got, want := resps[i].Cost, alone[budget]; got-want > 1e-9*want || want-got > 1e-9*want {
			t.Errorf("item %d (part budget %d): cost %v, alone %v", i, budget, got, want)
		}
		if !resps[i].CacheHit {
			t.Errorf("item %d: not a cache hit on a shape solved before", i)
		}
	}
	if stats.Unique != 2 {
		t.Errorf("batch solved %d unique instances, want 2 (one per part budget)", stats.Unique)
	}
}

// TestSinglePathDecompFailureDegrades: a failing decomp (here behind a
// fault injector that rejects every job) degrades to the classical
// fallback like any backend, and the fallback's degraded counter moves.
func TestSinglePathDecompFailureDegrades(t *testing.T) {
	svc, reg := lazyService(t, false, nil)
	be, _ := reg.Get(decomp.Name)
	if err := reg.Replace(faults.Inject(be, faults.InjectorConfig{RejectProb: 1, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{8, 40} {
		q := genQuery(t, n, querygen.Chain, int64(n))
		resp, err := svc.Optimize(context.Background(), &service.Request{Query: q, Backend: decomp.Name})
		if err != nil {
			t.Fatalf("%d relations: %v", n, err)
		}
		if !resp.Degraded || resp.DegradedReason == "" {
			t.Fatalf("%d relations: expected a degraded response, got %+v", n, resp)
		}
		if !resp.Order.IsPermutation(n) {
			t.Errorf("%d relations: degraded order %v is not a plan", n, resp.Order)
		}
	}
	snap := svc.MetricsSnapshot().Backends
	if dp, greedy := snap["dp"], snap["greedy"]; dp.Degraded != 1 || greedy.Degraded != 1 || dp.Wins != 0 || greedy.Wins != 0 {
		t.Errorf("fallback snapshots dp %+v, greedy %+v; want one degraded answer each (8 relations: dp, 40: greedy)", dp, greedy)
	}
}

// TestSinglePathSizeMatrix: at 40 relations, above the monolithic QUBO
// limit and the DP limit, with Degrade on, bare and with the samplers
// behind the resilience wrappers: decomp, greedy and hybrid answer (hybrid from its classical
// stage, its quantum stage skipped as build_failed), and dp, anneal, tabu,
// milp and qaoa answer a bad request naming decomp — every time, without
// degrading and without tripping a breaker.
func TestSinglePathSizeMatrix(t *testing.T) {
	q := genQuery(t, 40, querygen.Cycle, 5)
	for _, wrapped := range []bool{false, true} {
		tracer := obs.NewTracer(obs.Options{Capacity: 64, SampleRate: 1})
		svc, _ := lazyService(t, wrapped, tracer)
		for _, name := range []string{decomp.Name, "greedy", hybrid.Name} {
			resp, err := svc.Optimize(context.Background(), &service.Request{Query: q, Backend: name, Timeout: 5 * time.Second})
			if err != nil {
				t.Fatalf("%s (wrapped %v): %v", name, wrapped, err)
			}
			if resp.Backend != name || resp.Degraded || !resp.Order.IsPermutation(q.NumRelations()) {
				t.Errorf("%s (wrapped %v): answered by %s, degraded %v (%s), order %v", name, wrapped, resp.Backend, resp.Degraded, resp.DegradedReason, resp.Order)
			}
			if name == hybrid.Name {
				root := tracer.Snapshots()[0].Root
				if got := findAttr(&root, "hybrid_stage2"); got != "build_failed" {
					t.Errorf("hybrid (wrapped %v): hybrid_stage2 = %v, want build_failed", wrapped, got)
				}
			}
		}
		for _, name := range []string{"dp", "anneal", "tabu", "milp", "qaoa"} {
			// More requests than the breaker's consecutive-failure limit.
			for i := 0; i < 6; i++ {
				resp, err := svc.Optimize(context.Background(), &service.Request{Query: q, Backend: name, Timeout: 5 * time.Second})
				if !errors.Is(err, service.ErrBadRequest) || !strings.Contains(err.Error(), "decomp") {
					t.Fatalf("%s (wrapped %v) request %d: (%+v, %v), want a bad request naming decomp", name, wrapped, i, resp, err)
				}
			}
		}
		for name, h := range svc.Health() {
			if h.State != service.HealthOK || h.Trips != 0 || h.ConsecutiveFailures != 0 {
				t.Errorf("%s (wrapped %v): breaker %+v after the size matrix", name, wrapped, h)
			}
		}
		if wrapped && len(svc.Health()) != 4 {
			t.Errorf("%d breakers report health, want one per sampler", len(svc.Health()))
		}
	}
}

// TestBuildAdmissionMeetsDeadline: a tabu request with a 25 ms deadline on
// a cold 21-relation clique (~13,000 qubits, a build of a second or so)
// does not start the build: it fails on its deadline at once, or degrades
// under Degrade, and leaves the entry unbuilt for a request with time to
// build it.
func TestBuildAdmissionMeetsDeadline(t *testing.T) {
	q := genQuery(t, 21, querygen.Clique, 1)
	const timeout = 25 * time.Millisecond
	for _, degrade := range []bool{false, true} {
		tracer := obs.NewTracer(obs.Options{Capacity: 4, SampleRate: 1})
		reg := service.NewRegistry()
		for _, be := range []service.Backend{service.NewTabuBackend(), service.NewDPBackend(), service.NewGreedyBackend()} {
			if err := reg.Register(be); err != nil {
				t.Fatal(err)
			}
		}
		svc := service.New(reg, service.Config{Workers: 1, Degrade: degrade, Tracer: tracer})
		start := time.Now()
		resp, err := svc.Optimize(context.Background(), &service.Request{Query: q, Backend: "tabu", Timeout: timeout, Lean: true})
		elapsed := time.Since(start)
		svc.Close(context.Background())
		if degrade {
			if err != nil || !resp.Degraded || !strings.Contains(resp.DegradedReason, "predicted") {
				t.Fatalf("degrade on: (%+v, %v), want a degraded answer naming the predicted build", resp, err)
			}
		} else if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("degrade off: err = %v, want a deadline error", err)
		}
		if elapsed > timeout {
			t.Errorf("degrade %v: answered after %v, past its %v deadline", degrade, elapsed, timeout)
		}
		root := tracer.Snapshots()[0].Root
		if n, attr := countSpans(&root, "encode"), findAttr(&root, "qubo"); n != 0 || attr != nil {
			t.Errorf("degrade %v: %d encode spans, qubo=%v; want the build never started", degrade, n, attr)
		}
	}
}

// findAttr returns the value of attribute key on the first span under s
// that carries it, or nil.
func findAttr(s *obs.SpanSnapshot, key string) any {
	if v, ok := s.Attrs[key]; ok {
		return v
	}
	for i := range s.Children {
		if v := findAttr(&s.Children[i], key); v != nil {
			return v
		}
	}
	return nil
}
