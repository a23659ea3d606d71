package service_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/decomp"
	"quantumjoin/internal/faults"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/service"
)

// lazyChain is a 3-relation chain: small enough for every sampler on a
// P3 Pegasus graph.
func lazyChain() *join.Query {
	return &join.Query{
		Relations: []join.Relation{{Name: "a", Card: 40}, {Name: "b", Card: 900}, {Name: "c", Card: 70}},
		Predicates: []join.Predicate{
			{R1: 0, R2: 1, Sel: 0.02},
			{R1: 1, R2: 2, Sel: 0.05},
		},
	}
}

// lazyPair is a 2-relation query: 6 logical qubits, within the qaoa
// statevector budget.
func lazyPair() *join.Query {
	return &join.Query{
		Relations:  []join.Relation{{Name: "x", Card: 500}, {Name: "y", Card: 30}},
		Predicates: []join.Predicate{{R1: 0, R2: 1, Sel: 0.1}},
	}
}

var lazySpec = service.EncodeSpec{Thresholds: 1}

// lazyService assembles qjoind's registry, with Degrade on: the built-in
// backends, the hybrid orchestrator and the decomposition backend. With
// wrapped set, anneal, tabu, qaoa and milp sit behind qjoind's resilience
// stack (fault injection with every fault rate at zero, retries, a
// breaker).
func lazyService(t *testing.T, wrapped bool, tracer *obs.Tracer) (*service.Service, *service.Registry) {
	t.Helper()
	reg := service.DefaultRegistry(service.RegistryConfig{PegasusM: 3, QAOAIterations: 2})
	svc := service.New(reg, service.Config{Workers: 4, Degrade: true, Tracer: tracer})
	t.Cleanup(func() { svc.Close(context.Background()) })
	if wrapped {
		for _, name := range []string{"anneal", "tabu", "qaoa", "milp"} {
			be, _ := reg.Get(name)
			be = faults.Inject(be, faults.InjectorConfig{Seed: 1, Metrics: svc.Metrics()})
			be = faults.WithRetry(be, faults.RetryPolicy{Seed: 1, Metrics: svc.Metrics()})
			be = faults.WithBreaker(be, faults.BreakerConfig{})
			if err := reg.Replace(be); err != nil {
				t.Fatal(err)
			}
		}
	}
	hb, err := hybrid.New(hybrid.Config{Registry: reg, Metrics: svc.Metrics()})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(hb); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(decomp.New(2)); err != nil {
		t.Fatal(err)
	}
	return svc, reg
}

// lazyQuery is the query each backend is exercised on.
func lazyQuery(backend string) *join.Query {
	if backend == "qaoa" {
		return lazyPair()
	}
	return lazyChain()
}

// eagerQubits is the logical-qubit count of an eagerly built encoding of
// q under lazySpec, which every response reports, whether or not its
// backend built the QUBO.
func eagerQubits(t *testing.T, q *join.Query) int {
	t.Helper()
	enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, lazySpec.Thresholds)})
	if err != nil {
		t.Fatal(err)
	}
	return enc.NumQubits()
}

// checkLazyResponse asserts a healthy, honestly sized answer.
func checkLazyResponse(t *testing.T, what, backend string, q *join.Query, resp *service.Response, wantHit bool) {
	t.Helper()
	if resp.Degraded {
		t.Fatalf("%s: degraded to %s: %s", what, resp.Backend, resp.DegradedReason)
	}
	if resp.Backend != backend {
		t.Errorf("%s: answered by %q, want %q", what, resp.Backend, backend)
	}
	if !resp.Order.IsPermutation(q.NumRelations()) {
		t.Errorf("%s: order %v is not a plan", what, resp.Order)
	}
	if resp.CacheHit != wantHit {
		t.Errorf("%s: cache_hit = %v, want %v", what, resp.CacheHit, wantHit)
	}
	if want := eagerQubits(t, q); resp.LogicalQubits != want {
		t.Errorf("%s: logical_qubits = %d, the eager encoding has %d", what, resp.LogicalQubits, want)
	}
}

// TestLazyQUBOEveryBackend: every backend qjoind registers, bare and
// behind the resilience wrappers, answers non-degraded with the eager
// logical-qubit count both on a cold cache and on an entry a dp request
// prepared first (and left unbuilt), one request at a time and in batch
// envelopes, which take each BatchSolver's fast path.
func TestLazyQUBOEveryBackend(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		tracer := obs.NewTracer(obs.Options{Capacity: 256, SampleRate: 1})
		svc, _ := lazyService(t, wrapped, tracer)
		for _, name := range svc.Backends() {
			if wrapped && name != "anneal" && name != "tabu" && name != "qaoa" && name != "milp" {
				continue
			}
			q := lazyQuery(name)
			for _, dpFirst := range []bool{false, true} {
				what := fmt.Sprintf("%s (wrapped %v, dp first %v)", name, wrapped, dpFirst)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				svc.PurgeCache()
				if dpFirst {
					if _, err := svc.Optimize(ctx, &service.Request{Query: q, Backend: "dp", Spec: lazySpec}); err != nil {
						t.Fatalf("%s: dp request: %v", what, err)
					}
				}
				resp, err := svc.Optimize(ctx, &service.Request{Query: q, Backend: name, Spec: lazySpec, Params: service.Params{Reads: 64, Seed: 5}})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				checkLazyResponse(t, what, name, q, resp, dpFirst)

				svc.PurgeCache()
				if dpFirst {
					if _, err := svc.Optimize(ctx, &service.Request{Query: q, Backend: "dp", Spec: lazySpec}); err != nil {
						t.Fatalf("%s: dp request: %v", what, err)
					}
				}
				reqs := []*service.Request{
					{Query: q, Backend: name, Spec: lazySpec, Params: service.Params{Reads: 64, Seed: 5}},
					{Query: q, Backend: name, Spec: lazySpec, Params: service.Params{Reads: 64, Seed: 6}},
				}
				resps, errs, _ := svc.OptimizeBatch(ctx, reqs, 30*time.Second)
				for i := range reqs {
					if errs[i] != nil {
						t.Fatalf("%s: batch item %d: %v", what, i, errs[i])
					}
					checkLazyResponse(t, fmt.Sprintf("%s batch item %d", what, i), name, q, resps[i], dpFirst || i > 0)
				}
				cancel()
			}
		}
		if wrapped {
			continue
		}
		// The bare samplers' batches ran through SolveBatch, and their
		// spans say whether the QUBO was built for them.
		seen := map[string]bool{}
		for _, tr := range tracer.Snapshots() {
			for _, sp := range tr.Root.Children {
				if sp.Name == "solve.batch" && sp.Attrs["qubo"] == "computed" {
					seen[fmt.Sprint(sp.Attrs["backend"])] = true
				}
			}
		}
		for _, name := range []string{"anneal", "tabu", "qaoa"} {
			if !seen[name] {
				t.Errorf("no solve.batch span with qubo=computed for %s among the stored traces", name)
			}
		}
	}
}

// TestLazyQUBOConcurrentFirstUse: many concurrent first requests on two
// unseen query shapes — classical and sampling backends mixed, bare and
// behind the resilience wrappers, one request at a time and in batch
// envelopes (each BatchSolver's fast path) — build each shape's QUBO
// exactly once, and every response reports the same qubit count.
func TestLazyQUBOConcurrentFirstUse(t *testing.T) {
	backends := []string{"tabu", "dp", "anneal", "greedy", "milp", "hybrid", "qaoa"}
	callers := 2 * len(backends)
	for _, wrapped := range []bool{false, true} {
		tracer := obs.NewTracer(obs.Options{Capacity: 2 * callers, SampleRate: 1})
		svc, _ := lazyService(t, wrapped, tracer)
		var wg sync.WaitGroup
		qubits := make([]int, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name, batch := backends[i%len(backends)], i >= len(backends)
				req := &service.Request{
					Query: lazyQuery(name), Backend: name, Spec: lazySpec,
					Params: service.Params{Reads: 32, Seed: int64(i)},
				}
				var resp *service.Response
				var err error
				if batch {
					resps, errs, _ := svc.OptimizeBatch(context.Background(), []*service.Request{req}, 30*time.Second)
					resp, err = resps[0], errs[0]
				} else {
					resp, err = svc.Optimize(context.Background(), req)
				}
				if err != nil {
					t.Errorf("%s (wrapped %v, batch %v): %v", name, wrapped, batch, err)
					return
				}
				if resp.Degraded {
					t.Errorf("%s (wrapped %v, batch %v) degraded: %s", name, wrapped, batch, resp.DegradedReason)
				}
				qubits[i] = resp.LogicalQubits
			}(i)
		}
		wg.Wait()
		for i, n := range qubits {
			name := backends[i%len(backends)]
			if want := eagerQubits(t, lazyQuery(name)); n != want {
				t.Errorf("caller %d (%s, wrapped %v): logical_qubits = %d, want %d", i, name, wrapped, n, want)
			}
		}
		builds := 0
		for _, tr := range tracer.Snapshots() {
			builds += countSpans(&tr.Root, "encode")
		}
		// Two query shapes: lazyPair for qaoa, lazyChain for the rest.
		if builds != 2 {
			t.Fatalf("wrapped %v: %d concurrent first requests on 2 shapes built %d QUBOs, want one per shape", wrapped, callers, builds)
		}
	}
}

// countSpans counts the spans named name in the tree under s.
func countSpans(s *obs.SpanSnapshot, name string) int {
	n := 0
	if s.Name == name {
		n++
	}
	for i := range s.Children {
		n += countSpans(&s.Children[i], name)
	}
	return n
}
