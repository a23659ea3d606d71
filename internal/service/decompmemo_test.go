package service_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/decomp"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

// decompRequest sends one non-lean decomp request and returns the
// response and its trace's root span.
func decompRequest(t *testing.T, svc *service.Service, tracer *obs.Tracer, q *join.Query, spec service.EncodeSpec) (*service.Response, obs.SpanSnapshot) {
	t.Helper()
	resp, err := svc.Optimize(context.Background(), &service.Request{Query: q, Backend: decomp.Name, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	traces := tracer.Snapshots()
	if len(traces) == 0 {
		t.Fatal("no trace stored despite SampleRate 1")
	}
	return resp, traces[0].Root
}

// TestDecompOptimumMemo: the optimal-cost comparison of a non-lean decomp
// request reads the optimum memo of the query's prepared cache entry, so
// the first request sweeps (optimum=computed), a repeat — relabelled,
// too — hits the entry, reads the memo (optimum=reused) and reports the
// same cost, and a dp request on the same shape finds the entry and its
// optimum. Every response reports the entry's qubit count, and nothing
// builds a QUBO. A spec that Prepare rejects is a bad request on decomp as
// on every backend.
func TestDecompOptimumMemo(t *testing.T) {
	q, err := querygen.Generate(querygen.Config{Relations: 12, Graph: querygen.Clique}, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := classical.Optimal(q)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
	reg := service.DefaultRegistry(service.RegistryConfig{PegasusM: 3})
	if err := reg.Register(decomp.New(4)); err != nil {
		t.Fatal(err)
	}
	svc := service.New(reg, service.Config{Workers: 1, Tracer: tracer})
	defer svc.Close(context.Background())
	spec := service.EncodeSpec{Thresholds: 2}
	// near: costs of one plan summed in two labellings differ in the last
	// bits.
	near := func(got float64) bool { return math.Abs(got-want.Cost) <= 1e-9*want.Cost }

	first, qubits := 0.0, 0
	for i, tc := range []struct {
		q    *join.Query
		attr string
	}{
		{q, "computed"},
		{q, "reused"},
		{permuted(q, []int{11, 3, 7, 0, 9, 5, 1, 10, 8, 2, 6, 4}), "reused"},
	} {
		resp, root := decompRequest(t, svc, tracer, tc.q, spec)
		if got := root.Attrs["optimum"]; got != tc.attr {
			t.Errorf("request %d: optimum = %v, want %s", i, got, tc.attr)
		}
		if i == 0 {
			first, qubits = resp.OptimalCost, resp.LogicalQubits
		}
		if !near(resp.OptimalCost) || resp.OptimalCost != first {
			t.Errorf("request %d: optimal_cost = %v, want the first request's %v (DP: %v)", i, resp.OptimalCost, first, want.Cost)
		}
		if resp.CacheHit != (i > 0) || resp.LogicalQubits != qubits || qubits <= 0 {
			t.Errorf("request %d: cache_hit %v, logical_qubits %d; want a hit on every repeat and the entry's qubit count %d", i, resp.CacheHit, resp.LogicalQubits, qubits)
		}
		if n := countSpans(&root, "encode"); n != 0 {
			t.Errorf("request %d: %d encode spans, want none", i, n)
		}
	}

	resp, err := svc.Optimize(context.Background(), &service.Request{Query: q, Backend: "dp", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit || resp.OptimalCost != first || !near(resp.Cost) || resp.LogicalQubits != qubits {
		t.Errorf("dp after decomp: cache_hit %v, cost %v, optimal_cost %v, logical_qubits %d; want the decomp requests' entry, its optimum %v and its %d qubits", resp.CacheHit, resp.Cost, resp.OptimalCost, resp.LogicalQubits, first, qubits)
	}
	if n := countSpans(&tracer.Snapshots()[0].Root, "encode"); n != 0 {
		t.Errorf("dp after decomp built the QUBO (%d encode spans)", n)
	}

	if _, err := svc.Optimize(context.Background(), &service.Request{Query: q, Backend: decomp.Name, Spec: service.EncodeSpec{Omega: -1}}); !errors.Is(err, service.ErrBadRequest) {
		t.Errorf("rejected spec: err = %v, want a bad request", err)
	}
}

// permuted relabels q: relation i moves to position perm[i].
func permuted(q *join.Query, perm []int) *join.Query {
	out := &join.Query{Relations: make([]join.Relation, len(q.Relations))}
	for i, r := range q.Relations {
		out.Relations[perm[i]] = r
	}
	for _, p := range q.Predicates {
		out.Predicates = append(out.Predicates, join.Predicate{R1: perm[p.R1], R2: perm[p.R2], Sel: p.Sel})
	}
	return out
}
