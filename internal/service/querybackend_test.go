package service

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
)

// stubQueryBackend plans over the query directly (the decomp backend's
// shape): it returns the reversed identity order and records whether the service ever took the monolithic Solve path.
type stubQueryBackend struct {
	queryCalls int32
	solveCalls int32
	fail       bool
}

func (s *stubQueryBackend) Name() string { return "stubqb" }

func (s *stubQueryBackend) Solve(ctx context.Context, enc *core.Encoding, p Params) (*core.Decoded, error) {
	atomic.AddInt32(&s.solveCalls, 1)
	return nil, fmt.Errorf("stubqb: monolithic Solve must not be reached")
}

func (s *stubQueryBackend) SolveQuery(ctx context.Context, q *join.Query, p Params) (*core.Decoded, error) {
	atomic.AddInt32(&s.queryCalls, 1)
	if s.fail {
		return nil, fmt.Errorf("stubqb: injected failure")
	}
	n := q.NumRelations()
	o := make(join.Order, n)
	for i := range o {
		o[i] = n - 1 - i
	}
	return &core.Decoded{Valid: true, Order: o, Cost: q.Cost(o)}, nil
}

func queryBackendService(t *testing.T, stub *stubQueryBackend) *Service {
	t.Helper()
	reg := classicalRegistry(t)
	if err := reg.Register(stub); err != nil {
		t.Fatal(err)
	}
	return New(reg, Config{Workers: 2, DefaultBackend: "dp"})
}

// bigChainQuery builds a valid chain query past the monolithic encoding
// limit (core.MaxMonolithicRelations) but under join.MaxRelations.
func bigChainQuery(n int) *join.Query {
	q := &join.Query{Relations: make([]join.Relation, n)}
	for i := range q.Relations {
		q.Relations[i] = join.Relation{Name: fmt.Sprintf("R%d", i), Card: 100}
	}
	for i := 1; i < n; i++ {
		q.Predicates = append(q.Predicates, join.Predicate{R1: i - 1, R2: i, Sel: 0.1})
	}
	return q
}

// TestQueryBackendRoutesAroundEncodingCache: a QueryBackend request must
// never build a monolithic encoding or answer from the cache — repeated
// identical requests report no cache hit, call SolveQuery each time, and
// report no qubits. (The comparison reads the optimum memo of the query's
// prepared cache entry, which stays unbuilt.)
func TestQueryBackendRoutesAroundEncodingCache(t *testing.T) {
	stub := &stubQueryBackend{}
	svc := queryBackendService(t, stub)
	defer svc.Close(context.Background())
	q := chainQuery()
	for i := 0; i < 2; i++ {
		resp, err := svc.Optimize(context.Background(), &Request{Query: q, Backend: "stubqb"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			t.Error("QueryBackend response claims an encoding-cache hit")
		}
		if resp.CacheKey == "" {
			t.Error("QueryBackend response lost its fingerprint cache key")
		}
		if resp.LogicalQubits != 0 {
			t.Errorf("LogicalQubits = %d, want 0: no QUBO was built", resp.LogicalQubits)
		}
		if !resp.Order.IsPermutation(q.NumRelations()) {
			t.Errorf("order %v is not a permutation", resp.Order)
		}
		if got := q.Cost(resp.Order); got != resp.Cost {
			t.Errorf("reported cost %v but order costs %v", resp.Cost, got)
		}
		if resp.OptimalCost <= 0 {
			t.Error("missing classical optimal-cost comparison")
		}
	}
	if got := atomic.LoadInt32(&stub.queryCalls); got != 2 {
		t.Errorf("SolveQuery calls = %d, want 2", got)
	}
	if got := atomic.LoadInt32(&stub.solveCalls); got != 0 {
		t.Errorf("monolithic Solve was called %d times", got)
	}
}

// TestQueryBackendAcceptsBeyondMonolithicLimit: the same oversized query
// that 400s on an encoding backend must succeed on a QueryBackend.
func TestQueryBackendAcceptsBeyondMonolithicLimit(t *testing.T) {
	stub := &stubQueryBackend{}
	svc := queryBackendService(t, stub)
	defer svc.Close(context.Background())
	q := bigChainQuery(core.MaxMonolithicRelations + 8)
	if _, err := svc.Optimize(context.Background(), &Request{Query: q, Backend: "dp"}); err == nil {
		t.Fatal("monolithic backend accepted an oversized query")
	}
	resp, err := svc.Optimize(context.Background(), &Request{Query: q, Backend: "stubqb"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Order.IsPermutation(q.NumRelations()) {
		t.Errorf("order %v is not a permutation", resp.Order)
	}
}

// TestQueryBackendFailureDegrades: a failing QueryBackend degrades to the
// classical fallback exactly like a failing encoding backend.
func TestQueryBackendFailureDegrades(t *testing.T) {
	stub := &stubQueryBackend{fail: true}
	reg := classicalRegistry(t)
	if err := reg.Register(stub); err != nil {
		t.Fatal(err)
	}
	svc := New(reg, Config{Workers: 2, DefaultBackend: "dp", Degrade: true})
	defer svc.Close(context.Background())
	q := chainQuery()
	resp, err := svc.Optimize(context.Background(), &Request{Query: q, Backend: "stubqb"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.DegradedReason == "" {
		t.Fatalf("expected a degraded response, got %+v", resp)
	}
	if !resp.Order.IsPermutation(q.NumRelations()) {
		t.Errorf("degraded order %v is not a permutation", resp.Order)
	}
	// The fallback producer's degraded counter moved; its win count did not.
	bs, ok := svc.MetricsSnapshot().Backends[resp.Backend]
	if !ok || bs.Degraded != 1 || bs.Wins != 0 {
		t.Errorf("fallback %q snapshot = %+v ok=%v, want degraded=1 wins=0", resp.Backend, bs, ok)
	}
}

// TestBatchSolvesQueryBackendItemsSolo: batch envelopes route QueryBackend
// items through the per-query path (no monolithic dedup group) while other
// items batch as usual.
func TestBatchSolvesQueryBackendItemsSolo(t *testing.T) {
	stub := &stubQueryBackend{}
	svc := queryBackendService(t, stub)
	defer svc.Close(context.Background())
	q := chainQuery()
	reqs := []*Request{
		{Query: q, Backend: "stubqb"},
		{Query: q, Backend: "dp"},
		{Query: q, Backend: "stubqb"},
	}
	resps, errs, _ := svc.OptimizeBatch(context.Background(), reqs, 5*time.Second)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if !resps[i].Order.IsPermutation(q.NumRelations()) {
			t.Errorf("item %d: order %v is not a permutation", i, resps[i].Order)
		}
	}
	if got := atomic.LoadInt32(&stub.queryCalls); got != 2 {
		t.Errorf("SolveQuery calls = %d, want 2 (no dedup across QueryBackend items)", got)
	}
}
