package service

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/querygen"
)

// memoQuery is a 10-relation chain with distinct cardinalities, so the
// canonical labelling has no ties and relabelled copies canonicalise
// identically.
func memoQuery(t *testing.T) *join.Query {
	t.Helper()
	q, err := querygen.Generate(querygen.Config{Relations: 10, Graph: querygen.Chain}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// optimizeDP runs one dp request through svc and returns the response
// together with the optimum attribute of the request's solve span.
func optimizeDP(t *testing.T, svc *Service, tracer *obs.Tracer, q *join.Query) (*Response, any) {
	t.Helper()
	resp, err := svc.Optimize(context.Background(), &Request{Query: q, Backend: "dp", Spec: EncodeSpec{Thresholds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	traces := tracer.Snapshots()
	if len(traces) == 0 {
		t.Fatal("no trace stored despite SampleRate 1")
	}
	for _, sp := range traces[0].Root.Children {
		if sp.Name == "solve" {
			return resp, sp.Attrs["optimum"]
		}
	}
	t.Fatalf("trace has no solve span: %+v", traces[0].Root)
	return nil, nil
}

// TestDPOptimumMemoRelabelled: the first dp request on an encoding sweeps
// (solve span optimum=computed); a relabelled copy of the query hits the
// cached encoding, reads the memo (optimum=reused) and answers exactly as
// a fresh service does on that copy.
func TestDPOptimumMemoRelabelled(t *testing.T) {
	q := memoQuery(t)
	qp := permuted(q, []int{3, 7, 0, 9, 5, 1, 8, 2, 6, 4})
	tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
	svc := New(classicalRegistry(t), Config{Workers: 1, Tracer: tracer})
	defer svc.Close(context.Background())

	first, attr := optimizeDP(t, svc, tracer, q)
	if attr != "computed" {
		t.Errorf("first request: optimum = %v, want computed", attr)
	}
	second, attr := optimizeDP(t, svc, tracer, qp)
	if !second.CacheHit {
		t.Fatal("relabelled query missed the encoding cache")
	}
	if attr != "reused" {
		t.Errorf("relabelled request: optimum = %v, want reused", attr)
	}

	coldTracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
	cold := New(classicalRegistry(t), Config{Workers: 1, Tracer: coldTracer})
	defer cold.Close(context.Background())
	want, _ := optimizeDP(t, cold, coldTracer, qp)
	if !reflect.DeepEqual(second.Order, want.Order) || second.Cost != want.Cost {
		t.Fatalf("memo hit answered %v (cost %v), a fresh service %v (cost %v)", second.Order, second.Cost, want.Order, want.Cost)
	}
	if !first.Optimal || !second.Optimal {
		t.Errorf("dp answers not judged optimal: first %v, relabelled %v", first.Optimal, second.Optimal)
	}
}

// storedOptimum reports whether enc's optimum memo holds a result: a hit
// answers even under a cancelled context, and a miss does not sweep.
func storedOptimum(enc *core.Encoding) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, reused, err := enc.OptimalContext(ctx)
	return err == nil && reused
}

// TestCompareHonoursDeadline: the optimal-cost comparison of a non-lean
// response sweeps under the request's context, so an expired one skips
// the comparison (OptimalCost 0) and stores no optimum; a live one
// compares and stores it.
func TestCompareHonoursDeadline(t *testing.T) {
	svc := New(classicalRegistry(t), Config{Workers: 1})
	defer svc.Close(context.Background())
	q := memoQuery(t)
	enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 1)})
	if err != nil {
		t.Fatal(err)
	}
	g := classical.Greedy(q)
	perm := make([]int, q.NumRelations())
	for i := range perm {
		perm[i] = i
	}
	finish := func(ctx context.Context) *Response {
		sc := svc.scratch.Get().(*reqScratch)
		defer svc.scratch.Put(sc)
		resp := &Response{}
		d := &core.Decoded{Valid: true, Order: g.Order, Cost: g.Cost}
		if err := svc.finishInto(ctx, &Request{Query: q}, "greedy", enc, "key", perm, false, d, nil, sc, resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if resp := finish(expired); resp.OptimalCost != 0 || resp.Optimal {
		t.Errorf("expired context: OptimalCost %v, Optimal %v, want the comparison skipped", resp.OptimalCost, resp.Optimal)
	}
	if storedOptimum(enc) {
		t.Fatal("an expired comparison stored an optimum")
	}
	opt, err := classical.Optimal(q)
	if err != nil {
		t.Fatal(err)
	}
	if resp := finish(context.Background()); resp.OptimalCost != opt.Cost {
		t.Errorf("live context: OptimalCost %v, want %v", resp.OptimalCost, opt.Cost)
	}
	if !storedOptimum(enc) {
		t.Error("a live comparison stored no optimum")
	}
}

// TestFallbackReadsOptimumMemo: on an encoding whose optimum is stored,
// the degrade fallback answers dp from the memo even after the deadline;
// without a stored optimum it cannot sweep then, and greedy answers.
func TestFallbackReadsOptimumMemo(t *testing.T) {
	svc := New(classicalRegistry(t), Config{Workers: 1, Degrade: true})
	defer svc.Close(context.Background())
	q := memoQuery(t)
	enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 1)})
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, producer := svc.fallback(expired, enc); producer != "greedy" {
		t.Fatalf("no stored optimum, deadline passed: fallback %s, want greedy", producer)
	}
	opt, err := enc.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	d, producer := svc.fallback(expired, enc)
	if producer != "dp" || !reflect.DeepEqual(d.Order, opt.Order) || d.Cost != opt.Cost {
		t.Errorf("stored optimum, deadline passed: fallback %s with %v (cost %v), want dp with %v (cost %v)",
			producer, d.Order, d.Cost, opt.Order, opt.Cost)
	}
}
