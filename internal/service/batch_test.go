package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
)

// countingBackend answers with the greedy plan and counts Solve calls, so
// tests can assert how many solves a deduplicated batch actually ran.
type countingBackend struct {
	calls      atomic.Int64
	batchCalls atomic.Int64
	batchJobs  atomic.Int64
}

func (b *countingBackend) Name() string { return "counting" }

func (b *countingBackend) Solve(ctx context.Context, enc *core.Encoding, p Params) (*core.Decoded, error) {
	b.calls.Add(1)
	res := classical.Greedy(enc.Query)
	return &core.Decoded{Valid: true, Order: res.Order, Cost: res.Cost}, nil
}

// countingBatchBackend additionally implements BatchSolver.
type countingBatchBackend struct{ countingBackend }

func (b *countingBatchBackend) SolveBatch(ctx context.Context, encs []*core.Encoding, ps []Params) ([]*core.Decoded, []error) {
	b.batchCalls.Add(1)
	b.batchJobs.Add(int64(len(encs)))
	ds := make([]*core.Decoded, len(encs))
	errs := make([]error, len(encs))
	for i, enc := range encs {
		res := classical.Greedy(enc.Query)
		ds[i] = &core.Decoded{Valid: true, Order: res.Order, Cost: res.Cost}
	}
	return ds, errs
}

func batchTestService(t *testing.T, backend Backend) *Service {
	t.Helper()
	r := NewRegistry()
	if err := r.Register(backend); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewGreedyBackend()); err != nil {
		t.Fatal(err)
	}
	svc := New(r, Config{Workers: 2, DefaultBackend: backend.Name()})
	t.Cleanup(func() { svc.Close(context.Background()) })
	return svc
}

// TestOptimizeBatchDeduplicates: identical items (same canonical query,
// backend, and params) share one solve; distinct items solve separately;
// every member still gets its own full response.
func TestOptimizeBatchDeduplicates(t *testing.T) {
	be := &countingBackend{}
	svc := batchTestService(t, be)

	q1 := chainQuery()
	q2 := chainQuery()
	q2.Relations[0].Card = 77 // distinct shape
	reqs := []*Request{
		{Query: q1, Params: Params{Seed: 1}},
		{Query: permuted(q1, []int{3, 1, 0, 2}), Params: Params{Seed: 1}}, // same canonical instance
		{Query: q1, Params: Params{Seed: 1}},
		{Query: q2, Params: Params{Seed: 1}},
		{Query: q1, Params: Params{Seed: 2}}, // different seed: own group
	}
	resps, errs, stats := svc.OptimizeBatch(context.Background(), reqs, 0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if stats.Items != 5 || stats.Unique != 3 {
		t.Fatalf("stats = %+v, want 5 items / 3 unique", stats)
	}
	if got := be.calls.Load(); got != 3 {
		t.Fatalf("backend solved %d times, want 3 (deduplicated)", got)
	}
	// The permuted member must decode into its own relation indexing: same
	// cost as the identity member, same cache key, valid order.
	if resps[0].Cost != resps[1].Cost || resps[0].CacheKey != resps[1].CacheKey {
		t.Errorf("permuted member diverged: %+v vs %+v", resps[0], resps[1])
	}
	if resps[0].CacheKey == "" || resps[3].CacheKey == resps[0].CacheKey {
		t.Errorf("cache keys: %q vs %q, want distinct non-empty", resps[0].CacheKey, resps[3].CacheKey)
	}
	for i, r := range resps {
		if !r.Order.IsPermutation(reqs[i].Query.NumRelations()) {
			t.Errorf("item %d: order %v is not a permutation", i, r.Order)
		}
	}
}

// TestOptimizeBatchUsesBatchSolver: a BatchSolver backend receives one
// SolveBatch call covering all its deduplicated instances.
func TestOptimizeBatchUsesBatchSolver(t *testing.T) {
	be := &countingBatchBackend{}
	svc := batchTestService(t, be)

	var reqs []*Request
	for i := 0; i < 6; i++ {
		q := chainQuery()
		q.Relations[0].Card = float64(10 * (i + 1))
		reqs = append(reqs, &Request{Query: q, Params: Params{Seed: int64(i)}})
	}
	_, errs, stats := svc.OptimizeBatch(context.Background(), reqs, 0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if stats.Unique != 6 {
		t.Fatalf("unique = %d, want 6", stats.Unique)
	}
	if got := be.batchCalls.Load(); got != 1 {
		t.Errorf("SolveBatch called %d times, want 1", got)
	}
	if got := be.batchJobs.Load(); got != 6 {
		t.Errorf("SolveBatch saw %d jobs, want 6", got)
	}
	if got := be.calls.Load(); got != 0 {
		t.Errorf("per-instance Solve called %d times alongside the batch path", got)
	}
}

// TestOptimizeBatchPartialFailure: invalid items fail alone with
// ErrBadRequest; the rest of the envelope solves normally.
func TestOptimizeBatchPartialFailure(t *testing.T) {
	be := &countingBackend{}
	svc := batchTestService(t, be)

	bad := &join.Query{Relations: []join.Relation{{Name: "only", Card: 10}}}
	reqs := []*Request{
		{Query: chainQuery()},
		{Query: nil},
		{Query: chainQuery(), Backend: "warp-drive"},
		{Query: bad},
		{Query: chainQuery()},
	}
	resps, errs, stats := svc.OptimizeBatch(context.Background(), reqs, 0)
	if errs[0] != nil || errs[4] != nil {
		t.Fatalf("valid items failed: %v / %v", errs[0], errs[4])
	}
	for _, i := range []int{1, 2, 3} {
		if errs[i] == nil {
			t.Errorf("item %d should have failed", i)
		}
		if resps[i] != nil {
			t.Errorf("item %d has both response and error", i)
		}
	}
	if stats.Unique != 1 {
		t.Errorf("unique = %d, want 1 (items 0 and 4 dedup)", stats.Unique)
	}
	if got := be.calls.Load(); got != 1 {
		t.Errorf("backend solved %d times, want 1", got)
	}
}

// TestHTTPBatchEndpoint drives POST /v1/optimize/batch end to end: dedup
// accounting, per-item errors with their would-be status codes, cache_key
// on every successful item, and the batch counters in the metrics snapshot.
func TestHTTPBatchEndpoint(t *testing.T) {
	svc, ts := newTestServer(t)

	item := func(seed int) map[string]any {
		return map[string]any{
			"backend": "greedy",
			"query":   json.RawMessage(pairCatalog),
			"seed":    seed,
		}
	}
	envelope := map[string]any{
		"timeout_ms": 30000,
		"requests": []map[string]any{
			item(1), item(1), item(2),
			{"backend": "greedy"}, // missing query: per-item 400
		},
	}
	raw, _ := json.Marshal(envelope)
	resp, err := http.Post(ts.URL+"/v1/optimize/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("envelope status %d", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Items != 4 || out.Unique != 2 {
		t.Fatalf("items/unique = %d/%d, want 4/2", out.Items, out.Unique)
	}
	if len(out.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(out.Results))
	}
	for _, i := range []int{0, 1, 2} {
		r := out.Results[i]
		if r.Response == nil || r.Error != "" {
			t.Fatalf("item %d: %+v, want success", i, r)
		}
		if r.Response.CacheKey == "" {
			t.Errorf("item %d: missing cache_key", i)
		}
	}
	if out.Results[0].Response.CacheKey != out.Results[1].Response.CacheKey {
		t.Error("identical items have different cache keys")
	}
	if out.Results[3].Response != nil || out.Results[3].Status != http.StatusBadRequest {
		t.Errorf("invalid item: %+v, want per-item 400", out.Results[3])
	}

	snap := svc.MetricsSnapshot()
	if snap.Batch.Envelopes != 1 || snap.Batch.Items != 4 || snap.Batch.Unique != 2 {
		t.Errorf("batch metrics = %+v, want 1/4/2", snap.Batch)
	}
}

// TestHTTPBatchMatchesSequential: every item answered by the batch
// endpoint is identical (order, cost, cache key) to the same request on
// the single endpoint — batching is an amortisation, not a semantic change.
func TestHTTPBatchMatchesSequential(t *testing.T) {
	_, ts := newTestServer(t)

	items := make([]map[string]any, 0, 4)
	for i := 0; i < 4; i++ {
		items = append(items, map[string]any{
			"backend":    "tabu",
			"query":      json.RawMessage(pairCatalog),
			"reads":      2,
			"seed":       i,
			"thresholds": 1,
		})
	}
	raw, _ := json.Marshal(map[string]any{"timeout_ms": 30000, "requests": items})
	resp, err := http.Post(ts.URL+"/v1/optimize/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for i, item := range items {
		item["timeout_ms"] = 30000
		single, body := postOptimize(t, ts.URL, item)
		if single.StatusCode != http.StatusOK {
			t.Fatalf("single %d: status %d: %s", i, single.StatusCode, body)
		}
		var want OptimizeResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		got := out.Results[i].Response
		if got == nil {
			t.Fatalf("batch item %d failed: %+v", i, out.Results[i])
		}
		if fmt.Sprint(got.Order) != fmt.Sprint(want.Order) || got.Cost != want.Cost || got.CacheKey != want.CacheKey {
			t.Errorf("item %d: batch %+v != single %+v", i, got, want)
		}
	}
}

// TestHTTPCacheKeyHeader: the single endpoint exports the WL-hash cache
// key both as the X-Cache-Key header and the cache_key body field, stable
// across repeats.
func TestHTTPCacheKeyHeader(t *testing.T) {
	_, ts := newTestServer(t)
	var keys []string
	for i := 0; i < 2; i++ {
		resp, body := postOptimize(t, ts.URL, map[string]any{
			"backend": "greedy",
			"query":   json.RawMessage(pairCatalog),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		hk := resp.Header.Get("X-Cache-Key")
		if hk == "" {
			t.Fatal("missing X-Cache-Key header")
		}
		var out OptimizeResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.CacheKey != hk {
			t.Errorf("cache_key %q != X-Cache-Key %q", out.CacheKey, hk)
		}
		keys = append(keys, hk)
	}
	if keys[0] != keys[1] {
		t.Errorf("cache key changed across identical requests: %v", keys)
	}
}

// TestHTTPBatchEnvelopeLimits pins the envelope validation: empty and
// oversized envelopes are envelope-level 400s.
func TestHTTPBatchEnvelopeLimits(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/optimize/batch", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if st := post(`{"requests":[]}`); st != http.StatusBadRequest {
		t.Errorf("empty envelope: status %d, want 400", st)
	}
	var b bytes.Buffer
	b.WriteString(`{"requests":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"backend":"greedy"}`)
	}
	b.WriteString(`]}`)
	if st := post(b.String()); st != http.StatusBadRequest {
		t.Errorf("oversized envelope: status %d, want 400", st)
	}
	if st := post(`{"timeout_ms":-5,"requests":[{"backend":"greedy"}]}`); st != http.StatusBadRequest {
		t.Errorf("negative timeout: status %d, want 400", st)
	}
}

// TestOptimizeBatchDeadline: the envelope deadline governs the whole
// batch; a blocking backend fails every pool-admitted item with the
// deadline error rather than hanging.
func TestOptimizeBatchDeadline(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&blockingBackend{}); err != nil {
		t.Fatal(err)
	}
	svc := New(r, Config{Workers: 1, DefaultBackend: "block"})
	defer svc.Close(context.Background())
	reqs := []*Request{{Query: chainQuery()}, {Query: chainQuery()}}
	start := time.Now()
	_, errs, _ := svc.OptimizeBatch(context.Background(), reqs, 100*time.Millisecond)
	if time.Since(start) > 5*time.Second {
		t.Fatal("batch ignored its deadline")
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("item %d succeeded against a blocking backend", i)
		}
	}
}
