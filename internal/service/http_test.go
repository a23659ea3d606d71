package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

const pairCatalog = `{
	"relations": [
		{"name": "orders", "cardinality": 1000},
		{"name": "customers", "cardinality": 100}
	],
	"predicates": [
		{"left": "orders", "right": "customers", "selectivity": 0.01}
	]
}`

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	reg := DefaultRegistry(RegistryConfig{
		PegasusM:       3, // small hardware graph keeps tests fast
		QAOAIterations: 2,
	})
	svc := New(reg, Config{Workers: 4, DefaultBackend: "dp"})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close(context.Background())
	})
	return svc, ts
}

func postOptimize(t *testing.T, url string, body map[string]any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHTTPOptimizeAllBackends drives POST /v1/optimize end to end against
// every backend in the default registry.
func TestHTTPOptimizeAllBackends(t *testing.T) {
	svc, ts := newTestServer(t)
	backends := svc.Backends()
	if len(backends) < 4 {
		t.Fatalf("default registry has %d backends, want >= 4", len(backends))
	}
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			resp, body := postOptimize(t, ts.URL, map[string]any{
				"backend":    backend,
				"query":      json.RawMessage(pairCatalog),
				"thresholds": 1,
				"reads":      200,
				"seed":       7,
				"timeout_ms": 30000,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var out OptimizeResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("bad response %s: %v", body, err)
			}
			if out.Backend != backend {
				t.Errorf("backend = %q", out.Backend)
			}
			if len(out.Order) != 2 {
				t.Errorf("order = %v, want both relations", out.Order)
			}
			if out.Cost <= 0 {
				t.Errorf("cost = %v", out.Cost)
			}
			// Both orders of a two-way join share the optimal cost.
			if !out.Optimal {
				t.Errorf("%s: cost %v not optimal (optimum %v)", backend, out.Cost, out.OptimalCost)
			}
			if out.LogicalQubits <= 0 {
				t.Errorf("logical_qubits = %d", out.LogicalQubits)
			}
		})
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"missing query", map[string]any{"backend": "dp"}, http.StatusBadRequest},
		{"unknown backend", map[string]any{
			"backend": "warp-drive", "query": json.RawMessage(pairCatalog),
		}, http.StatusBadRequest},
		{"invalid selectivity", map[string]any{
			"backend": "dp",
			"query": json.RawMessage(`{
				"relations":[{"name":"a","cardinality":10},{"name":"b","cardinality":20}],
				"predicates":[{"left":"a","right":"b","selectivity":2.5}]}`),
		}, http.StatusBadRequest},
		{"non-positive cardinality", map[string]any{
			"backend": "dp",
			"query": json.RawMessage(`{
				"relations":[{"name":"a","cardinality":0},{"name":"b","cardinality":20}],
				"predicates":[{"left":"a","right":"b","selectivity":0.5}]}`),
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postOptimize(t, ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: missing error message in %s", tc.name, body)
		}
	}
}

func TestHTTPDeadline(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&blockingBackend{}); err != nil {
		t.Fatal(err)
	}
	svc := New(r, Config{Workers: 1, DefaultBackend: "block"})
	ts := httptest.NewServer(NewHandler(svc))
	defer func() {
		ts.Close()
		svc.Close(context.Background())
	}()
	resp, body := postOptimize(t, ts.URL, map[string]any{
		"query":      json.RawMessage(pairCatalog),
		"timeout_ms": 50,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d (%s), want 504", resp.StatusCode, body)
	}
}

// TestHTTPTimeoutHandling pins the documented timeout_ms contract: negative
// values are client errors, while 0/absent fall back to the server default.
func TestHTTPTimeoutHandling(t *testing.T) {
	_, ts := newTestServer(t)

	resp, body := postOptimize(t, ts.URL, map[string]any{
		"backend":    "dp",
		"query":      json.RawMessage(pairCatalog),
		"timeout_ms": -1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout_ms: status %d (%s), want 400", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("negative timeout_ms: missing error message in %s", body)
	}

	// Absent timeout_ms must select the server default, not an immediate
	// deadline: the request succeeds.
	resp, body = postOptimize(t, ts.URL, map[string]any{
		"backend": "dp",
		"query":   json.RawMessage(pairCatalog),
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("absent timeout_ms: status %d (%s), want 200", resp.StatusCode, body)
	}

	// Explicit 0 is the documented alias for the default.
	resp, body = postOptimize(t, ts.URL, map[string]any{
		"backend":    "dp",
		"query":      json.RawMessage(pairCatalog),
		"timeout_ms": 0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("timeout_ms=0: status %d (%s), want 200", resp.StatusCode, body)
	}
}

func TestHTTPHealthAndBackends(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Backends []string `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Backends) < 4 {
		t.Errorf("backends = %v, want >= 4", out.Backends)
	}
}

// TestHTTPConcurrentRequestsAndMetrics hammers the daemon concurrently
// (run under -race) and then checks the /metrics accounting.
func TestHTTPConcurrentRequestsAndMetrics(t *testing.T) {
	svc, ts := newTestServer(t)
	const goroutines, perG = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				backend := []string{"dp", "greedy", "tabu"}[(g+i)%3]
				resp, body := postOptimize(t, ts.URL, map[string]any{
					"backend":    backend,
					"query":      json.RawMessage(pairCatalog),
					"thresholds": 1,
					"reads":      24,
					"seed":       g*31 + i,
					"timeout_ms": 30000,
				})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", backend, resp.StatusCode, body)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := svc.MetricsSnapshot()
	if snap.Requests.Total != goroutines*perG {
		t.Errorf("requests.total = %d, want %d", snap.Requests.Total, goroutines*perG)
	}
	if snap.Cache.Hits == 0 || snap.Cache.HitRate <= 0 {
		t.Errorf("cache hit rate = %v with %d hits; repeated shapes should hit", snap.Cache.HitRate, snap.Cache.Hits)
	}
	for _, name := range []string{"dp", "greedy", "tabu"} {
		b, ok := snap.Backends[name]
		if !ok || b.Requests == 0 {
			t.Errorf("backend %q missing from metrics: %+v", name, snap.Backends)
			continue
		}
		if b.Latency.Count != b.Requests {
			t.Errorf("%s: latency count %d != requests %d", name, b.Latency.Count, b.Requests)
		}
		if b.Latency.P99Ms < b.Latency.P50Ms {
			t.Errorf("%s: p99 %v < p50 %v", name, b.Latency.P99Ms, b.Latency.P50Ms)
		}
	}
}

// TestHTTPWarmOnly: a request carrying X-Warm-Only populates the encoding
// cache and returns 204 without solving; a later normal request for the
// same catalog hits that warm entry.
func TestHTTPWarmOnly(t *testing.T) {
	_, ts := newTestServer(t)

	raw, err := json.Marshal(map[string]any{"query": json.RawMessage(pairCatalog)})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderWarmOnly, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("warm-only status = %d, want 204", resp.StatusCode)
	}
	if resp.Header.Get(HeaderCacheHit) != "0" {
		t.Errorf("first warm: %s = %q, want 0 (fresh encode)", HeaderCacheHit, resp.Header.Get(HeaderCacheHit))
	}
	key := resp.Header.Get("X-Cache-Key")
	if key == "" {
		t.Error("warm-only response missing X-Cache-Key")
	}

	// The warmed encoding must serve the real solve as a cache hit.
	solveResp, body := postOptimize(t, ts.URL, map[string]any{"query": json.RawMessage(pairCatalog)})
	if solveResp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", solveResp.StatusCode, body)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Error("solve after warm-only reported cache_hit=false")
	}
	if out.CacheKey != key {
		t.Errorf("solve cache key %q != warmed key %q", out.CacheKey, key)
	}

	// Warming a malformed body is still a 400, not a panic or solve.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader([]byte(`{"query": null}`)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderWarmOnly, "1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("warm-only with null query: status %d, want 400", resp.StatusCode)
	}
}
