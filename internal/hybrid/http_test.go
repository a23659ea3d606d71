package hybrid

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quantumjoin/internal/service"
)

const chainCatalog = `{
	"relations": [
		{"name": "a", "cardinality": 100},
		{"name": "b", "cardinality": 1000},
		{"name": "c", "cardinality": 5000},
		{"name": "d", "cardinality": 200}
	],
	"predicates": [
		{"left": "a", "right": "b", "selectivity": 0.01},
		{"left": "b", "right": "c", "selectivity": 0.001},
		{"left": "c", "right": "d", "selectivity": 0.05}
	]
}`

// TestHTTPHybridEndToEnd drives the hybrid backend through the full
// qjoind stack — registry, service, HTTP handler — exactly as cmd/qjoind
// wires it, including the per-request portfolio/hedge knobs and
// the win/loss counters on /metrics.
func TestHTTPHybridEndToEnd(t *testing.T) {
	reg := testRegistry(t)
	svc := service.New(reg, service.Config{Workers: 2, DefaultBackend: "dp"})
	hb, err := New(Config{
		Registry:   reg,
		Metrics:    svc.Metrics(),
		Portfolio:  []string{"tabu"},
		HedgeDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(hb); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	defer func() {
		ts.Close()
		svc.Close(context.Background())
	}()

	for _, tc := range []struct {
		name string
		body map[string]any
	}{
		{"staged defaults", map[string]any{
			"backend": "hybrid", "query": json.RawMessage(chainCatalog),
			"thresholds": 2, "reads": 4, "seed": 5, "timeout_ms": 10000,
		}},
		{"explicit portfolio", map[string]any{
			"backend": "hybrid", "query": json.RawMessage(chainCatalog),
			"portfolio":  []string{"greedy", "tabu"},
			"thresholds": 2, "reads": 4, "seed": 5, "timeout_ms": 10000,
		}},
		{"staged with hedge", map[string]any{
			"backend": "hybrid", "query": json.RawMessage(chainCatalog),
			"portfolio": []string{"tabu"}, "hedge_ms": 1,
			"thresholds": 2, "reads": 4, "seed": 5, "timeout_ms": 10000,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, _ := json.Marshal(tc.body)
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out service.OptimizeResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %+v", resp.StatusCode, out)
			}
			if out.Backend != "hybrid" || len(out.Order) != 4 || out.Cost <= 0 {
				t.Errorf("bad response: %+v", out)
			}
		})
	}

	// A body naming a strategy gets 400 at decode, naming the unknown
	// field, before any backend runs.
	raw, _ := json.Marshal(map[string]any{
		"backend": "hybrid", "query": json.RawMessage(chainCatalog),
		"strategy": "staged",
	})
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("strategy field: status %d, want 400", resp.StatusCode)
	}
	if err != nil || !strings.Contains(e.Error, `"strategy"`) {
		t.Errorf("strategy field: error %q (decode err %v), want it to name \"strategy\"", e.Error, err)
	}

	// The metrics must expose hybrid requests and arbitration outcomes.
	snap := svc.MetricsSnapshot()
	// 3 successful orchestrations; the rejected body never reached it.
	if hb, ok := snap.Backends["hybrid"]; !ok || hb.Requests != 3 || hb.Errors != 0 {
		t.Errorf("hybrid backend metrics = %+v, want 3 requests / 0 errors", snap.Backends["hybrid"])
	}
	var wins int64
	for _, bs := range snap.Backends {
		wins += bs.Wins
	}
	if wins != 3 {
		t.Errorf("total arbitration wins = %d, want one per hybrid request (3)", wins)
	}
}
