package service

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/querygen"
)

// lastSpans returns the newest stored trace's encode span (or nil), which
// the backend's build opens under its solve span, and the solve span's
// attributes.
func lastSpans(t *testing.T, tracer *obs.Tracer) (encode *obs.SpanSnapshot, solve map[string]any) {
	t.Helper()
	traces := tracer.Snapshots()
	if len(traces) == 0 {
		t.Fatal("no trace stored despite SampleRate 1")
	}
	for i := range traces[0].Root.Children {
		sp := &traces[0].Root.Children[i]
		if sp.Name == "solve" || sp.Name == "solve.batch" {
			solve = sp.Attrs
			encode = findSpan(sp, "encode")
		}
	}
	if solve == nil {
		t.Fatalf("trace has no solve span: %+v", traces[0].Root)
	}
	return encode, solve
}

// findSpan returns the first span named name in the tree under s, or nil.
func findSpan(s *obs.SpanSnapshot, name string) *obs.SpanSnapshot {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if found := findSpan(&s.Children[i], name); found != nil {
			return found
		}
	}
	return nil
}

// cachedEntry looks q's entry up in svc's cache, failing when it is absent.
func cachedEntry(t *testing.T, svc *Service, q *join.Query) *core.Encoding {
	t.Helper()
	enc, _, _, hit, err := svc.cache.Encoding(q, EncodeSpec{Thresholds: 1})
	if err != nil || !hit {
		t.Fatalf("query not cached (hit %v, err %v)", hit, err)
	}
	return enc
}

// TestLazyQUBOClassicalMissStaysUnbuilt: dp and greedy misses, single and
// batched, cache a prepared entry and never build its QUBO — no encode
// span, no qubo attribute — yet report the built count. The first sampler
// request on that entry builds it (encode span, qubo=computed); the next
// reuses it (no encode span, qubo=reused).
func TestLazyQUBOClassicalMissStaysUnbuilt(t *testing.T) {
	tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
	svc := New(classicalRegistry(t), Config{Workers: 1, Tracer: tracer})
	defer svc.Close(context.Background())
	rng := rand.New(rand.NewSource(4))
	spec := EncodeSpec{Thresholds: 1}
	for _, backend := range []string{"dp", "greedy"} {
		for _, batch := range []bool{false, true} {
			q, err := querygen.Generate(querygen.Config{Relations: 11, Graph: querygen.Cycle}, rng)
			if err != nil {
				t.Fatal(err)
			}
			req := &Request{Query: q, Backend: backend, Spec: spec}
			var resp *Response
			if batch {
				resps, errs, _ := svc.OptimizeBatch(context.Background(), []*Request{req}, 0)
				resp, err = resps[0], errs[0]
			} else {
				resp, err = svc.Optimize(context.Background(), req)
			}
			if err != nil {
				t.Fatal(err)
			}
			if cachedEntry(t, svc, q).Built() {
				t.Errorf("%s (batch %v): the miss built the cached entry's QUBO", backend, batch)
			}
			if enc, solve := lastSpans(t, tracer); enc != nil || solve["qubo"] != nil {
				t.Errorf("%s (batch %v): encode span %v, solve qubo=%v; want neither", backend, batch, enc != nil, solve["qubo"])
			}
			want, err := prepareQubits(q, spec)
			if err != nil {
				t.Fatal(err)
			}
			if resp.LogicalQubits != want || want == 0 {
				t.Errorf("%s (batch %v): logical_qubits = %d, want %d", backend, batch, resp.LogicalQubits, want)
			}
		}
	}

	q := chainQuery()
	for i, want := range []string{"computed", "reused"} {
		resp, err := svc.Optimize(context.Background(), &Request{Query: q, Backend: "tabu", Spec: spec, Params: Params{Reads: 4, Seed: int64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		enc, solve := lastSpans(t, tracer)
		if solve["qubo"] != want {
			t.Errorf("tabu request %d: solve qubo=%v, want %s", i, solve["qubo"], want)
		}
		if (enc != nil) != (want == "computed") {
			t.Errorf("tabu request %d (qubo=%s): encode span present = %v", i, want, enc != nil)
		}
		if enc != nil && enc.Attrs["qubits"] != resp.LogicalQubits {
			t.Errorf("encode span qubits=%v, response logical_qubits=%d", enc.Attrs["qubits"], resp.LogicalQubits)
		}
		if !cachedEntry(t, svc, q).Built() {
			t.Error("a tabu request left its entry unbuilt")
		}
	}
	resp, err := svc.Optimize(context.Background(), &Request{Query: q, Backend: "dp", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if _, solve := lastSpans(t, tracer); solve["qubo"] != nil {
		t.Errorf("dp on a built entry: solve qubo=%v, want none", solve["qubo"])
	}
	if !resp.CacheHit {
		t.Error("dp after tabu missed the cache")
	}
}

// prepareQubits is the count an eager build of q's canonical encoding has.
func prepareQubits(q *join.Query, spec EncodeSpec) (int, error) {
	enc, _, _, _, err := NewEncodingCache(1).Encoding(q, spec)
	if err != nil {
		return 0, err
	}
	if err := enc.Build(context.Background()); err != nil {
		return 0, err
	}
	return enc.QUBO.N(), nil
}

// TestLazyQUBOOversizeStillBadRequest: a 40-relation dp request is
// prepared and cached like any other, and the dp backend, whose exact
// sweep stops at classical.MaxDPRelations, rejects it with a 400 that
// points at decomp.
func TestLazyQUBOOversizeStillBadRequest(t *testing.T) {
	_, ts := newTestServer(t)
	rels := make([]map[string]any, 40)
	preds := make([]map[string]any, 39)
	for i := range rels {
		rels[i] = map[string]any{"name": "r" + string(rune('A'+i%26)) + string(rune('a'+i/26)), "cardinality": 10 + i}
		if i > 0 {
			preds[i-1] = map[string]any{"left": rels[i-1]["name"], "right": rels[i]["name"], "selectivity": 0.1}
		}
	}
	catalog, err := json.Marshal(map[string]any{"relations": rels, "predicates": preds})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postOptimize(t, ts.URL, map[string]any{"backend": "dp", "query": json.RawMessage(catalog)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "decomp") {
		t.Fatalf("400 body does not name the decomp backend: %s", body)
	}
}

// TestLazyQUBOCacheFirstInsertWins: when two misses on one key both
// prepare, the second insert hands back the resident encoding instead of
// replacing it, so the key's QUBO build and memos are not split across
// copies.
func TestLazyQUBOCacheFirstInsertWins(t *testing.T) {
	c := NewEncodingCache(4)
	q := chainQuery()
	first, key, _, _, err := c.Encoding(q, EncodeSpec{Thresholds: 1})
	if err != nil {
		t.Fatal(err)
	}
	second, err := core.Prepare(first.Query, first.Opts)
	if err != nil {
		t.Fatal(err)
	}
	var sum [32]byte
	if _, err := hex.Decode(sum[:], []byte(key)); err != nil {
		t.Fatal(err)
	}
	if got := c.put(sum, key, second); got != first {
		t.Fatal("a second insert on a resident key replaced the cached encoding")
	}
	if got, _, _, hit, _ := c.Encoding(q, EncodeSpec{Thresholds: 1}); !hit || got != first {
		t.Fatal("the cache no longer serves the first encoding")
	}
}
