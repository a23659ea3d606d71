package hybrid

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"quantumjoin/internal/obs"
	"quantumjoin/internal/service"
)

// findSpan walks a snapshot tree depth-first for the first span named name.
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

// openSpans counts spans still marked open in a snapshot tree.
func openSpans(s *obs.SpanSnapshot) int {
	n := 0
	if s.Open {
		n++
	}
	for i := range s.Children {
		n += openSpans(&s.Children[i])
	}
	return n
}

// racerSpanClosed polls fetch until the named racer span is present and
// closed: a racer cut off by the deadline ends its span on its own
// goroutine, after the orchestration has already answered.
func racerSpanClosed(t *testing.T, name string, fetch func() obs.TraceSnapshot) (*obs.SpanSnapshot, obs.TraceSnapshot) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		trace := fetch()
		racer := findSpan(&trace.Root, name)
		if racer != nil && !racer.Open {
			return racer, trace
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s missing or still open in the stored trace: %+v", name, racer)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHybridTraceEndToEnd is the tracing acceptance path: one
// POST /v1/optimize to the hybrid backend must yield a stored trace —
// addressable by the response's X-Request-ID — whose tree carries the
// encode stages, the classical stage, one child span per portfolio racer
// (with a cancellation reason on the racer the deadline cut off), and the
// decode stage. DP is gated below the 4-relation instance so the quantum
// stage launches.
func TestHybridTraceEndToEnd(t *testing.T) {
	reg := testRegistry(t)
	if err := reg.Register(&slowBackend{}); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.Options{Capacity: 32, SampleRate: 1})
	svc := service.New(reg, service.Config{Workers: 2, DefaultBackend: "dp", Tracer: tracer})
	hb, err := New(Config{Registry: reg, Metrics: svc.Metrics(), MaxDPRelations: 3})
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

	raw, _ := json.Marshal(map[string]any{
		"backend": "hybrid", "query": json.RawMessage(chainCatalog),
		"portfolio": []string{"slow"}, "hedge_ms": 1,
		"thresholds": 2, "reads": 4, "seed": 11, "timeout_ms": 200,
	})
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: status %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-ID")
	if rid == "" {
		t.Fatal("response carries no X-Request-ID")
	}

	fetch := func() obs.TraceSnapshot {
		tresp, err := http.Get(ts.URL + "/debug/traces?id=" + rid)
		if err != nil {
			t.Fatal(err)
		}
		defer tresp.Body.Close()
		if tresp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/traces?id=%s: status %d", rid, tresp.StatusCode)
		}
		var payload struct {
			Traces []obs.TraceSnapshot `json:"traces"`
		}
		if err := json.NewDecoder(tresp.Body).Decode(&payload); err != nil {
			t.Fatal(err)
		}
		if len(payload.Traces) != 1 {
			t.Fatalf("got %d traces for id %s, want 1", len(payload.Traces), rid)
		}
		return payload.Traces[0]
	}
	racer, trace := racerSpanClosed(t, "racer.slow", fetch)
	if trace.TraceID != rid {
		t.Errorf("trace id = %q, want the request id %q", trace.TraceID, rid)
	}
	root := &trace.Root
	if root.Name != "optimize" {
		t.Errorf("root span = %q, want optimize", root.Name)
	}

	// The classical stage, the encode stages and one child span per
	// racer, under the solve span: on a cold cache the hybrid backend
	// built the full MILP → BILP → QUBO chain before the launch.
	solve := findSpan(root, "solve")
	if solve == nil {
		t.Fatal("trace is missing the solve span")
	}
	for _, name := range []string{"encode", "encode.milp", "encode.bilp", "encode.qubo"} {
		if findSpan(solve, name) == nil {
			t.Errorf("solve span is missing span %q", name)
		}
	}
	if got := solve.Attrs["qubo"]; got != "computed" {
		t.Errorf("solve span qubo = %v, want computed", got)
	}
	if findSpan(solve, "classical.greedy") == nil {
		t.Error("trace is missing classical.greedy")
	}
	if findSpan(solve, "racer.slow") == nil {
		t.Error("racer.slow is not under the solve span")
	}
	if reason := racer.Attrs["cancel_reason"]; reason != "deadline" {
		t.Errorf("racer cancel_reason = %v, want deadline (attrs %v)", reason, racer.Attrs)
	}
	if findSpan(root, "decode") == nil {
		t.Error("trace is missing the decode span")
	}
	if n := openSpans(root); n != 0 {
		t.Errorf("%d spans still open in the stored trace, want 0", n)
	}
}

// TestStagedRacerSpansCloseExactlyOnce pins the racer span lifecycle under
// -race: a portfolio racer that loses to the deadline must close its span
// exactly once — no span left open, no goroutine leaked — and record why
// it stopped. DP is gated below the instance size so the quantum stage
// launches.
func TestStagedRacerSpansCloseExactlyOnce(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := testRegistry(t)
	released := make(chan struct{})
	if err := reg.Register(&slowBackend{released: released}); err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Registry: reg, Portfolio: []string{"slow"}, HedgeDelay: time.Millisecond, MaxDPRelations: 5})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})

	_, enc := cliqueInstance(t, 6, 3)
	ctx, cancel := context.WithTimeout(obs.NewContext(context.Background(), tracer), 100*time.Millisecond)
	defer cancel()
	ctx, root := tracer.Start(ctx, "test-root")
	out, err := b.Orchestrate(ctx, enc, service.Params{Reads: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner != "greedy" {
		t.Errorf("winner = %q, want greedy (slow never answers)", out.Winner)
	}
	select {
	case <-released:
	case <-time.After(3 * time.Second):
		t.Fatal("slow racer never observed the deadline")
	}
	root.End(nil)

	racer, trace := racerSpanClosed(t, "racer.slow", func() obs.TraceSnapshot {
		trace, ok := tracer.Find(root.TraceID())
		if !ok {
			t.Fatal("trace was not stored despite SampleRate 1")
		}
		return trace
	})
	if reason := racer.Attrs["cancel_reason"]; reason != "deadline" {
		t.Errorf("racer cancel_reason = %v, want deadline", reason)
	}
	if racer.Error != "" {
		t.Errorf("cancelled racer marked errored (%q); cancellation is an outcome, not a failure", racer.Error)
	}
	if n := openSpans(&trace.Root); n != 0 {
		t.Errorf("%d spans still open in the stored trace, want 0", n)
	}
	settleGoroutines(t, base)
}
