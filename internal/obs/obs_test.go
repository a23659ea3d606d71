package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledPathIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "anything")
	if s != nil {
		t.Fatalf("StartSpan on unarmed ctx returned a span")
	}
	if ctx2 != ctx {
		t.Fatalf("StartSpan on unarmed ctx changed the context")
	}
	// Every nil-span method must be safe.
	s.SetAttr("k", 1)
	s.End(errors.New("x"))
	s.End(nil)
	if s.Err() != nil || s.TraceID() != "" || s.OpenSpans() != 0 {
		t.Fatalf("nil span methods returned non-zero values")
	}
	var tr *Tracer
	if got := tr.Snapshots(); got != nil {
		t.Fatalf("nil tracer Snapshots = %v, want nil", got)
	}
	if _, ok := tr.Find("x"); ok {
		t.Fatalf("nil tracer Find reported a hit")
	}
}

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := NewTracer(Options{Seed: 1})
	ctx, root := tr.Start(context.Background(), "optimize")
	root.SetAttr("backend", "anneal")

	cctx, encode := StartSpan(ctx, "encode")
	_, milp := StartSpan(cctx, "encode.milp")
	milp.End(nil)
	encode.SetAttr("qubits", 42)
	encode.End(nil)

	_, solve := StartSpan(ctx, "solve")
	solve.End(errors.New("boom"))

	root.End(nil)

	snaps := tr.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d traces, want 1", len(snaps))
	}
	trace := snaps[0]
	if trace.Kept != "error" {
		t.Fatalf("trace kept = %q, want error (child errored)", trace.Kept)
	}
	if trace.Root.Name != "optimize" || len(trace.Root.Children) != 2 {
		t.Fatalf("unexpected root shape: %+v", trace.Root)
	}
	enc := trace.Root.Children[0]
	if enc.Name != "encode" || enc.Attrs["qubits"] != 42 {
		t.Fatalf("unexpected encode span: %+v", enc)
	}
	if len(enc.Children) != 1 || enc.Children[0].Name != "encode.milp" {
		t.Fatalf("missing encode.milp child: %+v", enc)
	}
	if trace.Root.Children[1].Error != "boom" {
		t.Fatalf("solve error not recorded: %+v", trace.Root.Children[1])
	}
	if got, ok := tr.Find(trace.TraceID); !ok || got.TraceID != trace.TraceID {
		t.Fatalf("Find(%q) failed", trace.TraceID)
	}
	if _, ok := tr.Find("no-such-id"); ok {
		t.Fatalf("Find on unknown id reported a hit")
	}
}

func TestEndExactlyOnce(t *testing.T) {
	tr := NewTracer(Options{Seed: 1})
	_, root := tr.Start(context.Background(), "r")
	root.End(nil)
	root.End(errors.New("late"))
	if err := root.Err(); err != nil {
		t.Fatalf("second End overwrote error: %v", err)
	}
	if got := tr.Stats().Stored; got != 1 {
		t.Fatalf("stored = %d, want 1 (double End must not double-store)", got)
	}
}

func TestSamplingPolicy(t *testing.T) {
	// Rate 0-ish: healthy fast traces dropped, error traces always kept.
	tr := NewTracer(Options{SampleRate: 1e-12, SlowThreshold: time.Hour, Seed: 7})
	for i := 0; i < 50; i++ {
		_, s := tr.Start(context.Background(), "ok")
		s.End(nil)
	}
	if st := tr.Stats(); st.Stored != 0 || st.Dropped != 50 {
		t.Fatalf("healthy traces at ~0 rate: %+v, want all dropped", st)
	}
	_, s := tr.Start(context.Background(), "bad")
	s.End(errors.New("x"))
	if st := tr.Stats(); st.Stored != 1 {
		t.Fatalf("error trace was not kept: %+v", st)
	}
	if snaps := tr.Snapshots(); len(snaps) != 1 || snaps[0].Kept != "error" {
		t.Fatalf("kept reason wrong: %+v", snaps)
	}

	// Slow traces always kept even at ~0 rate.
	tr2 := NewTracer(Options{SampleRate: 1e-12, SlowThreshold: time.Nanosecond, Seed: 7})
	_, s2 := tr2.Start(context.Background(), "slow")
	time.Sleep(time.Millisecond)
	s2.End(nil)
	if snaps := tr2.Snapshots(); len(snaps) != 1 || snaps[0].Kept != "slow" {
		t.Fatalf("slow trace not kept: %+v", snaps)
	}

	// Rate 1: everything kept.
	tr3 := NewTracer(Options{SampleRate: 1, Seed: 7})
	for i := 0; i < 10; i++ {
		_, s := tr3.Start(context.Background(), "ok")
		s.End(nil)
	}
	if st := tr3.Stats(); st.Stored != 10 {
		t.Fatalf("rate-1 sampler dropped traces: %+v", st)
	}

	// Intermediate rates are roughly honoured (deterministic stream).
	tr4 := NewTracer(Options{SampleRate: 0.25, SlowThreshold: time.Hour, Seed: 3})
	for i := 0; i < 1000; i++ {
		_, s := tr4.Start(context.Background(), "ok")
		s.End(nil)
	}
	if st := tr4.Stats(); st.Stored < 150 || st.Stored > 350 {
		t.Fatalf("rate-0.25 sampler stored %d of 1000", st.Stored)
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := NewTracer(Options{Capacity: 4, Seed: 1})
	for i := 0; i < 10; i++ {
		_, s := tr.Start(context.Background(), fmt.Sprintf("t%d", i))
		s.End(nil)
	}
	snaps := tr.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(snaps))
	}
	if snaps[0].Root.Name != "t9" || snaps[3].Root.Name != "t6" {
		t.Fatalf("ring order wrong: %s .. %s", snaps[0].Root.Name, snaps[3].Root.Name)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(Options{Capacity: 128, Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.Start(context.Background(), "root")
				var kids sync.WaitGroup
				for c := 0; c < 4; c++ {
					kids.Add(1)
					go func(c int) {
						defer kids.Done()
						_, s := StartSpan(ctx, "child")
						s.SetAttr("i", c)
						s.End(nil)
					}(c)
				}
				kids.Wait()
				root.End(nil)
				if n := root.OpenSpans(); n != 0 {
					t.Errorf("open spans after all ended: %d", n)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, snap := range tr.Snapshots() {
		if len(snap.Root.Children) != 4 {
			t.Fatalf("trace lost children: %d", len(snap.Root.Children))
		}
	}
}

func TestLateEndingChildVisibleInStoredTrace(t *testing.T) {
	// A racer that ends after its root was stored (cut off by the deadline)
	// must still render closed once it ends — snapshots are read-time.
	tr := NewTracer(Options{Seed: 1})
	ctx, root := tr.Start(context.Background(), "root")
	_, straggler := StartSpan(ctx, "racer.slow")
	root.End(nil)

	snap := tr.Snapshots()[0]
	if len(snap.Root.Children) != 1 || !snap.Root.Children[0].Open {
		t.Fatalf("straggler should be open in first snapshot: %+v", snap.Root.Children)
	}
	straggler.End(nil)
	snap = tr.Snapshots()[0]
	if snap.Root.Children[0].Open {
		t.Fatalf("straggler still open after End")
	}
}

func TestRequestIDAndTraceID(t *testing.T) {
	id := NewRequestID()
	if len(id) != 16 {
		t.Fatalf("request id %q, want 16 hex chars", id)
	}
	if id2 := NewRequestID(); id2 == id {
		t.Fatalf("request ids collide: %q", id)
	}
	ctx := WithRequestID(context.Background(), "req-42")
	if RequestID(ctx) != "req-42" {
		t.Fatalf("request id not propagated")
	}
	tr := NewTracer(Options{Seed: 1})
	_, root := tr.Start(ctx, "root")
	if root.TraceID() != "req-42" {
		t.Fatalf("trace id = %q, want the request id", root.TraceID())
	}
	root.End(nil)
	if _, ok := tr.Find("req-42"); !ok {
		t.Fatalf("trace not findable by request id")
	}
}

func TestNewContextArming(t *testing.T) {
	tr := NewTracer(Options{Seed: 1})
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatalf("tracer not recoverable from armed ctx")
	}
	ctx2, root := StartSpan(ctx, "root")
	if root == nil {
		t.Fatalf("StartSpan on armed ctx did not open a root span")
	}
	if ActiveSpan(ctx2) != root {
		t.Fatalf("ActiveSpan mismatch")
	}
	root.End(nil)
	if tr.Stats().Stored != 1 {
		t.Fatalf("root span via armed ctx not stored")
	}
	if got := NewContext(context.Background(), nil); got != context.Background() {
		t.Fatalf("NewContext(nil) should return ctx unchanged")
	}
}

func TestSink(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1e-12, SlowThreshold: time.Hour, Seed: 1})
	var mu sync.Mutex
	var got []TraceSnapshot
	tr.SetSink(func(s TraceSnapshot) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	_, s := tr.Start(context.Background(), "dropped")
	s.End(nil)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Root.Name != "dropped" {
		t.Fatalf("sink should see dropped traces too: %+v", got)
	}
}

func TestProfileDeltas(t *testing.T) {
	tr := NewTracer(Options{Profile: true, Seed: 1})
	_, root := tr.Start(context.Background(), "alloc")
	sink := make([]byte, 1<<20)
	_ = sink
	root.End(nil)
	snap := tr.Snapshots()[0]
	if snap.Root.AllocBytes < 1<<20 {
		t.Fatalf("alloc delta %d, want >= 1MiB", snap.Root.AllocBytes)
	}
}

func TestLogger(t *testing.T) {
	var buf strings.Builder
	l, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithRequestID(context.Background(), "rid-1")
	l.InfoContext(ctx, "hello", "k", "v")
	out := buf.String()
	if !strings.Contains(out, `"request_id":"rid-1"`) {
		t.Fatalf("request_id not injected: %s", out)
	}
	l.DebugContext(ctx, "dropped")
	if strings.Contains(buf.String(), "dropped") {
		t.Fatalf("debug line emitted at info level")
	}

	if _, err := NewLogger(&buf, "loud", "json"); err == nil {
		t.Fatalf("invalid level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatalf("invalid format accepted")
	}

	// Context logger helpers: default is a discard logger, never nil.
	if Logger(context.Background()) == nil {
		t.Fatalf("Logger returned nil")
	}
	ctx2 := WithLogger(context.Background(), l)
	if Logger(ctx2) != l {
		t.Fatalf("logger not propagated")
	}
}

func TestRenderFlame(t *testing.T) {
	tr := NewTracer(Options{Seed: 1})
	ctx, root := tr.Start(context.Background(), "optimize")
	_, enc := StartSpan(ctx, "encode")
	enc.SetAttr("qubits", 12)
	enc.End(nil)
	root.End(nil)

	var buf strings.Builder
	RenderFlame(&buf, tr.Snapshots()[0], 40)
	out := buf.String()
	for _, want := range []string{"optimize", "encode", "qubits=12", "█"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flame rendering missing %q:\n%s", want, out)
		}
	}
}
