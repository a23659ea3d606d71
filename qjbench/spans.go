package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/service"
)

// span is one timed call into a layer, recorded by this package around
// the layer's public function. Spans of one request share req; parent is
// -1 for a root. Replays (a stage called again on the same input right
// after the answer) are roots of their own, so they never count towards
// the request's root time.
type span struct {
	req        int64
	parent     int
	layer      string
	name       string
	start, end time.Time // end is zero while the call runs
	failed     bool
}

// recorder keeps every span of a run in memory until the run ends. A nil
// recorder records nothing.
type recorder struct {
	mu       sync.Mutex
	spans    []span
	nextReq  int64
	outcomes map[int64]*hybrid.Outcome
}

func newRecorder() *recorder { return &recorder{outcomes: map[int64]*hybrid.Outcome{}} }

type spanKey struct{}

type spanRef struct {
	req int64
	id  int
}

// root opens a request's root span.
func (r *recorder) root(ctx context.Context, layer, name string) (context.Context, func(error)) {
	r.mu.Lock()
	r.nextReq++
	req := r.nextReq
	r.mu.Unlock()
	return r.open(context.WithValue(ctx, spanKey{}, &spanRef{req: req, id: -1}), layer, name)
}

// start opens a child of the span in ctx, or a root when ctx has none.
// On a nil recorder it records nothing.
func (r *recorder) start(ctx context.Context, layer, name string) (context.Context, func(error)) {
	if r == nil {
		return ctx, func(error) {}
	}
	if ctx.Value(spanKey{}) == nil {
		return r.root(ctx, layer, name)
	}
	return r.open(ctx, layer, name)
}

func (r *recorder) open(ctx context.Context, layer, name string) (context.Context, func(error)) {
	parent := ctx.Value(spanKey{}).(*spanRef)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{req: parent.req, parent: parent.id, layer: layer, name: name, start: time.Now()})
	r.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, &spanRef{req: parent.req, id: id}), func(err error) {
		now := time.Now()
		r.mu.Lock()
		r.spans[id].end = now
		r.spans[id].failed = err != nil
		r.mu.Unlock()
	}
}

// reqOf returns the request id of the span in ctx.
func reqOf(ctx context.Context) int64 {
	if ref, ok := ctx.Value(spanKey{}).(*spanRef); ok {
		return ref.req
	}
	return 0
}

// selfTimes attributes every instant of each root span's interval to the
// spans active at that instant that have no active child, split equally
// among them when several run concurrently (a hybrid portfolio). A child's
// interval is clipped to its parent's first, so a straggler that outlives
// its parent is charged only for the overlap, and an unfinished span ends
// with its parent. Per tree, the self times therefore sum to the root's
// duration; the root's own share is the time no child span covers.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	lo := make([]time.Time, len(spans))
	hi := make([]time.Time, len(spans))
	trees := map[int][]int{}
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		lo[i], hi[i] = s.start, s.end
		if s.parent < 0 {
			rootOf[i] = i
		} else {
			p := s.parent
			rootOf[i] = rootOf[p]
			if hi[i].IsZero() || hi[i].After(hi[p]) {
				hi[i] = hi[p]
			}
			if lo[i].Before(lo[p]) {
				lo[i] = lo[p]
			}
			if hi[i].Before(lo[i]) {
				hi[i] = lo[i]
			}
		}
		trees[rootOf[i]] = append(trees[rootOf[i]], i)
	}
	for _, members := range trees {
		var times []time.Time
		for _, i := range members {
			times = append(times, lo[i], hi[i])
		}
		sort.Slice(times, func(a, b int) bool { return times[a].Before(times[b]) })
		for k := 0; k+1 < len(times); k++ {
			t0, t1 := times[k], times[k+1]
			if !t1.After(t0) {
				continue
			}
			// The spans covering [t0, t1) that have no child covering it.
			var active []int
			for _, i := range members {
				if !lo[i].After(t0) && !hi[i].Before(t1) {
					active = append(active, i)
				}
			}
			busy := map[int]bool{}
			for _, i := range active {
				busy[spans[i].parent] = true
			}
			var frontier []int
			for _, i := range active {
				if !busy[i] {
					frontier = append(frontier, i)
				}
			}
			share := t1.Sub(t0) / time.Duration(len(frontier))
			rem := t1.Sub(t0) - share*time.Duration(len(frontier))
			for j, i := range frontier {
				self[i] += share
				if j == 0 {
					self[i] += rem
				}
			}
		}
	}
	return self
}

// layerOf maps a registered backend to the layer its Solve belongs to.
func layerOf(backend string) string {
	switch backend {
	case "dp", "greedy":
		return "classical"
	case "tabu":
		return "qubo"
	case "milp":
		return "core"
	}
	return backend // anneal, qaoa, hybrid
}

// traced wraps a registered backend with a span around Solve (and
// SolveBatch). It keeps the wrapped backend's optional interfaces, so the
// service's batch path and the hybrid portfolio's breaker checks see what
// they would see without it.
type traced struct {
	inner service.Backend
	rec   *recorder
	layer string
}

func (t *traced) Name() string { return t.inner.Name() }

func (t *traced) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	ctx, end := t.rec.start(ctx, t.layer, t.Name())
	var d *core.Decoded
	var err error
	if hb, ok := t.inner.(*hybrid.Backend); ok {
		// Orchestrate exposes every candidate, which Solve discards.
		var out *hybrid.Outcome
		if out, err = hb.Orchestrate(ctx, enc, p); err == nil {
			d = out.Best
			t.rec.mu.Lock()
			t.rec.outcomes[reqOf(ctx)] = out
			t.rec.mu.Unlock()
		}
	} else {
		d, err = t.inner.Solve(ctx, enc, p)
	}
	end(err)
	return d, err
}

func (t *traced) solveBatch(ctx context.Context, encs []*core.Encoding, ps []service.Params) ([]*core.Decoded, []error) {
	ctx, end := t.rec.start(ctx, t.layer, t.Name())
	ds, errs := t.inner.(service.BatchSolver).SolveBatch(ctx, encs, ps)
	var first error
	for _, err := range errs {
		if err != nil && first == nil {
			first = err
		}
	}
	end(first)
	return ds, errs
}

func (t *traced) health() service.BackendHealth {
	return t.inner.(service.HealthReporter).Health()
}

type tracedBatch struct{ *traced }

func (t tracedBatch) SolveBatch(ctx context.Context, encs []*core.Encoding, ps []service.Params) ([]*core.Decoded, []error) {
	return t.solveBatch(ctx, encs, ps)
}

type tracedHealth struct{ *traced }

func (t tracedHealth) Health() service.BackendHealth { return t.health() }

type tracedBatchHealth struct{ *traced }

func (t tracedBatchHealth) SolveBatch(ctx context.Context, encs []*core.Encoding, ps []service.Params) ([]*core.Decoded, []error) {
	return t.solveBatch(ctx, encs, ps)
}

func (t tracedBatchHealth) Health() service.BackendHealth { return t.health() }

func wrapBackend(b service.Backend, rec *recorder) service.Backend {
	t := &traced{inner: b, rec: rec, layer: layerOf(b.Name())}
	_, batch := b.(service.BatchSolver)
	_, health := b.(service.HealthReporter)
	switch {
	case batch && health:
		return tracedBatchHealth{t}
	case batch:
		return tracedBatch{t}
	case health:
		return tracedHealth{t}
	}
	return t
}
