// Package obs is the observability layer of the solve pipeline: a
// context-propagated span tracer with a bounded lock-free trace store,
// structured logging on log/slog with request-ID propagation, Prometheus
// text-exposition helpers, and opt-in per-span allocation/CPU profiling.
//
// The paper's empirical story depends on knowing where time and qubits go
// — per-stage costs of the MILP → BILP → QUBO pipeline, transpilation
// depth, annealer/QAOA run time. The related work on real-time hybrid
// database optimisation frames classical-vs-quantum routing as a
// latency-budget question; this package makes those budgets measurable
// per request instead of guessed: a single trace answers "why did this
// query take 40 ms and which racer won".
//
// Design constraints:
//
//   - stdlib only — no external tracing or metrics dependency.
//   - The disabled path (no Tracer configured) must cost essentially
//     nothing: StartSpan on an unarmed context is one context lookup and
//     a nil return, and every *Span method is safe (and free) on nil.
//   - The enabled path is tail-sampled: the keep/drop decision is made
//     when the root span ends, so traces for errors and slow requests are
//     always kept regardless of the probabilistic sample rate.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// ctxKey is the private context-key namespace of the package.
type ctxKey int

const (
	spanKey ctxKey = iota
	tracerKey
	requestIDKey
	loggerKey
)

// Default tuning values; see Options.
const (
	DefaultCapacity      = 64
	DefaultSlowThreshold = 100 * time.Millisecond
)

// Options tune a Tracer.
type Options struct {
	// Capacity bounds the trace ring buffer (default 64): the store keeps
	// the most recent Capacity sampled traces and overwrites the oldest.
	Capacity int
	// SampleRate is the probability of keeping a healthy, fast trace
	// (default 1 when exactly zero; set Disabled to drop everything).
	// Error traces and traces at/above SlowThreshold are always kept.
	SampleRate float64
	// SlowThreshold is the root-span duration at which a trace is always
	// kept regardless of SampleRate (default 100ms; negative disables the
	// slow override).
	SlowThreshold time.Duration
	// Profile records per-span heap-allocation and process-CPU deltas.
	// Both counters are process-wide, so attribution is approximate under
	// concurrency — a profiling aid, not an accounting ledger. Opt-in
	// because reading them costs two syscalls per span.
	Profile bool
	// Seed drives the deterministic probabilistic sampler.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	if o.SampleRate == 0 {
		o.SampleRate = 1
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = DefaultSlowThreshold
	}
	return o
}

// Tracer creates and stores traces. All methods are safe for concurrent
// use and safe on a nil receiver (a nil *Tracer never traces).
type Tracer struct {
	opts  Options
	store *ringStore

	sampleState atomic.Uint64 // splitmix64 stream for the sampler

	started atomic.Int64
	stored  atomic.Int64
	dropped atomic.Int64

	// sink, when set (before traffic starts), receives a snapshot of every
	// finished root span, kept or not — the aggregation hook used by
	// cmd/experiments for per-stage timing breakdowns.
	sink func(TraceSnapshot)
}

// NewTracer builds a tracer with the given options.
func NewTracer(opts Options) *Tracer {
	opts = opts.withDefaults()
	t := &Tracer{opts: opts, store: newRingStore(opts.Capacity)}
	t.sampleState.Store(uint64(opts.Seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3)
	return t
}

// SetSink registers fn to receive every finished root trace. Call before
// the tracer sees traffic; fn must be safe for concurrent use.
func (t *Tracer) SetSink(fn func(TraceSnapshot)) { t.sink = fn }

// NewContext arms ctx with the tracer so that a later StartSpan (with no
// active parent span) opens a root span. A nil tracer returns ctx
// unchanged.
func NewContext(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the tracer armed on ctx, or nil.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Start opens a span: a child of the active span when ctx carries one,
// otherwise a new root trace on the tracer (the receiver, or failing
// that, one armed on ctx via NewContext). With neither an active span nor
// a tracer it is a no-op returning (ctx, nil) — every method on the nil
// span is safe, so call sites never branch.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent, ok := ctx.Value(spanKey).(*Span); ok && parent != nil {
		return parent.startChild(ctx, name)
	}
	if t == nil {
		t = FromContext(ctx)
		if t == nil {
			return ctx, nil
		}
	}
	return t.startRoot(ctx, name)
}

// StartSpan opens a child of the active span on ctx, or a root span when
// ctx was armed with a tracer via NewContext; otherwise it is a no-op
// returning (ctx, nil). This is the call instrumented pipeline stages
// use: with no tracer in play it costs one context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return (*Tracer)(nil).Start(ctx, name)
}

// ActiveSpan returns the span ctx carries, or nil.
func ActiveSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// startRoot opens a new root span; the trace ID is the request ID on ctx
// when present (so /debug/traces lookups by X-Request-ID work), a fresh
// ID otherwise.
func (t *Tracer) startRoot(ctx context.Context, name string) (context.Context, *Span) {
	id := RequestID(ctx)
	if id == "" {
		id = NewRequestID()
	}
	t.started.Add(1)
	sc := &spanCtx{Context: ctx}
	s := &sc.span
	s.tracer = t
	s.root = s
	s.traceID = id
	s.name = name
	s.isRoot = true
	s.start = time.Now()
	if t.opts.Profile {
		p := readProfCounters()
		s.prof = &p
	}
	return sc, s
}

// finish runs the tail-sampling policy on a finished root span.
func (t *Tracer) finish(root *Span) {
	keep, reason := t.keep(root)
	root.mu.Lock()
	root.keptReason = reason
	root.mu.Unlock()
	if keep {
		t.store.add(root)
		t.stored.Add(1)
	} else {
		t.dropped.Add(1)
	}
	if t.sink != nil {
		t.sink(root.Trace())
	}
}

// keep decides whether a finished root trace is stored: always for
// errors, always for slow traces, probabilistically otherwise. The root
// has ended (same goroutine), so endOff is stable to read unlocked.
func (t *Tracer) keep(root *Span) (bool, string) {
	if root.errored.Load() {
		return true, "error"
	}
	if t.opts.SlowThreshold >= 0 && root.endOff >= t.opts.SlowThreshold {
		return true, "slow"
	}
	if t.randFloat() < t.opts.SampleRate {
		return true, "sampled"
	}
	return false, ""
}

// randFloat draws from a lock-free deterministic splitmix64 stream.
func (t *Tracer) randFloat() float64 {
	x := t.sampleState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Snapshots returns the stored traces, most recent first. Traces holding
// still-open spans (racers still running when the deadline ended the
// orchestration) snapshot those spans with Open: true and their duration
// so far.
func (t *Tracer) Snapshots() []TraceSnapshot {
	if t == nil {
		return nil
	}
	roots := t.store.all()
	out := make([]TraceSnapshot, 0, len(roots))
	for _, r := range roots {
		out = append(out, r.Trace())
	}
	return out
}

// Find returns the stored trace with the given trace/request ID.
func (t *Tracer) Find(traceID string) (TraceSnapshot, bool) {
	if t == nil {
		return TraceSnapshot{}, false
	}
	for _, r := range t.store.all() {
		if r.traceID == traceID {
			return r.Trace(), true
		}
	}
	return TraceSnapshot{}, false
}

// Stats reports the tracer's lifetime counters.
type Stats struct {
	Started int64 `json:"started"`
	Stored  int64 `json:"stored"`
	Dropped int64 `json:"dropped"`
}

// Stats returns the tracer's lifetime counters (zero on a nil tracer).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started: t.started.Load(),
		Stored:  t.stored.Load(),
		Dropped: t.dropped.Load(),
	}
}
