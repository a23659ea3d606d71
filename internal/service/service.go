package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
)

// ErrBadRequest marks client errors (invalid query, unknown backend,
// oversized instance); the HTTP layer maps it to 400.
var ErrBadRequest = errors.New("service: bad request")

// Config tunes a Service.
type Config struct {
	// Workers bounds concurrent solves (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds waiting requests (default: 2× workers).
	QueueDepth int
	// CacheSize bounds the encoding cache (default 256 entries).
	CacheSize int
	// DefaultTimeout is applied when a request carries no deadline of its
	// own (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 60s).
	MaxTimeout time.Duration
	// DefaultBackend serves requests that name no backend (default
	// "anneal").
	DefaultBackend string
	// CompareRelations is the largest relation count for which responses
	// include the classically computed optimal cost (default 16; 0 keeps
	// the default, negative disables the comparison).
	CompareRelations int
	// Shed selects load shedding over backpressure: when the worker
	// pool's bounded queue is full, requests are rejected immediately
	// with ErrOverloaded (HTTP 503 + Retry-After) instead of blocking
	// until their deadline. cmd/qjoind enables it by default.
	Shed bool
	// Degrade enables the last-resort classical fallback: when the
	// selected backend fails (fault, panic, deadline, invalid result),
	// the service answers with the greedy — or, within budget, the exact
	// DP — plan and marks the response Degraded instead of erroring.
	// Client errors (ErrBadRequest) never degrade. cmd/qjoind enables it
	// by default; the zero value keeps the strict fail-fast behaviour.
	Degrade bool
	// Tracer, when non-nil, traces every request: a root "optimize" span
	// with encode/solve/decode children (and deeper backend-specific
	// spans), tail-sampled into the tracer's ring buffer and served at
	// /debug/traces. Nil disables tracing at near-zero cost.
	Tracer *obs.Tracer
	// Logger receives structured request/degradation/resilience logs with
	// request IDs injected from the context. Nil discards.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ on the service's
	// HTTP handler. Off by default: profiling endpoints are opt-in.
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.DefaultBackend == "" {
		c.DefaultBackend = "anneal"
	}
	if c.CompareRelations == 0 {
		c.CompareRelations = 16
	}
	return c
}

// Service is the concurrent join order optimisation engine behind
// cmd/qjoind: registry + cache + pool + metrics.
type Service struct {
	cfg     Config
	reg     *Registry
	cache   *EncodingCache
	pool    *Pool
	metrics *Metrics
	scratch sync.Pool // *reqScratch, reused across requests
	batch   sync.Pool // *batchScratch, reused across batch envelopes
}

// reqScratch is the per-request working storage of the warm optimize
// path: fingerprint buffers, the inverse permutation, and decode scratch.
// Instances cycle through Service.scratch so a steady stream of
// same-shaped requests reuses the same allocations.
type reqScratch struct {
	fp  fingerprinter
	inv []int
	dec core.Decoder
}

// requestOrder appends to dst the canonical-labelled order translated
// back into the request's relation indexing (perm[original] = canonical).
func (sc *reqScratch) requestOrder(perm []int, canonical, dst join.Order) join.Order {
	sc.inv = growInts(sc.inv, len(perm))
	for orig, canon := range perm {
		sc.inv[canon] = orig
	}
	for _, canon := range canonical {
		dst = append(dst, sc.inv[canon])
	}
	return dst
}

// New assembles a service over the given backend registry.
func New(reg *Registry, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		reg:     reg,
		cache:   NewEncodingCache(cfg.CacheSize),
		pool:    NewPool(cfg.Workers, cfg.QueueDepth),
		metrics: NewMetrics(),
	}
	s.scratch.New = func() any { return new(reqScratch) }
	s.batch.New = func() any { return new(batchScratch) }
	return s
}

// Request is one optimisation job.
type Request struct {
	// Query is the join ordering instance (validated here).
	Query *join.Query
	// Backend names the registered solver; empty selects the default.
	Backend string
	// Spec selects the QUBO encoding options (and the cache key).
	Spec EncodeSpec
	// Params are the solver knobs.
	Params Params
	// Timeout is the per-request deadline; 0 selects the default, and
	// values above Config.MaxTimeout are clamped to it.
	Timeout time.Duration
	// Lean trims the response for latency-critical callers: the rendered
	// Tree string and the classical optimal-cost comparison are skipped
	// (Tree is empty, OptimalCost/Optimal are zero). The order, cost, and
	// cache metadata are unaffected.
	Lean bool
}

// Response is the outcome of one optimisation job.
type Response struct {
	// Backend is the solver that produced the result.
	Backend string
	// Order is the join order in the request's own relation indexing.
	Order join.Order
	// Tree renders Order over the request's relation names.
	Tree string
	// Cost is the exact C_out cost of Order.
	Cost float64
	// OptimalCost is the classical DP optimum (0 when the comparison was
	// skipped, see Config.CompareRelations); Optimal reports Cost ≈
	// OptimalCost.
	OptimalCost float64
	Optimal     bool
	// LogicalQubits is the exact logical-qubit count of the query's
	// monolithic QUBO encoding, which the cache entry knows without a
	// build: the same for every backend, whether or not it built the QUBO
	// (dp, greedy and decomp never do, nor does anything above
	// core.MaxMonolithicRelations).
	LogicalQubits int
	// CacheKey is the permutation-invariant WL-hash fingerprint of (query
	// shape, encoding options) — the encoding-cache key and the cluster
	// routing key. Clients can use it to pre-group requests for
	// /v1/optimize/batch or to verify sticky routing.
	CacheKey string
	// CacheHit reports whether the encoding came from the cache.
	CacheHit bool
	// Degraded reports that the selected backend failed and the order
	// came from the classical fallback path instead; Backend then names
	// the fallback solver ("greedy" or "dp") and DegradedReason carries
	// the original failure.
	Degraded       bool
	DegradedReason string
	// Elapsed is the end-to-end service time including queueing.
	Elapsed time.Duration
}

// Backends lists the registered backend names.
func (s *Service) Backends() []string { return s.reg.Names() }

// MetricsSnapshot captures the current observability counters, including
// the breaker state of every health-reporting backend.
func (s *Service) MetricsSnapshot() Snapshot {
	snap := s.metrics.Snapshot(s.cache)
	for name, h := range s.Health() {
		hh := h
		b := snap.Backends[name] // zero value when the backend never solved
		b.Breaker = &hh
		snap.Backends[name] = b
	}
	return snap
}

// Health reports the resilience state of every registered backend that
// tracks one (see HealthReporter); backends without a breaker are absent.
func (s *Service) Health() map[string]BackendHealth {
	out := make(map[string]BackendHealth)
	for _, name := range s.reg.Names() {
		b, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		if hr, ok := b.(HealthReporter); ok {
			out[name] = hr.Health()
		}
	}
	return out
}

// Metrics exposes the live metrics registry so out-of-package backends
// (the hybrid orchestrator) can record per-backend arbitration outcomes.
func (s *Service) Metrics() *Metrics { return s.metrics }

// PurgeCache drops all cached encodings (used by benchmarks and tests).
func (s *Service) PurgeCache() { s.cache.Purge() }

// Close gracefully shuts the service down: no new requests are admitted,
// queued work drains, and in-flight solves finish; ctx bounds the wait.
func (s *Service) Close(ctx context.Context) error {
	return s.pool.Shutdown(ctx)
}

// Warm validates req and populates the encoding cache without solving:
// the cluster layer pushes a primary owner's fresh encodings to the key's
// replicas this way, so a failover lands on a warm cache. It returns the
// cache key and whether the encoding was already cached.
func (s *Service) Warm(ctx context.Context, req *Request) (key string, hit bool, err error) {
	if req == nil || req.Query == nil {
		return "", false, fmt.Errorf("service: warm: missing query: %w", ErrBadRequest)
	}
	_, key, _, hit, err = s.cache.Encoding(req.Query, req.Spec)
	if err != nil {
		return "", false, fmt.Errorf("service: warm: encoding failed: %v: %w", err, ErrBadRequest)
	}
	return key, hit, nil
}

// Optimize runs one request through the pool under its deadline. When
// the service has a tracer, the whole request runs under a root
// "optimize" span — errors (including sheds) end the span in error, so
// the tail sampler always keeps their traces.
func (s *Service) Optimize(ctx context.Context, req *Request) (*Response, error) {
	start := time.Now()
	s.metrics.requests.Add(1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	ctx, span := s.cfg.Tracer.Start(ctx, "optimize")
	if req != nil && req.Backend != "" {
		span.SetAttr("backend", req.Backend)
	}

	resp, err := s.optimize(ctx, req, start)
	if err != nil {
		s.metrics.errors.Add(1)
		if errors.Is(err, ErrOverloaded) {
			s.metrics.sheds.Add(1)
			span.SetAttr("shed", true)
		}
		span.End(err)
		return nil, err
	}
	span.SetAttr("producer", resp.Backend)
	span.SetAttr("cost", resp.Cost)
	if resp.Degraded {
		span.SetAttr("degraded", true)
	}
	span.End(nil)
	return resp, nil
}

func (s *Service) optimize(ctx context.Context, req *Request, start time.Time) (*Response, error) {
	backend, err := s.resolve(req)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req.Timeout))
	defer cancel()

	resp := &Response{}
	var solveErr error
	if err := s.run(ctx, func(ctx context.Context) {
		solveErr = s.solveInto(ctx, backend, req, resp)
	}); err != nil {
		if errors.Is(err, ErrPanic) {
			s.metrics.panics.Add(1)
		}
		return nil, err
	}
	if solveErr != nil {
		return nil, solveErr
	}
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// resolve validates req and looks its backend up, the checks a request
// makes before it is solved, alone or in a batch. Its errors are client
// errors without the caller's prefix.
func (s *Service) resolve(req *Request) (Backend, error) {
	if req == nil || req.Query == nil {
		return nil, fmt.Errorf("request has no query: %w", ErrBadRequest)
	}
	if err := req.Query.Validate(); err != nil {
		return nil, fmt.Errorf("invalid query: %v: %w", err, ErrBadRequest)
	}
	name := req.Backend
	if name == "" {
		name = s.cfg.DefaultBackend
	}
	backend, ok := s.reg.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q (have: %s): %w",
			name, strings.Join(s.reg.Names(), ", "), ErrBadRequest)
	}
	return backend, nil
}

// timeout is the deadline a request gets for its requested timeout t:
// the default when t is not positive, and at most Config.MaxTimeout.
func (s *Service) timeout(t time.Duration) time.Duration {
	if t <= 0 {
		t = s.cfg.DefaultTimeout
	}
	return min(t, s.cfg.MaxTimeout)
}

// run runs f on the pool: with Config.Shed a full queue rejects it at
// once, otherwise it waits for a slot until ctx ends.
func (s *Service) run(ctx context.Context, f func(context.Context)) error {
	if s.cfg.Shed {
		return s.pool.TryRun(ctx, f)
	}
	return s.pool.Run(ctx, f)
}

// solveInto runs one request on a pool worker, writing into a caller-
// owned Response: encoding (cached), panic-guarded backend solve, result
// vetting, optional classical degradation, and mapping the canonical-
// labelled result back into the request's indexing. It is the one
// request path: every backend, decomp included, solves the request's
// prepared cache entry and rejects only what it cannot read. The warm path
// (cache hit, healthy backend, Lean request, tracing off) performs zero
// allocations beyond whatever the backend itself does — fingerprint and
// decode scratch comes from the service's reqScratch pool and the
// response's slices are reused in place.
func (s *Service) solveInto(ctx context.Context, backend Backend, req *Request, resp *Response) error {
	sc := s.scratch.Get().(*reqScratch)
	defer s.scratch.Put(sc)

	// A hit is recorded as an attribute on the active (root) span rather
	// than a noise span. The entry is prepared, not built: a backend that
	// reads the QUBO builds it (BuildQUBO), under its solve span.
	enc, key, perm, hit, err := s.cache.encodingScratch(req.Query, req.Spec, &sc.fp)
	obs.ActiveSpan(ctx).SetAttrBool("cache_hit", hit)
	if err != nil {
		return fmt.Errorf("service: encoding failed: %v: %w", err, ErrBadRequest)
	}

	bm := s.metrics.Backend(backend.Name())
	solveCtx, solveSpan := obs.StartSpan(ctx, "solve")
	solveSpan.SetAttrStr("backend", backend.Name())
	solveStart := time.Now()
	d, err := s.safeSolve(solveCtx, backend, enc, req.Params)
	if err == nil {
		// Never trust a backend's result structurally: an unreliable QPU
		// (or a fault injector standing in for one) can return corrupted
		// solutions with a straight face. An invalid order is a backend
		// failure like any other — eligible for degradation, never served.
		err = vetDecoded(enc.Query.NumRelations(), backend.Name(), d)
	}
	bm.Observe(time.Since(solveStart), err)
	solveSpan.End(err)

	return s.finishInto(ctx, req, backend.Name(), enc, key, perm, hit, d, err, sc, resp)
}

// finishInto turns one (possibly failed) backend outcome into a Response:
// classical degradation when enabled, translation of the canonical-
// labelled order back into the request's own relation indexing, true-cost
// re-scoring, and the optional optimal-cost comparison. It is shared by
// the single-request path and the batch path — in a batch, one solve of a
// deduplicated canonical instance is finished once per member request,
// each with its own permutation. Every Response field is (re)assigned, so
// a recycled Response never leaks stale state; resp.Order's backing array
// is reused in place.
func (s *Service) finishInto(ctx context.Context, req *Request, backendName string, enc *core.Encoding, key string, perm []int, hit bool, d *core.Decoded, err error, sc *reqScratch, resp *Response) error {
	producer := backendName
	degraded := false
	reason := ""
	if err != nil {
		if !s.cfg.Degrade || errors.Is(err, ErrBadRequest) {
			return err
		}
		fbCtx, fbSpan := obs.StartSpan(ctx, "degrade")
		d, producer = s.fallback(fbCtx, enc)
		fbSpan.SetAttrStr("fallback", producer)
		fbSpan.End(nil)
		degraded, reason = true, err.Error()
		s.metrics.degrades.Add(1)
		// A degraded outcome, not an arbitration win: the fallback answered
		// only because the chosen backend failed.
		s.metrics.Backend(producer).RecordDegraded()
		if errors.Is(err, ErrPanic) {
			s.metrics.panics.Add(1)
		}
		obs.Logger(ctx).WarnContext(ctx, "backend failed, degrading to classical plan",
			"backend", backendName, "fallback", producer, "error", reason)
	}

	// The backend solved the canonical instance; translate the order back
	// into the request's relation indexing (costs are label-invariant).
	_, decodeSpan := obs.StartSpan(ctx, "decode")
	order := sc.requestOrder(perm, d.Order, resp.Order[:0])

	resp.Backend = producer
	resp.Order = order
	resp.Tree = ""
	if !req.Lean {
		resp.Tree = req.Query.Tree(order)
	}
	// Re-score by true plan cost in the request's own labelling: a
	// backend reporting a stale or energy-based cost cannot lie its way
	// into the response.
	resp.Cost = req.Query.Cost(order)
	resp.OptimalCost = 0
	resp.Optimal = false
	resp.LogicalQubits = enc.NumQubits()
	resp.CacheKey = key
	resp.CacheHit = hit
	resp.Degraded = degraded
	resp.DegradedReason = reason
	resp.Elapsed = 0
	if s.compares(req) {
		compareOptimal(ctx, enc, resp)
	}
	decodeSpan.End(nil)
	return nil
}

// compares reports whether req's response carries the optimal-cost
// comparison: a non-lean request of at most CompareRelations relations.
func (s *Service) compares(req *Request) bool {
	return !req.Lean && s.cfg.CompareRelations > 0 && req.Query.NumRelations() <= s.cfg.CompareRelations
}

// compareOptimal sets resp's optimal-cost comparison from the optimum
// memo of enc, the request's cache entry: the first sweep that completes
// fills it for every later request on the entry (plan costs are invariant
// under relation relabelling). It records the memo read on the active
// span as optimum=reused|computed. A sweep the deadline cuts short skips
// the comparison.
func compareOptimal(ctx context.Context, enc *core.Encoding, resp *Response) {
	opt, reused, err := enc.OptimalContext(ctx)
	if err != nil {
		return
	}
	obs.ActiveSpan(ctx).SetAttrStr("optimum", reusedAttr(reused))
	resp.OptimalCost = opt.Cost
	resp.Optimal = resp.Cost <= opt.Cost*(1+1e-9)+1e-12
}

// safeSolve invokes the backend with panic containment: one misbehaving
// backend must degrade its own request, never crash the daemon or leak a
// pool worker.
func (s *Service) safeSolve(ctx context.Context, backend Backend, enc *core.Encoding, p Params) (d *core.Decoded, err error) {
	defer func() {
		if r := recover(); r != nil {
			d = nil
			err = fmt.Errorf("service: backend %q panicked: %v: %w", backend.Name(), r, ErrPanic)
		}
	}()
	return backend.Solve(ctx, enc, p)
}

// vetDecoded checks that a backend result is a structurally valid join
// order over n relations.
func vetDecoded(n int, backend string, d *core.Decoded) error {
	if d == nil || !d.Valid {
		return fmt.Errorf("service: backend %q returned no valid join order", backend)
	}
	if !d.Order.IsPermutation(n) {
		return fmt.Errorf("service: backend %q returned order %v, not a permutation of %d relations",
			backend, d.Order, n)
	}
	return nil
}

// fallback is the last-resort classical path: the exact DP plan when the
// instance is small and the sweep can finish before the deadline (the
// sweep predicts its own finish and gives up early, and does not start
// once the deadline has passed), the greedy plan otherwise. Greedy is pure
// microsecond-scale compute and needs no context, so it succeeds even when
// the deadline is already blown — the degraded answer is always available.
// The DP plan comes from the optimum memo of enc, the request's cache
// entry, without a sweep when the optimum is already stored.
func (s *Service) fallback(ctx context.Context, enc *core.Encoding) (*core.Decoded, string) {
	if s.cfg.CompareRelations > 0 && enc.Query.NumRelations() <= s.cfg.CompareRelations {
		if res, _, err := enc.OptimalContext(ctx); err == nil {
			return &core.Decoded{Valid: true, Order: res.Order, Cost: res.Cost}, "dp"
		}
	}
	res := classical.Greedy(enc.Query)
	return &core.Decoded{Valid: true, Order: res.Order, Cost: res.Cost}, "greedy"
}
