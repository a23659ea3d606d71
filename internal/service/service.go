package service

import (
	"context"
	"encoding/hex"
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
	// LogicalQubits is the QUBO encoding size: 0 for a query-level backend
	// (decomp), which builds no QUBO.
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
	if req.Query == nil {
		return nil, fmt.Errorf("service: request has no query: %w", ErrBadRequest)
	}
	if err := req.Query.Validate(); err != nil {
		return nil, fmt.Errorf("service: invalid query: %v: %w", err, ErrBadRequest)
	}
	name := req.Backend
	if name == "" {
		name = s.cfg.DefaultBackend
	}
	backend, ok := s.reg.Get(name)
	if !ok {
		return nil, fmt.Errorf("service: unknown backend %q (have: %s): %w",
			name, strings.Join(s.reg.Names(), ", "), ErrBadRequest)
	}

	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	run := s.pool.Run
	if s.cfg.Shed {
		run = s.pool.TryRun
	}
	var resp *Response
	var solveErr error
	if err := run(ctx, func(ctx context.Context) {
		resp, solveErr = s.solve(ctx, backend, req)
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

// solve runs on a pool worker: encoding (cached), panic-guarded backend
// solve, result vetting, optional classical degradation, and mapping the
// canonical-labelled result back into the request's indexing.
func (s *Service) solve(ctx context.Context, backend Backend, req *Request) (*Response, error) {
	resp := &Response{}
	if err := s.solveInto(ctx, backend, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// solveInto is solve writing into a caller-owned Response: the warm path
// (cache hit, healthy backend, Lean request, tracing off) performs zero
// allocations beyond whatever the backend itself does — fingerprint and
// decode scratch comes from the service's reqScratch pool and the
// response's slices are reused in place.
func (s *Service) solveInto(ctx context.Context, backend Backend, req *Request, resp *Response) error {
	sc := s.scratch.Get().(*reqScratch)
	defer s.scratch.Put(sc)

	// Query-level backends (decomposition) plan over the join graph
	// directly and build no encoding; routing them
	// through the monolithic encode would be wasted work at best and a
	// hard error above core.MaxMonolithicRelations.
	if qb, ok := backend.(QueryBackend); ok {
		return s.solveQueryInto(ctx, qb, req, sc, resp)
	}

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
		d, producer = s.fallback(fbCtx, enc.Query, enc)
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
		compareOptimal(ctx, enc, req.Query, resp)
	}
	decodeSpan.End(nil)
	return nil
}

// compares reports whether req's response carries the optimal-cost
// comparison: a non-lean request of at most CompareRelations relations.
func (s *Service) compares(req *Request) bool {
	return !req.Lean && s.cfg.CompareRelations > 0 && req.Query.NumRelations() <= s.cfg.CompareRelations
}

// optimum returns the exact DP optimum of q, the canonical instance: from
// the optimum memo of enc, q's cache entry, which the first sweep that
// completes fills for every later request on the entry (plan costs are
// invariant under relation relabelling), or from an unmemoised sweep when
// enc is nil. reused reports a memo hit. A sweep the deadline cuts short
// fails and leaves the memo empty.
func optimum(ctx context.Context, enc *core.Encoding, q *join.Query) (res classical.Result, reused bool, err error) {
	if enc != nil {
		return enc.OptimalContext(ctx)
	}
	res, err = classical.OptimalContext(ctx, q)
	return res, false, err
}

// compareOptimal sets resp's optimal-cost comparison from the optimum of
// q (see optimum), and records a memo read on the active span as
// optimum=reused|computed. A sweep the deadline cuts short skips the
// comparison.
func compareOptimal(ctx context.Context, enc *core.Encoding, q *join.Query, resp *Response) {
	opt, reused, err := optimum(ctx, enc, q)
	if err != nil {
		return
	}
	if enc != nil {
		obs.ActiveSpan(ctx).SetAttrStr("optimum", reusedAttr(reused))
	}
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
// enc, when not nil, is q's cache entry: the DP plan then comes from its
// optimum memo, without a sweep when the optimum is already stored.
func (s *Service) fallback(ctx context.Context, q *join.Query, enc *core.Encoding) (*core.Decoded, string) {
	n := q.NumRelations()
	if s.cfg.CompareRelations > 0 && n <= s.cfg.CompareRelations {
		if res, _, err := optimum(ctx, enc, q); err == nil {
			return &core.Decoded{Valid: true, Order: res.Order, Cost: res.Cost}, "dp"
		}
	}
	res := classical.Greedy(q)
	return &core.Decoded{Valid: true, Order: res.Order, Cost: res.Cost}, "greedy"
}

// solveQueryInto serves a QueryBackend request. The WL fingerprint is
// still computed — it is the response CacheKey and the cluster routing
// key — but no monolithic encoding is built: the backend's answer never
// comes from the cache. As on the encoding path, the backend plans the
// canonical relabelling of the query and its order is translated back
// into the request's own relation indexing, so relabelling a request's
// relations cannot change its plan. The query's prepared cache entry holds
// its optimum memo, which the degrade fallback and the optimal-cost
// comparison read, so repeats of a query shape sweep its DP once.
func (s *Service) solveQueryInto(ctx context.Context, backend QueryBackend, req *Request, sc *reqScratch, resp *Response) error {
	sum, perm := sc.fp.sum(req.Query, req.Spec)
	key := hex.EncodeToString(sum[:])
	cq := canonicalize(req.Query, perm)
	obs.ActiveSpan(ctx).SetAttrBool("cache_hit", false)

	bm := s.metrics.Backend(backend.Name())
	solveCtx, solveSpan := obs.StartSpan(ctx, "solve")
	solveSpan.SetAttrStr("backend", backend.Name())
	solveStart := time.Now()
	d, err := s.safeSolveQuery(solveCtx, backend, cq, req.Params)
	if err == nil {
		err = vetDecoded(req.Query.NumRelations(), backend.Name(), d)
	}
	bm.Observe(time.Since(solveStart), err)
	solveSpan.End(err)

	// Only a request that may read the optimum fetches the entry (both
	// readers stop above CompareRelations). It stays nil where Prepare
	// rejects the spec, say above core.MaxMonolithicRelations, and both
	// readers then sweep unmemoised.
	var enc *core.Encoding
	if n := req.Query.NumRelations(); (err != nil || !req.Lean) && s.cfg.CompareRelations > 0 && n <= s.cfg.CompareRelations {
		enc, _ = s.cache.entry(sum, key, req.Query, perm, req.Spec)
	}

	producer := backend.Name()
	degraded := false
	reason := ""
	if err != nil {
		if !s.cfg.Degrade || errors.Is(err, ErrBadRequest) {
			return err
		}
		fbCtx, fbSpan := obs.StartSpan(ctx, "degrade")
		d, producer = s.fallback(fbCtx, cq, enc)
		fbSpan.SetAttrStr("fallback", producer)
		fbSpan.End(nil)
		degraded, reason = true, err.Error()
		s.metrics.degrades.Add(1)
		s.metrics.Backend(producer).RecordDegraded()
		if errors.Is(err, ErrPanic) {
			s.metrics.panics.Add(1)
		}
		obs.Logger(ctx).WarnContext(ctx, "backend failed, degrading to classical plan",
			"backend", backend.Name(), "fallback", producer, "error", reason)
	}

	order := sc.requestOrder(perm, d.Order, resp.Order[:0])

	resp.Backend = producer
	resp.Order = order
	resp.Tree = ""
	if !req.Lean {
		resp.Tree = req.Query.Tree(order)
	}
	resp.Cost = req.Query.Cost(order)
	resp.OptimalCost = 0
	resp.Optimal = false
	resp.LogicalQubits = 0
	resp.CacheKey = key
	resp.CacheHit = false
	resp.Degraded = degraded
	resp.DegradedReason = reason
	resp.Elapsed = 0
	if s.compares(req) {
		compareOptimal(ctx, enc, cq, resp)
	}
	return nil
}

// safeSolveQuery is safeSolve for query-level backends: panic containment
// around SolveQuery.
func (s *Service) safeSolveQuery(ctx context.Context, backend QueryBackend, q *join.Query, p Params) (d *core.Decoded, err error) {
	defer func() {
		if r := recover(); r != nil {
			d = nil
			err = fmt.Errorf("service: backend %q panicked: %v: %w", backend.Name(), r, ErrPanic)
		}
	}()
	return backend.SolveQuery(ctx, q, p)
}
