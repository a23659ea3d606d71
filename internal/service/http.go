package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
)

// OptimizeRequest is the POST /v1/optimize body. Query uses the join
// catalog schema: {"relations":[{"name":...,"cardinality":...}],
// "predicates":[{"left":...,"right":...,"selectivity":...}]}.
//
// TimeoutMs is the per-request deadline in milliseconds: absent or 0
// selects the server-side default (Config.DefaultTimeout, 10s unless
// reconfigured), values above Config.MaxTimeout are clamped to it, and
// negative values are rejected with 400.
//
// Portfolio and HedgeMs tune the hybrid backend only: Portfolio lists
// backend names to orchestrate, and HedgeMs is the hedge delay before the
// quantum stage in milliseconds (0 default, negative launches it
// immediately).
//
// Lean trims the response for throughput-sensitive callers: the rendered
// join tree and the optimal-cost comparison (a classical DP per unseen
// query shape) are skipped, keeping the warm path allocation-free.
type OptimizeRequest struct {
	Backend      string          `json:"backend,omitempty"`
	Query        json.RawMessage `json:"query"`
	Thresholds   int             `json:"thresholds,omitempty"`
	Omega        float64         `json:"omega,omitempty"`
	LogObjective bool            `json:"log_objective,omitempty"`
	// Compact selects the reduced-variable QUBO encoding (fewer qubits
	// per instance; see core.Options.Compact).
	Compact bool  `json:"compact,omitempty"`
	Reads   int   `json:"reads,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	// PartBudget caps relations per partition part on the decomp backend
	// (0 selects the backend default); other backends ignore it.
	PartBudget int      `json:"part_budget,omitempty"`
	TimeoutMs  int      `json:"timeout_ms,omitempty"`
	Portfolio  []string `json:"portfolio,omitempty"`
	HedgeMs    int      `json:"hedge_ms,omitempty"`
	Lean       bool     `json:"lean,omitempty"`
}

// OptimizeResponse is the POST /v1/optimize result. Degraded reports that
// the selected backend failed and the plan came from the classical
// fallback instead (Backend then names the fallback solver);
// DegradedReason carries the original failure for observability.
type OptimizeResponse struct {
	Backend        string   `json:"backend"`
	Order          []string `json:"order"`
	Tree           string   `json:"tree"`
	Cost           float64  `json:"cost"`
	OptimalCost    float64  `json:"optimal_cost,omitempty"`
	Optimal        bool     `json:"optimal"`
	LogicalQubits  int      `json:"logical_qubits"`
	CacheKey       string   `json:"cache_key"`
	CacheHit       bool     `json:"cache_hit"`
	Degraded       bool     `json:"degraded"`
	DegradedReason string   `json:"degraded_reason,omitempty"`
	ElapsedMs      float64  `json:"elapsed_ms"`
}

type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// Cache-warmth headers, read and set by the cluster layer.
const (
	// HeaderWarmOnly marks a POST /v1/optimize request that should only
	// populate the encoding cache, not solve: the handler validates,
	// encodes (or confirms the encoding is cached), and answers 204. The
	// cluster layer uses it to push a primary owner's fresh encodings to
	// the key's replicas so a failover lands on a warm cache.
	HeaderWarmOnly = "X-Warm-Only"
	// HeaderCacheHit reports whether a successful optimize answer came
	// from the encoding cache ("1") or was encoded fresh ("0").
	HeaderCacheHit = "X-Cache-Hit"
)

// NewHandler exposes the service as an HTTP/JSON API:
//
//	POST /v1/optimize   — run one optimisation job
//	GET  /v1/backends   — list registered backends
//	GET  /metrics       — Prometheus text exposition
//	GET  /debug/traces  — recent request traces (JSON; ?id=, ?format=flame)
//	GET  /debug/pprof/* — runtime profiles (only with Config.Pprof)
//	GET  /healthz       — liveness probe
//
// Every request gets a request ID (an inbound X-Request-ID is adopted,
// otherwise one is generated), echoed as the X-Request-ID response
// header, attached to the context for structured logs and traces, and
// included in error bodies — a 503's ID resolves to its stored trace at
// /debug/traces?id=.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/optimize", s.handleOptimize)
	mux.HandleFunc("/v1/optimize/batch", s.handleOptimizeBatch)
	mux.HandleFunc("/v1/backends", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(r.Context(), w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"backends": s.Backends()})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(r.Context(), w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/traces", s.handleTraces)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		health := s.Health()
		status := "ok"
		for _, h := range health {
			if h.State != HealthOK {
				status = "degraded"
				break
			}
		}
		// Liveness stays 200 even when breakers are open: the daemon is
		// up and still answers every request via the classical fallback.
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   status,
			"backends": len(s.Backends()),
			"health":   health,
		})
	})
	return s.withRequestID(mux)
}

// withRequestID is the outermost middleware: request-ID minting and
// propagation, logger injection, and one structured access-log line per
// request.
func (s *Service) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		ctx := obs.WithRequestID(r.Context(), id)
		if s.cfg.Logger != nil {
			ctx = obs.WithLogger(ctx, s.cfg.Logger)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		if s.cfg.Logger != nil {
			s.cfg.Logger.InfoContext(ctx, "request",
				"method", r.Method, "path", r.URL.Path,
				"status", sw.status,
				"elapsed_ms", float64(time.Since(start))/float64(time.Millisecond))
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// handleTraces serves the tracer's ring buffer: all recent traces as
// JSON, one trace by ?id= (404 when unknown or expired), and a
// flame-style text rendering with ?format=flame.
func (s *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(r.Context(), w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	tracer := s.cfg.Tracer
	if tracer == nil {
		writeError(r.Context(), w, http.StatusNotFound, "tracing is not enabled")
		return
	}
	var traces []obs.TraceSnapshot
	if id := r.URL.Query().Get("id"); id != "" {
		t, ok := tracer.Find(id)
		if !ok {
			writeError(r.Context(), w, http.StatusNotFound, "no stored trace with id "+id)
			return
		}
		traces = []obs.TraceSnapshot{t}
	} else {
		traces = tracer.Snapshots()
	}
	if r.URL.Query().Get("format") == "flame" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		for _, t := range traces {
			obs.RenderFlame(w, t, 72)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": traces,
		"stats":  tracer.Stats(),
	})
}

// toRequest turns one decoded OptimizeRequest body into a service Request,
// returning a client-facing message on validation failure. It is shared by
// the single and batch handlers.
func toRequest(body *OptimizeRequest) (*Request, string) {
	if len(body.Query) == 0 {
		return nil, `missing "query"`
	}
	q, err := join.ReadCatalog(bytes.NewReader(body.Query))
	if err != nil {
		return nil, "invalid query: " + err.Error()
	}
	if body.TimeoutMs < 0 {
		return nil, `"timeout_ms" must be >= 0 (0 or absent selects the server default)`
	}
	return &Request{
		Query:   q,
		Backend: body.Backend,
		Spec: EncodeSpec{
			Thresholds:   body.Thresholds,
			Omega:        body.Omega,
			LogObjective: body.LogObjective,
			Compact:      body.Compact,
		},
		Params: Params{
			Reads: body.Reads,
			Seed:  body.Seed,
			Hybrid: HybridParams{
				Portfolio:  body.Portfolio,
				HedgeDelay: time.Duration(body.HedgeMs) * time.Millisecond,
			},
			Decomp: DecompParams{PartBudget: body.PartBudget},
		},
		Timeout: time.Duration(body.TimeoutMs) * time.Millisecond,
		Lean:    body.Lean,
	}, ""
}

// toHTTPResponse renders a service Response over the request's own
// relation names.
func toHTTPResponse(req *Request, resp *Response) OptimizeResponse {
	names := make([]string, len(resp.Order))
	for i, t := range resp.Order {
		names[i] = req.Query.Relations[t].Name
	}
	return OptimizeResponse{
		Backend:        resp.Backend,
		Order:          names,
		Tree:           resp.Tree,
		Cost:           resp.Cost,
		OptimalCost:    resp.OptimalCost,
		Optimal:        resp.Optimal,
		LogicalQubits:  resp.LogicalQubits,
		CacheKey:       resp.CacheKey,
		CacheHit:       resp.CacheHit,
		Degraded:       resp.Degraded,
		DegradedReason: resp.DegradedReason,
		ElapsedMs:      float64(resp.Elapsed) / float64(time.Millisecond),
	}
}

func (s *Service) handleOptimize(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if r.Method != http.MethodPost {
		writeError(ctx, w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var body OptimizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(ctx, w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if qp := r.URL.Query().Get("backend"); qp != "" {
		// The query parameter wins over the body so operators can steer a
		// canned request at another backend without editing the payload.
		body.Backend = qp
	}
	req, msg := toRequest(&body)
	if msg != "" {
		writeError(ctx, w, http.StatusBadRequest, msg)
		return
	}
	if r.Header.Get(HeaderWarmOnly) != "" {
		key, hit, err := s.Warm(ctx, req)
		if err != nil {
			writeError(ctx, w, statusFor(err), err.Error())
			return
		}
		w.Header().Set("X-Cache-Key", key)
		w.Header().Set(HeaderCacheHit, boolHeader(hit))
		w.WriteHeader(http.StatusNoContent)
		return
	}
	resp, err := s.Optimize(ctx, req)
	if err != nil {
		writeError(ctx, w, statusFor(err), err.Error())
		return
	}
	// The cache key doubles as the cluster routing key; exposing it as a
	// header lets clients and proxies verify sticky routing cheaply.
	w.Header().Set("X-Cache-Key", resp.CacheKey)
	w.Header().Set(HeaderCacheHit, boolHeader(resp.CacheHit))
	writeJSON(w, http.StatusOK, toHTTPResponse(req, resp))
}

// maxBatchItems caps one /v1/optimize/batch envelope; larger envelopes are
// rejected with 400 rather than silently truncated.
const maxBatchItems = 1024

// BatchRequest is the POST /v1/optimize/batch body: one deadline for the
// whole envelope plus the individual jobs. Per-item timeout_ms values are
// ignored — the envelope deadline governs (absent or 0 selects the server
// default, clamped to the configured maximum).
type BatchRequest struct {
	TimeoutMs int               `json:"timeout_ms,omitempty"`
	Requests  []OptimizeRequest `json:"requests"`
}

// BatchItemResult is one item's outcome: exactly one of Response or Error
// is set. Status carries the HTTP status the item would have received on
// the single endpoint (the envelope itself is 200 whenever it was solved,
// even with item failures).
type BatchItemResult struct {
	Response *OptimizeResponse `json:"response,omitempty"`
	Error    string            `json:"error,omitempty"`
	Status   int               `json:"status,omitempty"`
}

// BatchResponse is the POST /v1/optimize/batch result.
type BatchResponse struct {
	Results   []BatchItemResult `json:"results"`
	Items     int               `json:"items"`
	Unique    int               `json:"unique"`
	ElapsedMs float64           `json:"elapsed_ms"`
}

func (s *Service) handleOptimizeBatch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if r.Method != http.MethodPost {
		writeError(ctx, w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	var body BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<24))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(ctx, w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if len(body.Requests) == 0 {
		writeError(ctx, w, http.StatusBadRequest, `missing "requests"`)
		return
	}
	if len(body.Requests) > maxBatchItems {
		writeError(ctx, w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d items exceeds the maximum of %d", len(body.Requests), maxBatchItems))
		return
	}
	if body.TimeoutMs < 0 {
		writeError(ctx, w, http.StatusBadRequest, `"timeout_ms" must be >= 0 (0 or absent selects the server default)`)
		return
	}

	reqs := make([]*Request, len(body.Requests))
	msgs := make([]string, len(body.Requests))
	for i := range body.Requests {
		reqs[i], msgs[i] = toRequest(&body.Requests[i])
	}
	resps, errs, stats := s.OptimizeBatch(ctx, reqs, time.Duration(body.TimeoutMs)*time.Millisecond)

	out := BatchResponse{
		Results: make([]BatchItemResult, len(body.Requests)),
		Items:   stats.Items,
		Unique:  stats.Unique,
	}
	envelopeStatus := http.StatusOK
	allRejected := true
	for i := range out.Results {
		switch {
		case msgs[i] != "":
			out.Results[i] = BatchItemResult{Error: msgs[i], Status: http.StatusBadRequest}
		case errs[i] != nil:
			st := statusFor(errs[i])
			out.Results[i] = BatchItemResult{Error: errs[i].Error(), Status: st}
			// A pool-level rejection fails every item identically; surface
			// it as the envelope status so clients can back off.
			if errors.Is(errs[i], ErrOverloaded) || errors.Is(errs[i], ErrShutdown) {
				envelopeStatus = st
			} else {
				allRejected = false
			}
		default:
			hr := toHTTPResponse(reqs[i], resps[i])
			out.Results[i] = BatchItemResult{Response: &hr}
			allRejected = false
		}
	}
	if envelopeStatus != http.StatusOK && allRejected {
		writeError(ctx, w, envelopeStatus, out.Results[0].Error)
		return
	}
	out.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, out)
}

// statusFor maps service errors onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnavailable), errors.Is(err, ErrShutdown):
		// Load shed or open breaker: try again shortly (Retry-After set).
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; 499 is the de-facto convention.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func boolHeader(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(ctx context.Context, w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		// Load sheds and open breakers are transient by construction;
		// tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: msg, RequestID: obs.RequestID(ctx)})
}
