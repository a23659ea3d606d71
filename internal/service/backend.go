// Package service turns the quantumjoin library into a long-running join
// order optimisation service: a registry of solver backends behind one
// context-aware interface, a bounded worker pool enforcing per-request
// deadlines, an LRU cache of encodings keyed by a canonical hash of the
// query graph, and an observability layer (request counters, per-backend
// latency histograms, cache hit/miss statistics).
//
// This follows the real-time framing of the related work on hybrid
// quantum-classical database optimisation: the encode→solve→decode
// pipeline runs inside a daemon (cmd/qjoind) under bounded concurrency.
// Building the MILP→BILP→QUBO encoding costs milliseconds, while exact
// DP on the same 10–12-relation instance costs a tenth of one, so the
// cache holds prepared canonical instances and builds an entry's QUBO
// only on first use by a backend that reads it: classical requests never
// pay for it, and repeated query shapes pay at most once.
package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"quantumjoin/internal/core"
)

// Params are the per-request solver knobs common to all backends.
type Params struct {
	// Reads is the sampling budget: annealing reads, QAOA shots, or tabu
	// restarts depending on the backend. Zero selects a backend default.
	Reads int
	// Seed drives embedding and sampling; equal seeds give reproducible
	// results on every backend. The anneal backend embeds at this seed
	// and memoises the embedding on the cached encoding, so a repeat
	// request with the same seed skips the embedder and returns exactly
	// what a cold call returns.
	Seed int64
	// InitialState, when non-nil, warm-starts the solver from a full QUBO
	// assignment (length Encoding.NumQubits(); build one from a join order
	// with EncodeOrder + CompleteSlacks). Backends without a warm-start
	// notion ignore it. The hybrid orchestrator threads its classical
	// incumbent through here so quantum stages refine rather than restart.
	InitialState []bool
	// Hybrid tunes the hybrid orchestration backend; other backends
	// ignore it.
	Hybrid HybridParams
	// Decomp tunes the decomposition backend; other backends ignore it.
	Decomp DecompParams
}

// DecompParams tune the graph-partition decomposition backend. The zero
// value picks the backend's defaults.
type DecompParams struct {
	// PartBudget caps the relations per partition part (each part is
	// planned on its own). Zero selects the backend default.
	PartBudget int
}

// HybridParams tune the hybrid orchestration. The zero value picks the
// backend's defaults.
type HybridParams struct {
	// Portfolio lists the backend names of the quantum stage; empty
	// selects the backend default portfolio.
	Portfolio []string
	// HedgeDelay is how long the staged strategy waits after launching the
	// classical stage before hedging with the quantum-simulated solvers;
	// zero selects the backend default, negative disables hedging (quantum
	// stages launch immediately).
	HedgeDelay time.Duration
}

// Backend solves one QUBO-encoded join ordering problem. Implementations
// must honour context cancellation in their long-running loops and must be
// safe for concurrent use: the worker pool calls Solve from many
// goroutines against shared backend values. The service hands Solve the
// cached encoding prepared but possibly unbuilt: Query, Opts, NumQubits
// and the memos are always set, while a backend that reads the model
// (MILP, BILP, QUBO, Infos, decoding) calls BuildQUBO first. Every valid
// query up to join.MaxRelations has a prepared entry; a backend rejects
// only what it cannot read, as an ErrBadRequest (BuildQUBO refuses a
// query above core.MaxMonolithicRelations). Wrappers (fault injection,
// retries, a breaker) pass the encoding through unchanged, so the inner
// backend builds for itself.
type Backend interface {
	// Name is the stable identifier clients select the backend by.
	Name() string
	// Solve returns the best valid decoded join order the backend found,
	// or an error (wrapping ctx.Err() on expiry) when none was found.
	Solve(ctx context.Context, enc *core.Encoding, p Params) (*core.Decoded, error)
}

// BatchSolver is implemented by backends with an amortised many-instance
// fast path (shared scratch buffers, one array pass over the jobs). The
// batch endpoint calls SolveBatch with the deduplicated instances of one
// envelope, prepared as for Solve; backends without it are solved per
// instance. Both returned
// slices are index-aligned with encs, and results must be identical to
// calling Solve per instance with the same Params — the batch path is an
// allocation optimisation, never a semantic change.
type BatchSolver interface {
	Backend
	SolveBatch(ctx context.Context, encs []*core.Encoding, ps []Params) ([]*core.Decoded, []error)
}

// Health states reported by HealthReporter backends (the circuit-breaker
// wrapper in internal/faults). The strings appear verbatim in /healthz.
const (
	HealthOK       = "ok"        // closed breaker: traffic flows
	HealthOpen     = "open"      // tripped: requests fast-fail
	HealthHalfOpen = "half-open" // probing: limited trial traffic
)

// BackendHealth is one backend's resilience state as surfaced on /healthz
// and /metrics.
type BackendHealth struct {
	// State is HealthOK, HealthOpen, or HealthHalfOpen.
	State string `json:"state"`
	// ConsecutiveFailures is the current run of failed solves.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// ErrorRate is the failure fraction over the breaker's sliding window
	// (0 when the window is empty).
	ErrorRate float64 `json:"error_rate"`
	// Trips counts transitions into the open state since startup
	// (closed→open and a failed half-open probe alike).
	Trips int64 `json:"trips"`
	// StateAgeSeconds is how long the breaker has been in its current
	// state (seconds since the last state transition). A large age on an
	// open breaker means the backend has been sick for a while; cluster
	// peers use it to distinguish a blip from a persistent outage.
	StateAgeSeconds float64 `json:"state_age_seconds"`
}

// HealthReporter is implemented by backends that track their own health —
// notably the circuit-breaker wrapper in internal/faults. The service
// surfaces reported health on /healthz and /metrics, and the hybrid
// orchestrator skips backends reporting HealthOpen when assembling a
// portfolio.
type HealthReporter interface {
	Health() BackendHealth
}

// Registry is a thread-safe name → Backend map.
type Registry struct {
	mu       sync.RWMutex
	backends map[string]Backend
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{backends: make(map[string]Backend)}
}

// Register adds a backend, rejecting empty and duplicate names.
func (r *Registry) Register(b Backend) error {
	name := b.Name()
	if name == "" {
		return fmt.Errorf("service: backend has empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.backends[name]; dup {
		return fmt.Errorf("service: backend %q already registered", name)
	}
	r.backends[name] = b
	return nil
}

// Replace swaps the backend registered under b.Name() for b, failing when
// no backend of that name exists. cmd/qjoind uses it to wrap registered
// backends with resilience layers (fault injection, retries, circuit
// breakers) without re-plumbing their construction.
func (r *Registry) Replace(b Backend) error {
	name := b.Name()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.backends[name]; !ok {
		return fmt.Errorf("service: cannot replace unregistered backend %q", name)
	}
	r.backends[name] = b
	return nil
}

// Get looks a backend up by name.
func (r *Registry) Get(name string) (Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.backends[name]
	return b, ok
}

// Names returns the registered backend names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.backends))
	for n := range r.backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
