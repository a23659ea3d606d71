package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/service"
)

// ErrBreakerOpen is returned (wrapped) when the circuit breaker fast-fails
// a request without touching the backend. It unwraps to
// service.ErrUnavailable so the HTTP layer answers 503 + Retry-After, and
// it is deliberately not Retryable: retrying into an open breaker is how
// retry storms are made.
var ErrBreakerOpen = fmt.Errorf("faults: circuit breaker open: %w", service.ErrUnavailable)

// BreakerConfig tunes the circuit breaker. The zero value selects the
// defaults noted per field.
type BreakerConfig struct {
	// ConsecutiveFailures trips the breaker after this many failed solves
	// in a row (default 5).
	ConsecutiveFailures int
	// ErrorRate trips the breaker when the failure fraction over the
	// sliding window reaches it, once MinSamples outcomes are recorded
	// (default 0.6).
	ErrorRate float64
	// Window is the sliding outcome window size (default 20).
	Window int
	// MinSamples is the minimum window occupancy before the error-rate
	// condition can trip — a single early failure is not a 100% error rate
	// (default 10).
	MinSamples int
	// OpenFor is how long the breaker stays open before admitting a
	// half-open probe (default 500ms).
	OpenFor time.Duration
	// HalfOpenSuccesses is how many consecutive successful probes close
	// the breaker again (default 2).
	HalfOpenSuccesses int
	// Now is the breaker's clock (default time.Now); tests inject a fake.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = 5
	}
	if c.ErrorRate <= 0 || c.ErrorRate > 1 {
		c.ErrorRate = 0.6
	}
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 500 * time.Millisecond
	}
	if c.HalfOpenSuccesses <= 0 {
		c.HalfOpenSuccesses = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

// stateName maps a breaker state to its log/metrics label.
func stateName(s int) string {
	switch s {
	case stateOpen:
		return service.HealthOpen
	case stateHalfOpen:
		return service.HealthHalfOpen
	default:
		return service.HealthOK
	}
}

// breaker is the three-state circuit breaker. All state transitions happen
// under mu; Solve holds the lock only around admission and bookkeeping,
// never across the inner solve.
type breaker struct {
	inner service.Backend
	cfg   BreakerConfig

	mu          sync.Mutex
	state       int
	consecutive int    // current run of failures (closed state)
	window      []bool // ring buffer of outcomes, true = failure
	widx        int
	wcount      int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	successes   int  // consecutive successful probes (half-open state)
	trips       int64
	// lastTransition is when the breaker last changed state (construction
	// counts as entering closed); Health surfaces its age so operators —
	// and the cluster gossip layer — can tell a freshly-tripped breaker
	// from one that has been open for minutes.
	lastTransition time.Time
}

// WithBreaker wraps backend with a three-state circuit breaker: after
// ConsecutiveFailures failed solves in a row (or an ErrorRate failure
// fraction over the sliding window) the breaker opens and requests
// fast-fail with ErrBreakerOpen — sub-millisecond, no backend work, no
// queue wait. After OpenFor it admits one probe request at a time
// (half-open); HalfOpenSuccesses consecutive probe successes close it,
// any probe failure re-opens it.
//
// Stack it outermost (WithBreaker(WithRetry(Inject(b)))) so the breaker
// judges post-retry outcomes: a request that succeeded on its third
// attempt is a success, not three data points.
func WithBreaker(backend service.Backend, cfg BreakerConfig) service.Backend {
	cfg = cfg.withDefaults()
	return &breaker{
		inner:          backend,
		cfg:            cfg,
		window:         make([]bool, cfg.Window),
		lastTransition: cfg.Now(),
	}
}

// Name implements service.Backend.
func (b *breaker) Name() string { return b.inner.Name() }

// Solve implements service.Backend.
func (b *breaker) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	if err := b.admit(); err != nil {
		return nil, fmt.Errorf("faults: backend %q: %w", b.Name(), err)
	}
	d, err := b.inner.Solve(ctx, enc, p)
	if from, to, changed := b.observe(err); changed {
		obs.Logger(ctx).WarnContext(ctx, "circuit breaker state change",
			"backend", b.Name(), "from", stateName(from), "to", stateName(to))
	}
	return d, err
}

// admit decides whether a request may reach the backend, advancing
// open→half-open when the open interval has elapsed.
func (b *breaker) admit() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return nil
	case stateOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor {
			return ErrBreakerOpen
		}
		b.state = stateHalfOpen
		b.successes = 0
		b.probing = false
		b.lastTransition = b.cfg.Now()
		fallthrough
	default: // stateHalfOpen
		if b.probing {
			// One probe at a time: concurrent traffic keeps fast-failing
			// until the probe's verdict is in.
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// observe folds one solve outcome into the breaker state and reports any
// state transition it caused, so the caller can log it. Caller
// cancellation is neutral — a race loser or a client walking away says
// nothing about the backend's health — and so is a client error
// (service.ErrBadRequest: a query too large for the backend, say), which
// says only that this client sent what the backend cannot read. A blown
// deadline counts as a failure: the backend did not answer within the
// budget it was given.
func (b *breaker) observe(err error) (from, to int, changed bool) {
	neutral := errors.Is(err, context.Canceled) || errors.Is(err, service.ErrBadRequest)
	failure := err != nil && !neutral

	b.mu.Lock()
	defer b.mu.Unlock()
	from = b.state
	defer func() {
		to = b.state
		changed = to != from
	}()
	switch b.state {
	case stateHalfOpen:
		b.probing = false
		if neutral {
			return
		}
		if failure {
			b.trip()
			return
		}
		b.successes++
		if b.successes >= b.cfg.HalfOpenSuccesses {
			b.reset()
		}
	case stateClosed:
		if neutral {
			return
		}
		b.window[b.widx] = failure
		b.widx = (b.widx + 1) % len(b.window)
		if b.wcount < len(b.window) {
			b.wcount++
		}
		if failure {
			b.consecutive++
		} else {
			b.consecutive = 0
		}
		if b.consecutive >= b.cfg.ConsecutiveFailures ||
			(b.wcount >= b.cfg.MinSamples && b.errorRateLocked() >= b.cfg.ErrorRate) {
			b.trip()
		}
	default: // stateOpen: a straggler admitted earlier; its outcome is stale.
	}
	return
}

// trip moves the breaker to open (from closed or half-open).
func (b *breaker) trip() {
	b.state = stateOpen
	b.openedAt = b.cfg.Now()
	b.lastTransition = b.openedAt
	b.trips++
}

// reset returns the breaker to closed with a clean slate.
func (b *breaker) reset() {
	b.state = stateClosed
	b.consecutive = 0
	b.wcount = 0
	b.widx = 0
	b.successes = 0
	b.lastTransition = b.cfg.Now()
}

// errorRateLocked is the failure fraction over the occupied window; the
// caller holds mu.
func (b *breaker) errorRateLocked() float64 {
	if b.wcount == 0 {
		return 0
	}
	failures := 0
	for i := 0; i < b.wcount; i++ {
		if b.window[i] {
			failures++
		}
	}
	return float64(failures) / float64(b.wcount)
}

// Health implements service.HealthReporter; /healthz and /metrics surface
// it, and the hybrid orchestrator skips backends reporting HealthOpen.
func (b *breaker) Health() service.BackendHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	state := service.HealthOK
	switch b.state {
	case stateOpen:
		state = service.HealthOpen
		if b.cfg.Now().Sub(b.openedAt) >= b.cfg.OpenFor {
			// The next request will be admitted as a probe.
			state = service.HealthHalfOpen
		}
	case stateHalfOpen:
		state = service.HealthHalfOpen
	}
	return service.BackendHealth{
		State:               state,
		ConsecutiveFailures: b.consecutive,
		ErrorRate:           b.errorRateLocked(),
		Trips:               b.trips,
		StateAgeSeconds:     b.cfg.Now().Sub(b.lastTransition).Seconds(),
	}
}
