package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"quantumjoin/internal/join"
	"quantumjoin/internal/service"
)

// fakeClock is a mutex-guarded manual clock for breaker timing tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestBreakerTripsFastFailsAndRecovers walks the full state machine:
// consecutive failures trip the breaker, open fast-fails without touching
// the backend, the open interval admits a half-open probe, and enough
// probe successes close it again.
func TestBreakerTripsFastFailsAndRecovers(t *testing.T) {
	enc := testEncoding(t)
	fail := &Error{Kind: KindRejected, Backend: "qpu"}
	inner := &scriptBackend{name: "qpu", script: []error{fail, fail, fail}}
	clock := &fakeClock{now: time.Unix(0, 0)}
	be := WithBreaker(inner, BreakerConfig{
		ConsecutiveFailures: 3,
		OpenFor:             time.Second,
		HalfOpenSuccesses:   2,
		Now:                 clock.Now,
	})
	hr := be.(service.HealthReporter)

	// Three consecutive failures trip it.
	for i := 0; i < 3; i++ {
		if _, err := be.Solve(context.Background(), enc, service.Params{Seed: int64(i)}); err == nil {
			t.Fatalf("scripted failure %d succeeded", i)
		}
	}
	if h := hr.Health(); h.State != service.HealthOpen || h.Trips != 1 {
		t.Fatalf("after 3 failures: health = %+v, want open with 1 trip", h)
	}

	// Open: fast-fail in well under a millisecond, inner never invoked.
	callsBefore := inner.calls.Load()
	start := time.Now()
	_, err := be.Solve(context.Background(), enc, service.Params{Seed: 99})
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("open breaker err = %v, want ErrBreakerOpen/ErrUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > time.Millisecond {
		t.Errorf("open-breaker fast-fail took %v, want < 1ms", elapsed)
	}
	if inner.calls.Load() != callsBefore {
		t.Error("open breaker touched the backend")
	}

	// After the open interval the next request is a half-open probe; the
	// backend is healthy now (script exhausted), so two probes close it.
	clock.Advance(2 * time.Second)
	if h := hr.Health(); h.State != service.HealthHalfOpen {
		t.Fatalf("after open interval: health = %+v, want half-open", h)
	}
	for i := 0; i < 2; i++ {
		if _, err := be.Solve(context.Background(), enc, service.Params{Seed: int64(100 + i)}); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if h := hr.Health(); h.State != service.HealthOK || h.ConsecutiveFailures != 0 {
		t.Fatalf("after recovery: health = %+v, want ok", h)
	}
}

// TestBreakerHalfOpenFailureReopens: a failed probe sends the breaker
// straight back to open with a fresh interval.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	enc := testEncoding(t)
	fail := &Error{Kind: KindAborted, Backend: "qpu"}
	inner := &scriptBackend{name: "qpu", script: []error{fail, fail, fail}}
	clock := &fakeClock{now: time.Unix(0, 0)}
	be := WithBreaker(inner, BreakerConfig{
		ConsecutiveFailures: 2,
		OpenFor:             time.Second,
		Now:                 clock.Now,
	})
	hr := be.(service.HealthReporter)

	for i := 0; i < 2; i++ {
		_, _ = be.Solve(context.Background(), enc, service.Params{Seed: int64(i)})
	}
	clock.Advance(1500 * time.Millisecond)
	// The probe hits the third scripted failure.
	if _, err := be.Solve(context.Background(), enc, service.Params{Seed: 7}); err == nil {
		t.Fatal("failed probe reported success")
	}
	if h := hr.Health(); h.State != service.HealthOpen || h.Trips != 2 {
		t.Fatalf("after failed probe: health = %+v, want open with 2 trips", h)
	}
	// And the fresh interval holds: still fast-failing before it elapses.
	clock.Advance(500 * time.Millisecond)
	if _, err := be.Solve(context.Background(), enc, service.Params{Seed: 8}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("inside fresh open interval: err = %v, want ErrBreakerOpen", err)
	}
}

// TestBreakerErrorRateTrip: interleaved failures below the consecutive
// threshold still trip the breaker once the windowed error rate crosses
// the configured fraction.
func TestBreakerErrorRateTrip(t *testing.T) {
	enc := testEncoding(t)
	fail := &Error{Kind: KindRejected, Backend: "qpu"}
	// Alternate fail/ok: consecutive never exceeds 1, rate is 50%.
	var script []error
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			script = append(script, fail)
		} else {
			script = append(script, nil)
		}
	}
	inner := &scriptBackend{name: "qpu", script: script}
	be := WithBreaker(inner, BreakerConfig{
		ConsecutiveFailures: 100, // out of reach
		ErrorRate:           0.4,
		Window:              8,
		MinSamples:          6,
	})
	hr := be.(service.HealthReporter)
	tripped := false
	for i := 0; i < 16; i++ {
		_, _ = be.Solve(context.Background(), enc, service.Params{Seed: int64(i)})
		if hr.Health().State == service.HealthOpen {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("50% error rate never tripped a 0.4 threshold")
	}
}

// TestBreakerIgnoresCallerCancellation: a cancelled context is not a
// backend failure and must not consume the failure budget.
func TestBreakerIgnoresCallerCancellation(t *testing.T) {
	enc := testEncoding(t)
	inner := &scriptBackend{name: "qpu", delay: time.Hour}
	be := WithBreaker(inner, BreakerConfig{ConsecutiveFailures: 2})
	hr := be.(service.HealthReporter)
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _ = be.Solve(ctx, enc, service.Params{Seed: int64(i)})
	}
	if h := hr.Health(); h.State != service.HealthOK || h.ConsecutiveFailures != 0 {
		t.Fatalf("cancellations moved the breaker: %+v", h)
	}
}

// TestBreakerConcurrentHalfOpenAdmitsOneProbe: under concurrency, exactly
// one request probes the backend while the rest keep fast-failing.
func TestBreakerConcurrentHalfOpenAdmitsOneProbe(t *testing.T) {
	enc := testEncoding(t)
	fail := &Error{Kind: KindRejected, Backend: "qpu"}
	inner := &scriptBackend{name: "qpu", script: []error{fail}, delay: 20 * time.Millisecond}
	clock := &fakeClock{now: time.Unix(0, 0)}
	be := WithBreaker(inner, BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Second, Now: clock.Now})

	if _, err := be.Solve(context.Background(), enc, service.Params{Seed: 0}); err == nil {
		t.Fatal("scripted failure succeeded")
	}
	clock.Advance(2 * time.Second)

	callsBefore := inner.calls.Load()
	var wg sync.WaitGroup
	var opens, oks int64
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := be.Solve(context.Background(), enc, service.Params{Seed: int64(i)})
			mu.Lock()
			defer mu.Unlock()
			if errors.Is(err, ErrBreakerOpen) {
				opens++
			} else if err == nil {
				oks++
			}
		}(i)
	}
	wg.Wait()
	if got := inner.calls.Load() - callsBefore; got != 1 {
		t.Errorf("half-open admitted %d probes, want exactly 1", got)
	}
	if oks != 1 || opens != 7 {
		t.Errorf("outcomes: %d ok / %d fast-fail, want 1/7", oks, opens)
	}
}

// TestBreakerStateAge pins the /healthz state-age satellite: the age is
// seconds since the last state transition under the breaker's own clock,
// and every transition (trip, open→half-open advance, close) resets it.
func TestBreakerStateAge(t *testing.T) {
	enc := testEncoding(t)
	fail := &Error{Kind: KindRejected, Backend: "qpu"}
	inner := &scriptBackend{name: "qpu", script: []error{fail, fail}}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	be := WithBreaker(inner, BreakerConfig{
		ConsecutiveFailures: 2,
		OpenFor:             10 * time.Second,
		HalfOpenSuccesses:   1,
		Now:                 clock.Now,
	})
	hr := be.(service.HealthReporter)

	// Freshly constructed: closed since "now", age grows with the clock.
	clock.Advance(3 * time.Second)
	if h := hr.Health(); h.State != service.HealthOK || h.StateAgeSeconds != 3 {
		t.Fatalf("fresh breaker health = %+v, want ok with age 3s", h)
	}

	// Trip it: age restarts from the trip instant.
	for i := 0; i < 2; i++ {
		_, _ = be.Solve(context.Background(), enc, service.Params{Seed: int64(i)})
	}
	clock.Advance(4 * time.Second)
	if h := hr.Health(); h.State != service.HealthOpen || h.StateAgeSeconds != 4 {
		t.Fatalf("after trip health = %+v, want open with age 4s", h)
	}

	// Past OpenFor the displayed state is half-open; a successful probe
	// (script exhausted) closes it and resets the age again.
	clock.Advance(7 * time.Second)
	if _, err := be.Solve(context.Background(), enc, service.Params{Seed: 9}); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	clock.Advance(2 * time.Second)
	if h := hr.Health(); h.State != service.HealthOK || h.StateAgeSeconds != 2 {
		t.Fatalf("after recovery health = %+v, want ok with age 2s", h)
	}
}

// TestBreakerNeutralOnBadRequest: a client error (service.ErrBadRequest)
// is not a backend failure: closed, it consumes no failure budget, and
// half-open, it neither closes nor re-opens the breaker but frees the
// probe slot for the next request.
func TestBreakerNeutralOnBadRequest(t *testing.T) {
	enc := testEncoding(t)
	bad := fmt.Errorf("too large for this backend: %w", service.ErrBadRequest)
	fail := &Error{Kind: KindRejected, Backend: "qpu"}
	inner := &scriptBackend{name: "qpu", script: []error{bad, bad, bad, bad, fail, fail, bad, bad}}
	clock := &fakeClock{now: time.Unix(0, 0)}
	be := WithBreaker(inner, BreakerConfig{ConsecutiveFailures: 2, OpenFor: time.Second, HalfOpenSuccesses: 1, Now: clock.Now})
	hr := be.(service.HealthReporter)
	for i := 0; i < 4; i++ {
		if _, err := be.Solve(context.Background(), enc, service.Params{}); !errors.Is(err, service.ErrBadRequest) {
			t.Fatalf("request %d: err = %v, want the backend's bad request", i, err)
		}
	}
	if h := hr.Health(); h.State != service.HealthOK || h.ConsecutiveFailures != 0 || h.ErrorRate != 0 {
		t.Fatalf("bad requests moved the closed breaker: %+v", h)
	}

	for i := 0; i < 2; i++ {
		_, _ = be.Solve(context.Background(), enc, service.Params{})
	}
	clock.Advance(2 * time.Second)
	for i := 0; i < 2; i++ {
		if _, err := be.Solve(context.Background(), enc, service.Params{}); !errors.Is(err, service.ErrBadRequest) {
			t.Fatalf("half-open request %d: err = %v, want the backend's bad request, not a fast-fail", i, err)
		}
		if h := hr.Health(); h.State != service.HealthHalfOpen || h.Trips != 1 {
			t.Fatalf("half-open bad request %d moved the breaker: %+v", i, h)
		}
	}
	if _, err := be.Solve(context.Background(), enc, service.Params{}); err != nil {
		t.Fatalf("probe after the bad requests: %v", err)
	}
	if h := hr.Health(); h.State != service.HealthOK {
		t.Fatalf("a successful probe left the breaker %+v", h)
	}
}

// TestBreakerNeutralOnOversizedQAOA: under Degrade, requests whose
// instance exceeds a breaker-wrapped qaoa's statevector budget keep
// answering 400 (ErrBadRequest, never a degraded plan), and the breaker
// stays closed, so one client's oversized input cannot shut qaoa for
// every other client.
func TestBreakerNeutralOnOversizedQAOA(t *testing.T) {
	reg := service.NewRegistry()
	be := WithBreaker(service.NewQAOABackend(16, 1, 2), BreakerConfig{})
	if err := reg.Register(be); err != nil {
		t.Fatal(err)
	}
	svc := service.New(reg, service.Config{Workers: 1, Degrade: true, DefaultBackend: "qaoa"})
	defer svc.Close(context.Background())
	q := &join.Query{}
	for i := 0; i < 8; i++ {
		q.Relations = append(q.Relations, join.Relation{Name: fmt.Sprintf("r%d", i), Card: float64(10 + i)})
		if i > 0 {
			q.Predicates = append(q.Predicates, join.Predicate{R1: i - 1, R2: i, Sel: 0.1})
		}
	}
	for i := 0; i < 2*5; i++ {
		resp, err := svc.Optimize(context.Background(), &service.Request{Query: q})
		if !errors.Is(err, service.ErrBadRequest) {
			t.Fatalf("request %d: (%+v, %v), want a bad request", i, resp, err)
		}
	}
	if h := be.(service.HealthReporter).Health(); h.State != service.HealthOK || h.Trips != 0 || h.ConsecutiveFailures != 0 {
		t.Fatalf("oversized requests moved qaoa's breaker: %+v", h)
	}
}
