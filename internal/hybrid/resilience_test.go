package hybrid

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/faults"
	"quantumjoin/internal/service"
)

// brokenBackend fails every call with a transient fault.
type brokenBackend struct{}

func (brokenBackend) Name() string { return "qpu" }

func (brokenBackend) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	return nil, &faults.Error{Kind: faults.KindAborted, Backend: "qpu"}
}

// launchCounter counts the Solve calls that reach a backend and forwards
// its health. It sits outside the breaker: an open breaker fast-fails
// without calling through, so only an outer count shows a launch.
type launchCounter struct {
	service.Backend
	calls atomic.Int64
}

func (c *launchCounter) Health() service.BackendHealth {
	return c.Backend.(service.HealthReporter).Health()
}

func (c *launchCounter) Solve(ctx context.Context, enc *core.Encoding, p service.Params) (*core.Decoded, error) {
	c.calls.Add(1)
	return c.Backend.Solve(ctx, enc, p)
}

// tripBreaker wraps be in a breaker and feeds it failures until it opens.
func tripBreaker(t *testing.T, be service.Backend, enc *core.Encoding) service.Backend {
	t.Helper()
	wrapped := faults.WithBreaker(be, faults.BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	// A blown deadline counts as a backend failure and trips the
	// one-failure breaker.
	_, _ = wrapped.Solve(ctx, enc, service.Params{})
	if h := wrapped.(service.HealthReporter).Health(); h.State != service.HealthOpen {
		t.Fatalf("breaker did not trip: %+v", h)
	}
	return wrapped
}

// breakerSetup registers a tripped qpu beside a DP backend gated below
// the 5-relation instance, so the classical stage yields nothing and the
// quantum stage really launches.
func breakerSetup(t *testing.T, portfolio []string) (*Backend, *launchCounter, *core.Encoding) {
	t.Helper()
	_, enc := cliqueInstance(t, 5, 1)
	qpu := &launchCounter{Backend: tripBreaker(t, brokenBackend{}, enc)}
	reg := service.NewRegistry()
	if err := reg.Register(qpu); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(service.NewDPBackend()); err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Registry: reg, Portfolio: portfolio, HedgeDelay: time.Millisecond, MaxDPRelations: 4})
	if err != nil {
		t.Fatal(err)
	}
	return b, qpu, enc
}

// TestPortfolioSkipsOpenBreakers: an open backend is never launched; the
// quantum stage proceeds on the healthy remainder.
func TestPortfolioSkipsOpenBreakers(t *testing.T) {
	b, qpu, enc := breakerSetup(t, []string{"qpu", "dp"})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := b.Orchestrate(ctx, enc, service.Params{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner != "dp" {
		t.Errorf("winner = %q, want dp", out.Winner)
	}
	if n := qpu.calls.Load(); n != 0 {
		t.Errorf("open-breaker backend launched %d times", n)
	}
}

// TestAllBreakersOpenIsUnavailable: when every portfolio backend is
// tripped and the classical stage is gated out, the request maps to
// transient unavailability (503), never a client error or a 500.
func TestAllBreakersOpenIsUnavailable(t *testing.T) {
	b, qpu, enc := breakerSetup(t, []string{"qpu"})
	_, err := b.Solve(context.Background(), enc, service.Params{Seed: 3})
	if !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if errors.Is(err, service.ErrBadRequest) {
		t.Error("all-open portfolio misclassified as a client error")
	}
	if n := qpu.calls.Load(); n != 0 {
		t.Errorf("open-breaker backend launched %d times", n)
	}
}
