package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/join"
	"quantumjoin/internal/querygen"
)

// optimumEncoding is an encoding with only its query set: the optimum
// memo reads nothing else, and a 20-relation QUBO would cost the tests
// far more than the sweep under test.
func optimumEncoding(t *testing.T, g querygen.GraphType, n int, seed int64) *Encoding {
	t.Helper()
	q, err := querygen.Generate(querygen.Config{Relations: n, Graph: g}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return &Encoding{Query: q}
}

func sameResult(t *testing.T, what string, got, want classical.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Order, want.Order) || got.Cost != want.Cost {
		t.Fatalf("%s: got %v (cost %v), want %v (cost %v)", what, got.Order, got.Cost, want.Order, want.Cost)
	}
}

// TestOptimalMemoHit: a cold call sweeps and stores, a repeat reads the
// memo and returns the cold call's order and cost, and every caller owns
// its order: mutating one changes neither the memo nor another caller's.
func TestOptimalMemoHit(t *testing.T) {
	e := optimumEncoding(t, querygen.Chain, 12, 1)
	want, err := classical.Optimal(e.Query)
	if err != nil {
		t.Fatal(err)
	}
	cold, reused, err := e.OptimalContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first call reported a memo hit")
	}
	sameResult(t, "cold call", cold, want)
	if e.optPtr.Load() == nil {
		t.Fatal("a complete sweep was not stored")
	}
	for i := range cold.Order {
		cold.Order[i] = -1
	}
	hit, reused, err := e.OptimalContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("repeat call did not report a memo hit")
	}
	sameResult(t, "hit after the cold caller mutated its order", hit, want)
	other, _, err := e.OptimalContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hit.Order[0] = -1
	sameResult(t, "hit after another hit caller mutated its order", other, want)
	got, err := e.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "Optimal", got, want)
}

// sweepTime is the time of one complete sweep of q on this host and
// build.
func sweepTime(t *testing.T, q *join.Query) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := classical.Optimal(q); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestOptimalMemoStoresOnlyCompleteSweeps: a sweep cut short by a
// cancelled context, an expired deadline or a predicted overrun stores
// nothing, and the next live call computes and stores the optimum.
func TestOptimalMemoStoresOnlyCompleteSweeps(t *testing.T) {
	cases := []struct {
		name string
		ctx  func(t *testing.T, q *join.Query) (context.Context, context.CancelFunc)
	}{
		{"cancelled", func(t *testing.T, q *join.Query) (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}},
		{"expired", func(t *testing.T, q *join.Query) (context.Context, context.CancelFunc) {
			return context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
		}},
		// A deadline of a quarter of a measured sweep: the sweep
		// predicts the overrun with the deadline still ahead, before
		// it starts (classical's per-iteration estimate) or after a
		// sixteenth of the work on a host too slow for that estimate.
		{"predicted-overrun", func(t *testing.T, q *join.Query) (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), sweepTime(t, q)/4)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := optimumEncoding(t, querygen.Clique, 20, 2)
			ctx, cancel := tc.ctx(t, e.Query)
			_, reused, err := e.OptimalContext(ctx)
			live := ctx.Err() == nil
			cancel()
			if err == nil {
				t.Fatal("sweep under a context that cannot fit it returned no error")
			}
			if tc.name == "predicted-overrun" && !(errors.Is(err, context.DeadlineExceeded) && live) {
				t.Fatalf("sweep returned %v with the deadline passed = %v, want a predicted overrun", err, !live)
			}
			if reused {
				t.Error("a failed call reported a memo hit")
			}
			if e.optPtr.Load() != nil {
				t.Fatal("a sweep cut short was stored")
			}
			got, reused, err := e.OptimalContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if reused {
				t.Error("the first live call reported a memo hit")
			}
			want, err := classical.Optimal(e.Query)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "live call", got, want)
			if m := e.optPtr.Load(); m == nil || !reflect.DeepEqual(m.Order, want.Order) {
				t.Fatal("the live call did not store the optimum")
			}
		})
	}
}

// TestOptimalMemoConcurrent: concurrent misses and hits on one encoding
// all return the optimum, though every caller overwrites the order it got;
// CI runs it under -race.
func TestOptimalMemoConcurrent(t *testing.T) {
	e := optimumEncoding(t, querygen.Star, 14, 3)
	want, err := classical.Optimal(e.Query)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				got, _, err := e.OptimalContext(context.Background())
				if err == nil && (!reflect.DeepEqual(got.Order, want.Order) || got.Cost != want.Cost) {
					err = fmt.Errorf("call %d returned %v (cost %v), want %v (cost %v)", k, got.Order, got.Cost, want.Order, want.Cost)
				}
				if err != nil {
					errs[i] = err
					return
				}
				for j := range got.Order {
					got.Order[j] = -1
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if _, reused, _ := e.OptimalContext(context.Background()); !reused {
		t.Error("no concurrent call stored the optimum")
	}
}
