package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
	"quantumjoin/internal/querygen"
)

// pairQuery is the smallest instance — QAOA-sized.
func pairQuery() *join.Query {
	return &join.Query{
		Relations: []join.Relation{
			{Name: "R", Card: 100},
			{Name: "S", Card: 1000},
		},
		Predicates: []join.Predicate{{R1: 0, R2: 1, Sel: 0.01}},
	}
}

func classicalRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, b := range []Backend{NewDPBackend(), NewGreedyBackend(), NewTabuBackend()} {
		if err := r.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(NewDPBackend()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewDPBackend()); err == nil {
		t.Error("duplicate registration succeeded")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "dp" {
		t.Errorf("Names = %v", got)
	}
}

func TestOptimizeClassicalBackends(t *testing.T) {
	svc := New(classicalRegistry(t), Config{Workers: 2, DefaultBackend: "dp"})
	defer svc.Close(context.Background())
	q := chainQuery()
	for _, backend := range []string{"dp", "greedy", "tabu"} {
		resp, err := svc.Optimize(context.Background(), &Request{
			Query:   q,
			Backend: backend,
			Spec:    EncodeSpec{Thresholds: 1},
			Params:  Params{Seed: 1, Reads: 4},
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if got := q.Cost(resp.Order); got != resp.Cost {
			t.Errorf("%s: reported cost %v but order costs %v", backend, resp.Cost, got)
		}
		if resp.OptimalCost <= 0 {
			t.Errorf("%s: missing optimal-cost comparison", backend)
		}
		if backend == "dp" && !resp.Optimal {
			t.Errorf("dp backend did not report an optimal plan (cost %v vs %v)", resp.Cost, resp.OptimalCost)
		}
	}
}

// TestOptimizePermutedQueryMapsOrderBack exercises the cache-hit path
// where the encoding was built for a different relation labelling.
func TestOptimizePermutedQueryMapsOrderBack(t *testing.T) {
	svc := New(classicalRegistry(t), Config{Workers: 1})
	defer svc.Close(context.Background())
	q := chainQuery()
	qp := permuted(q, []int{2, 0, 3, 1})
	var costs [2]float64
	for i, query := range []*join.Query{q, qp} {
		resp, err := svc.Optimize(context.Background(), &Request{
			Query: query, Backend: "dp", Spec: EncodeSpec{Thresholds: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && !resp.CacheHit {
			t.Error("permuted query missed the encoding cache")
		}
		// The order must be valid in the request's own labelling.
		if got := query.Cost(resp.Order); got != resp.Cost {
			t.Errorf("query %d: order cost %v != reported %v", i, got, resp.Cost)
		}
		costs[i] = resp.Cost
	}
	if costs[0] != costs[1] {
		t.Errorf("permutation changed the optimal cost: %v vs %v", costs[0], costs[1])
	}
}

func TestOptimizeRejectsBadInput(t *testing.T) {
	svc := New(classicalRegistry(t), Config{Workers: 1})
	defer svc.Close(context.Background())
	cases := []struct {
		name string
		req  *Request
	}{
		{"nil query", &Request{Backend: "dp"}},
		{"bad selectivity", &Request{Backend: "dp", Query: &join.Query{
			Relations:  []join.Relation{{Card: 10}, {Card: 20}},
			Predicates: []join.Predicate{{R1: 0, R2: 1, Sel: 1.5}},
		}}},
		{"bad cardinality", &Request{Backend: "dp", Query: &join.Query{
			Relations:  []join.Relation{{Card: 0}, {Card: 20}},
			Predicates: []join.Predicate{{R1: 0, R2: 1, Sel: 0.5}},
		}}},
		{"unknown backend", &Request{Backend: "nope", Query: pairQuery()}},
	}
	for _, tc := range cases {
		if _, err := svc.Optimize(context.Background(), tc.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
}

// blockingBackend parks until its context expires.
type blockingBackend struct{ started chan struct{} }

func (b *blockingBackend) Name() string { return "block" }

func (b *blockingBackend) Solve(ctx context.Context, enc *core.Encoding, p Params) (*core.Decoded, error) {
	if b.started != nil {
		select {
		case b.started <- struct{}{}:
		default:
		}
	}
	<-ctx.Done()
	return nil, fmt.Errorf("block: %w", ctx.Err())
}

func TestOptimizeEnforcesDeadline(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&blockingBackend{}); err != nil {
		t.Fatal(err)
	}
	svc := New(r, Config{Workers: 1, DefaultBackend: "block"})
	defer svc.Close(context.Background())
	start := time.Now()
	_, err := svc.Optimize(context.Background(), &Request{
		Query:   pairQuery(),
		Timeout: 50 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline enforcement took %v", elapsed)
	}
	snap := svc.MetricsSnapshot()
	if snap.Requests.Errors != 1 {
		t.Errorf("error counter = %d, want 1", snap.Requests.Errors)
	}
}

func TestOptimizeAfterCloseReturnsShutdown(t *testing.T) {
	svc := New(classicalRegistry(t), Config{Workers: 1})
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Optimize(context.Background(), &Request{Query: pairQuery(), Backend: "dp"}); !errors.Is(err, ErrShutdown) {
		t.Errorf("err = %v, want ErrShutdown", err)
	}
}

// TestCloseDrainsInFlight verifies graceful shutdown waits for running
// solves rather than killing them.
func TestCloseDrainsInFlight(t *testing.T) {
	block := &blockingBackend{started: make(chan struct{}, 1)}
	r := NewRegistry()
	if err := r.Register(block); err != nil {
		t.Fatal(err)
	}
	svc := New(r, Config{Workers: 1})
	done := make(chan error, 1)
	go func() {
		_, err := svc.Optimize(context.Background(), &Request{
			Query: pairQuery(), Backend: "block", Timeout: 300 * time.Millisecond,
		})
		done <- err
	}()
	<-block.started // the solve is running
	if err := svc.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close returned only after the worker exited, i.e. after the
	// in-flight solve finished (with its own deadline error).
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("in-flight request err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never finished")
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers, workers)
	defer p.Shutdown(context.Background())
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Run(context.Background(), func(context.Context) {
				n := running.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				running.Add(-1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

func TestConcurrentOptimize(t *testing.T) {
	svc := New(classicalRegistry(t), Config{Workers: 4, CacheSize: 16})
	defer svc.Close(context.Background())
	q := chainQuery()
	const goroutines, perG = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			backends := []string{"dp", "greedy", "tabu"}
			for i := 0; i < perG; i++ {
				_, err := svc.Optimize(context.Background(), &Request{
					Query:   q,
					Backend: backends[(g+i)%len(backends)],
					Spec:    EncodeSpec{Thresholds: 1},
					Params:  Params{Seed: int64(g*100 + i), Reads: 24},
				})
				if err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := svc.MetricsSnapshot()
	if snap.Requests.Total != goroutines*perG {
		t.Errorf("request counter = %d, want %d", snap.Requests.Total, goroutines*perG)
	}
	if snap.Cache.Hits+snap.Cache.Misses != goroutines*perG {
		t.Errorf("cache lookups = %d, want %d", snap.Cache.Hits+snap.Cache.Misses, goroutines*perG)
	}
	if snap.Cache.Hits == 0 {
		t.Error("no cache hits across repeated identical queries")
	}
	var solves int64
	for _, b := range snap.Backends {
		solves += b.Requests
	}
	if solves != goroutines*perG {
		t.Errorf("backend solves = %d, want %d", solves, goroutines*perG)
	}
}

func TestMetricsWinLossCounters(t *testing.T) {
	m := NewMetrics()
	m.Backend("tabu").RecordWin()
	m.Backend("tabu").RecordWin()
	m.Backend("anneal").RecordLoss()
	snap := m.Snapshot(nil)
	if got := snap.Backends["tabu"]; got.Wins != 2 || got.Losses != 0 {
		t.Errorf("tabu wins/losses = %d/%d, want 2/0", got.Wins, got.Losses)
	}
	if got := snap.Backends["anneal"]; got.Wins != 0 || got.Losses != 1 {
		t.Errorf("anneal wins/losses = %d/%d, want 0/1", got.Wins, got.Losses)
	}
}

// TestBackendsAcceptInitialState pins the warm-start plumbing: a full QUBO
// assignment built from a known join order must pass through Params into
// the tabu and anneal backends without breaking the solve.
func TestBackendsAcceptInitialState(t *testing.T) {
	q := pairQuery()
	enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 1)})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := enc.EncodeOrder(join.Order{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	full, err := enc.CompleteSlacks(dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != enc.NumQubits() {
		t.Fatalf("warm state has %d vars, encoding %d", len(full), enc.NumQubits())
	}
	ctx := context.Background()
	p := Params{Reads: 50, Seed: 5, InitialState: full}
	for _, b := range []Backend{NewTabuBackend(), NewAnnealBackend(3)} {
		d, err := b.Solve(ctx, enc, p)
		if err != nil {
			t.Fatalf("%s warm solve: %v", b.Name(), err)
		}
		if !d.Valid || len(d.Order) != 2 {
			t.Fatalf("%s warm solve returned %+v", b.Name(), d)
		}
	}
}

// TestFallbackLetsTheSweepDecide: the degraded path hands its deadline to
// the DP sweep, which decides for itself whether it can finish. 8 ms is
// ample for 14 relations, so the fallback plan is exact; once the deadline
// has passed the sweep does not start and greedy answers.
func TestFallbackLetsTheSweepDecide(t *testing.T) {
	svc := New(classicalRegistry(t), Config{Workers: 1, Degrade: true})
	defer svc.Close(context.Background())
	q, err := querygen.Generate(querygen.Config{Relations: 14, Graph: querygen.Chain}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := classical.Optimal(q)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh entry per call, so neither reads the other's optimum memo.
	prepared := func() *core.Encoding {
		enc, err := core.Prepare(q, core.Options{Thresholds: core.DefaultThresholds(q, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
	d, producer := svc.fallback(ctx, prepared())
	cancel()
	if producer != "dp" || d.Cost != opt.Cost {
		t.Errorf("8 ms left: fallback %s with cost %v, want dp with the optimum %v", producer, d.Cost, opt.Cost)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	d, producer = svc.fallback(expired, prepared())
	if greedy := classical.Greedy(q); producer != "greedy" || d.Cost != greedy.Cost {
		t.Errorf("deadline passed: fallback %s with cost %v, want greedy's %v", producer, d.Cost, greedy.Cost)
	}
}
