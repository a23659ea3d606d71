package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/querygen"
)

// prepareModels are the encoding variants whose qubit count Prepare must
// predict: the pruned model, its compact and log-objective variants, and
// the unpruned original.
var prepareModels = []struct {
	name string
	opts Options
}{
	{"standard", Options{}},
	{"compact", Options{Compact: true}},
	{"original", Options{Original: true}},
	{"log-objective", Options{LogObjective: true}},
}

// checkPreparedCount compares Prepare's count with the built QUBO's size.
func checkPreparedCount(t *testing.T, what string, q *join.Query, opts Options) {
	t.Helper()
	p, err := Prepare(q, opts)
	if err != nil {
		t.Fatalf("%s: Prepare: %v", what, err)
	}
	if p.Built() || p.QUBO != nil {
		t.Fatalf("%s: Prepare built the model", what)
	}
	enc, err := Encode(q, opts)
	if err != nil {
		t.Fatalf("%s: Encode: %v", what, err)
	}
	if got, want := p.NumQubits(), enc.QUBO.N(); got != want {
		t.Fatalf("%s: Prepare counts %d qubits, the built QUBO has %d", what, got, want)
	}
}

// TestPrepareQubitCountExact: the count Prepare computes without building
// anything equals the variable count of the QUBO Encode builds, over every
// graph shape at 2–32 relations, 1–5 thresholds, ω ∈ {1, 0.5, 0.1} and all
// four models. Up to 5 relations every (thresholds, ω) pair runs; larger
// sizes rotate through them, and cliques and the compact model stop at 16
// relations (a 32-relation clique, with 496 predicates, or compact
// encoding, whose prefix substitution makes every constraint dense, takes
// seconds per Encode), so the test stays quick under -race.
func TestPrepareQubitCountExact(t *testing.T) {
	shapes := []querygen.GraphType{querygen.Chain, querygen.Star, querygen.Cycle, querygen.Tree, querygen.Clique}
	sizes := []int{2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32}
	type combo struct {
		r     int
		omega float64
	}
	var combos []combo
	for r := 1; r <= 5; r++ {
		for _, omega := range []float64{1, 0.5, 0.1} {
			combos = append(combos, combo{r, omega})
		}
	}
	rng := rand.New(rand.NewSource(25))
	rot := 0
	for _, shape := range shapes {
		for _, n := range sizes {
			if shape == querygen.Cycle && n < 3 || shape == querygen.Clique && n > 16 {
				continue
			}
			q, err := querygen.Generate(querygen.Config{Relations: n, Graph: shape}, rng)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range prepareModels {
				if m.opts.Compact && n > 16 {
					continue
				}
				picks := combos
				if n > 5 {
					k := rot % len(combos)
					picks = combos[k : k+1]
					rot++
				}
				for _, c := range picks {
					opts := m.opts
					opts.Thresholds = DefaultThresholds(q, c.r)
					opts.Omega = c.omega
					checkPreparedCount(t, fmt.Sprintf("%v n=%d %s R=%d ω=%v", shape, n, m.name, c.r, c.omega), q, opts)
				}
			}
		}
	}
}

// TestPrepareQubitCountEdgeThresholds covers the pruning corner cases the
// default spread never reaches: relations of cardinality 1 (c_jmax = 0, so
// zero-width slacks), thresholds below 1 (negative log-thresholds), and
// thresholds above every c_jmax (all cto variables pruned in the pruned
// model, ∞_rj clamped to 0 in the original).
func TestPrepareQubitCountEdgeThresholds(t *testing.T) {
	flat := &join.Query{
		Relations:  []join.Relation{{Name: "a", Card: 1}, {Name: "b", Card: 1}, {Name: "c", Card: 10}},
		Predicates: []join.Predicate{{R1: 0, R2: 1, Sel: 1}, {R1: 1, R2: 2, Sel: 0.5}},
	}
	for _, th := range [][]float64{{0.5}, {1}, {3, 1e9}, {0.01, 2, 10, 1e12}} {
		for _, m := range prepareModels {
			for _, omega := range []float64{1, 0.5, 0.1} {
				opts := m.opts
				opts.Thresholds, opts.Omega = th, omega
				checkPreparedCount(t, fmt.Sprintf("%s θ=%v ω=%v", m.name, th, omega), flat, opts)
			}
		}
	}
}

// TestPrepareErrorParity pins the error text of every input Prepare
// rejects: the texts Encode has always returned, so a caller that moved
// from Encode to Prepare sees the same messages. Encode, which now runs
// Prepare first, must agree. The monolithic size limit is Build's: Prepare
// accepts a 40-relation query, and Build and Encode refuse it with the
// text Encode has always returned.
func TestPrepareErrorParity(t *testing.T) {
	two := &join.Query{
		Relations:  []join.Relation{{Name: "a", Card: 10}, {Name: "b", Card: 20}},
		Predicates: []join.Predicate{{R1: 0, R2: 1, Sel: 0.5}},
	}
	big, err := querygen.Generate(querygen.Config{Relations: 40, Graph: querygen.Chain}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	badSel := &join.Query{
		Relations:  two.Relations,
		Predicates: []join.Predicate{{R1: 0, R2: 1, Sel: 1.5}},
	}
	th := []float64{100}
	cases := []struct {
		name string
		q    *join.Query
		opts Options
		want string
	}{
		{"nil query", nil, Options{Thresholds: th}, "core: cannot encode nil query"},
		{"invalid query", badSel, Options{Thresholds: th},
			"core: cannot encode invalid query: join: predicate 0 has selectivity 1.5 outside (0, 1]"},
		{"compact and original", two, Options{Thresholds: th, Compact: true, Original: true},
			"core: Compact and Original encodings are mutually exclusive (the compact substitution presumes the pruned model)"},
		{"no thresholds", two, Options{}, "core: at least one threshold value is required"},
		{"zero threshold", two, Options{Thresholds: []float64{10, 0}}, "core: invalid threshold value 0"},
		{"NaN threshold", two, Options{Thresholds: []float64{math.NaN()}}, "core: invalid threshold value NaN"},
		{"infinite threshold", two, Options{Thresholds: []float64{math.Inf(1)}}, "core: invalid threshold value +Inf"},
		{"negative ω", two, Options{Thresholds: th, Omega: -1},
			"core: discretisation precision ω must be positive, got -1"},
	}
	for _, tc := range cases {
		p, err := Prepare(tc.q, tc.opts)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Prepare = (%v, %v), want error %q", tc.name, p, err, tc.want)
		}
		enc, err := Encode(tc.q, tc.opts)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Encode = (%v, %v), want error %q", tc.name, enc, err, tc.want)
		}
	}

	const tooBig = "core: 40 relations exceeds the 32-relation monolithic encoding limit; use the decomp backend, which partitions the join graph into parts, plans each part by exact DP and stitches the per-part orders"
	p, err := Prepare(big, Options{Thresholds: th})
	if err != nil {
		t.Fatalf("Prepare of 40 relations: %v", err)
	}
	if p.NumQubits() <= 0 {
		t.Errorf("prepared 40-relation encoding counts %d qubits", p.NumQubits())
	}
	if err := p.Build(context.Background()); err == nil || err.Error() != tooBig {
		t.Errorf("Build of 40 relations = %v, want error %q", err, tooBig)
	}
	if err := CheckMonolithic(big); err == nil || err.Error() != tooBig {
		t.Errorf("CheckMonolithic of 40 relations = %v, want error %q", err, tooBig)
	}
	if p.Built() || p.QUBO != nil {
		t.Error("a refused build latched or built something")
	}
	if enc, err := Encode(big, Options{Thresholds: th}); err == nil || err.Error() != tooBig {
		t.Errorf("Encode of 40 relations = (%v, %v), want error %q", enc, err, tooBig)
	}
}

// TestPrepareBuildOnce: a prepared encoding builds on first use only, even
// when many goroutines ask at once, and answers like an eager Encode. The
// build runs under one "encode" span in the first caller's trace.
func TestPrepareBuildOnce(t *testing.T) {
	q, err := querygen.Generate(querygen.Config{Relations: 6, Graph: querygen.Cycle}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Thresholds: DefaultThresholds(q, 2)}
	p, err := Prepare(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.Options{Capacity: 64, SampleRate: 1})
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, root := tracer.Start(obs.NewContext(context.Background(), tracer), "caller")
			if err := p.Build(ctx); err != nil {
				t.Error(err)
			}
			root.End(nil)
		}()
	}
	wg.Wait()
	if !p.Built() {
		t.Fatal("Build returned but Built reports false")
	}
	encodes := 0
	for _, tr := range tracer.Snapshots() {
		for _, sp := range tr.Root.Children {
			if sp.Name != "encode" {
				continue
			}
			encodes++
			if len(sp.Children) != 3 || sp.Attrs["qubits"] != p.NumQubits() {
				t.Errorf("encode span: %d children, attrs %v; want milp/bilp/qubo and qubits=%d", len(sp.Children), sp.Attrs, p.NumQubits())
			}
		}
	}
	if encodes != 1 {
		t.Fatalf("%d callers produced %d encode spans, want exactly 1 build", callers, encodes)
	}
	eager, err := Encode(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.QUBO.N() != eager.QUBO.N() || p.QUBO.NumQuadTerms() != eager.QUBO.NumQuadTerms() || p.PenaltyA != eager.PenaltyA {
		t.Fatalf("lazy build differs from Encode: %d/%d qubits, %d/%d quadratic terms, A %v/%v",
			p.QUBO.N(), eager.QUBO.N(), p.QUBO.NumQuadTerms(), eager.QUBO.NumQuadTerms(), p.PenaltyA, eager.PenaltyA)
	}
	x := make([]bool, p.QUBO.N())
	for i := range x {
		x[i] = i%3 == 0
	}
	if p.QUBO.Value(x) != eager.QUBO.Value(x) {
		t.Fatal("lazy and eager QUBOs disagree on an assignment's energy")
	}
}

// TestPrepareCJMaxPrefixSums: the per-query prefix sums Prepare, the
// builders and DefaultThresholds index are bit-identical to the
// sort-and-sum-per-join reference CJMax used to compute.
func TestPrepareCJMaxPrefixSums(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 5, 13, 32} {
		q, err := querygen.Generate(querygen.Config{Relations: n, Graph: querygen.Tree}, rng)
		if err != nil {
			t.Fatal(err)
		}
		ls := make([]float64, n)
		for i := range ls {
			ls[i] = q.LogCard(i)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(ls)))
		cj := cjMaxes(q)
		for j := -1; j <= n+1; j++ {
			want := 0.0
			for i := 0; i < min(j+1, n); i++ {
				want += ls[i]
			}
			if got := CJMax(q, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: CJMax(%d) = %v, reference %v", n, j, got, want)
			}
			if j >= 0 && j < n && math.Float64bits(cj[j]) != math.Float64bits(want) {
				t.Fatalf("n=%d: cjMaxes[%d] = %v, reference %v", n, j, cj[j], want)
			}
		}
		// DefaultThresholds spreads up to c_jmax of the last join, J−1.
		maxLog, minLog := 0.0, math.Inf(1)
		for i := 0; i < n-1; i++ {
			maxLog += ls[i]
		}
		for _, l := range ls {
			minLog = math.Min(minLog, l)
		}
		if minLog >= maxLog {
			minLog = maxLog / 2
		}
		got := DefaultThresholds(q, 3)
		for i, th := range got {
			want := math.Pow(10, minLog+float64(i+1)/4*(maxLog-minLog))
			if math.Float64bits(th) != math.Float64bits(want) {
				t.Fatalf("n=%d: DefaultThresholds = %v, reference threshold %d is %v", n, got, i, want)
			}
		}
	}
}

// pollCtx answers its first live calls to Err as a live context and every
// later one as cancelled; block, when set, holds the call that would
// report the cancellation until it is closed. It stands in for a deadline
// that passes between two stages of a build.
type pollCtx struct {
	context.Context
	live  atomic.Int32
	block chan struct{}
}

func (c *pollCtx) Err() error {
	if c.live.Add(-1) >= 0 {
		return nil
	}
	if c.block != nil {
		<-c.block
	}
	return context.Canceled
}

// cutShortQuery is the instance of the cut-short build tests.
func cutShortQuery(t *testing.T) (*join.Query, Options) {
	t.Helper()
	q, err := querygen.Generate(querygen.Config{Relations: 7, Graph: querygen.Cycle}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return q, Options{Thresholds: DefaultThresholds(q, 2)}
}

// TestPrepareBuildCutShort: a build whose context ends before the MILP,
// the BILP or the QUBO stage returns the context's error, keeps no part
// of the model and latches nothing; a later Build with a live context
// builds exactly what Encode builds.
func TestPrepareBuildCutShort(t *testing.T) {
	q, opts := cutShortQuery(t)
	eager, err := Encode(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for live, stage := range []string{"MILP", "BILP", "QUBO"} {
		p, err := Prepare(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &pollCtx{Context: context.Background()}
		ctx.live.Store(int32(live))
		err = p.Build(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut before %s: Build = %v, want the context's error", stage, err)
		}
		if p.Built() || p.MILP != nil || p.BILP != nil || p.QUBO != nil || p.Infos != nil || p.PenaltyA != 0 {
			t.Fatalf("cut before %s: the encoding kept a partial model (built %v)", stage, p.Built())
		}
		if err := p.Build(context.Background()); err != nil {
			t.Fatalf("cut before %s: the next Build failed: %v", stage, err)
		}
		if !p.Built() {
			t.Fatalf("cut before %s: a completed Build left Built false", stage)
		}
		if !reflect.DeepEqual(p.MILP, eager.MILP) || !reflect.DeepEqual(p.BILP, eager.BILP) ||
			!reflect.DeepEqual(p.QUBO, eager.QUBO) || !reflect.DeepEqual(p.Infos, eager.Infos) ||
			!reflect.DeepEqual(p.tii, eager.tii) || !reflect.DeepEqual(p.tio, eager.tio) ||
			p.PenaltyA != eager.PenaltyA || p.PenaltyB != eager.PenaltyB {
			t.Fatalf("cut before %s: the rebuilt model differs from Encode's", stage)
		}
	}
}

// TestPrepareBuildWaiterGivesUp: a caller that finds a build running
// waits for it only as long as its own context lives, and a build cut
// short after that hands the next live caller a fresh build.
func TestPrepareBuildWaiterGivesUp(t *testing.T) {
	q, opts := cutShortQuery(t)
	p, err := Prepare(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The first caller polls once, then stalls in its second poll (before
	// the BILP stage) until release is closed, and is cut short there.
	release := make(chan struct{})
	first := &pollCtx{Context: context.Background(), block: release}
	first.live.Store(1)
	firstErr := make(chan error, 1)
	go func() { firstErr <- p.Build(first) }()
	for first.live.Load() >= 0 {
		time.Sleep(time.Millisecond)
	}

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Build(gone); !errors.Is(err, context.Canceled) {
		t.Fatalf("a waiter whose context ended: Build = %v, want its context's error", err)
	}
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- p.Build(context.Background()) }()
	close(release)
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("the stalled build: Build = %v, want its context's error", err)
	}
	if err := <-waiterErr; err != nil {
		t.Fatalf("the live waiter: Build = %v, want a fresh build", err)
	}
	if !p.Built() || p.QUBO == nil || p.QUBO.N() != p.NumQubits() {
		t.Fatal("the live waiter's build did not complete")
	}
}
