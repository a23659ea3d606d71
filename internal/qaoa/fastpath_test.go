package qaoa

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"quantumjoin/internal/qsim"
	"quantumjoin/internal/qubo"
)

func denseQUBO(rng *rand.Rand, n int) *qubo.QUBO {
	q := qubo.New(n)
	for i := 0; i < n; i++ {
		q.AddLinear(i, rng.NormFloat64())
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				q.AddQuad(i, j, rng.NormFloat64())
			}
		}
	}
	return q
}

// randomQUBO builds a dense-ish random problem at QAOA service scale.
func randomQUBO(rng *rand.Rand, n int) *qubo.QUBO {
	q := qubo.New(n)
	for i := 0; i < n; i++ {
		q.AddLinear(i, rng.NormFloat64())
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				q.AddQuad(i, j, rng.NormFloat64())
			}
		}
	}
	return q
}

// referenceState runs BuildCircuit gate by gate through the reference
// kernels from |0...0⟩.
func referenceState(t *testing.T, q *qubo.QUBO, params Params) *qsim.State {
	t.Helper()
	s, err := qsim.NewState(q.N())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range BuildCircuit(q, params).Gates {
		if err := s.ApplyGateRef(g); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestBuildCircuitCostLayerSign pins the sign of BuildCircuit's cost
// operator: one cost layer (β = 0) on |+⟩^n must phase basis state i by
// exp(-iγ·E(i)) relative to basis state 0, where E is the QUBO energy.
// Emitting RZ(+2γh) for the linear fields phases by the complemented
// assignment's energy instead.
func TestBuildCircuitCostLayerSign(t *testing.T) {
	rng := rand.New(rand.NewSource(8404))
	for trial := 0; trial < 4; trial++ {
		n := 4 + trial*2
		q := randomQUBO(rng, n)
		tab := q.CostTable()
		params := NewParams(1)
		params.Gammas[0] = 0.2 + rng.Float64()
		s := referenceState(t, q, params)
		a0 := s.Amplitude(0)
		for i := range tab {
			got := s.Amplitude(uint64(i)) / a0
			want := cmplx.Exp(complex(0, -params.Gammas[0]*(tab[i]-tab[0])))
			if d := cmplx.Abs(got - want); d > 1e-12 {
				t.Fatalf("trial=%d n=%d basis=%d: amplitude ratio %v, want exp(-iγΔE) = %v (off by %g)", trial, n, i, got, want, d)
			}
		}
	}
}

// TestExecutorMatchesBuildCircuit pins the executor's cost-table state
// preparation against BuildCircuit run through the reference kernels:
// amplitudes equal up to a global phase, and equal expectations.
func TestExecutorMatchesBuildCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(8202))
	for n := 6; n <= 10; n += 2 {
		q := randomQUBO(rng, n)
		ex := &Executor{QUBO: q}
		tab := q.CostTable()
		for p := 1; p <= 3; p++ {
			params := NewParams(p)
			for i := range params.Gammas {
				params.Gammas[i] = rng.NormFloat64()
				params.Betas[i] = rng.NormFloat64()
			}
			got, err := ex.Expectation(params)
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceState(t, q, params)
			if want := ref.ExpectationTable(tab); math.Abs(got-want) > 1e-12 {
				t.Fatalf("n=%d p=%d: executor expectation %v != reference circuit %v", n, p, got, want)
			}
			// Align the global phase on the largest reference amplitude.
			s := ex.state
			k := uint64(0)
			for i := range tab {
				if ref.Probability(uint64(i)) > ref.Probability(k) {
					k = uint64(i)
				}
			}
			phase := s.Amplitude(k) / ref.Amplitude(k)
			phase /= complex(cmplx.Abs(phase), 0)
			for i := range tab {
				b := uint64(i)
				if d := cmplx.Abs(s.Amplitude(b) - phase*ref.Amplitude(b)); d > 1e-12 {
					t.Fatalf("n=%d p=%d basis=%d: executor amplitude off the reference by %g", n, p, b, d)
				}
			}
		}
		ex.Close()
	}
}

// TestExpectationTablePathMatchesValueBits checks that Executor.Expectation
// (a cost-table reduction) agrees with evaluating the QUBO per basis state
// on the same state, across random QUBOs and parameters.
func TestExpectationTablePathMatchesValueBits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 4; trial++ {
		n := 4 + rng.Intn(6)
		q := denseQUBO(rng, n)
		params := NewParams(1)
		params.Gammas[0] = rng.Float64()
		params.Betas[0] = rng.Float64()

		ex := &Executor{QUBO: q}
		got, err := ex.Expectation(params)
		if err != nil {
			t.Fatal(err)
		}
		want := ex.state.ExpectationDiag(q.ValueBits)
		ex.Close()
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d n=%d: table path %v != ValueBits path %v", trial, n, got, want)
		}
	}
}

// TestExecutorStateReuse checks that repeated evaluations reuse the pooled
// statevector and still give identical results.
func TestExecutorStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q := denseQUBO(rng, 6)
	ex := &Executor{QUBO: q}
	defer ex.Close()
	params := NewParams(1)
	params.Gammas[0] = 0.4
	params.Betas[0] = 0.3
	e1, err := ex.Expectation(params)
	if err != nil {
		t.Fatal(err)
	}
	s1 := ex.state
	e2, err := ex.Expectation(params)
	if err != nil {
		t.Fatal(err)
	}
	if ex.state != s1 {
		t.Fatal("executor allocated a fresh state on the second evaluation")
	}
	if e1 != e2 {
		t.Fatalf("state reuse changed the expectation: %v != %v", e1, e2)
	}
}

// TestScoreSamplesMatchesValueBits checks sample scoring through the table
// against direct evaluation.
func TestScoreSamplesMatchesValueBits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := denseQUBO(rng, 8)
	ex := &Executor{QUBO: q}
	samples := make([]uint64, 50)
	for i := range samples {
		samples[i] = uint64(rng.Intn(1 << 8))
	}
	energies := ex.ScoreSamples(samples)
	for i, b := range samples {
		if want := q.ValueBits(b); math.Abs(energies[i]-want) > 1e-9 {
			t.Fatalf("sample %d (basis %d): energy %v != ValueBits %v", i, b, energies[i], want)
		}
	}
}

// TestRunContextCancellation checks that a cancelled context aborts the
// hybrid loop with a context error.
func TestRunContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	q := denseQUBO(rng, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, q, 1, AQGD{Iterations: 5}, 32, nil, nil, rng)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext returned %v, want context.Canceled", err)
	}
}

// TestRunPopulatesEnergies checks the end-to-end result carries per-sample
// energies consistent with the samples.
func TestRunPopulatesEnergies(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	q := denseQUBO(rng, 5)
	res, err := Run(q, 1, AQGD{Iterations: 3}, 64, nil, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Energies) != len(res.Samples) {
		t.Fatalf("got %d energies for %d samples", len(res.Energies), len(res.Samples))
	}
	for i, b := range res.Samples {
		if want := q.ValueBits(b); math.Abs(res.Energies[i]-want) > 1e-9 {
			t.Fatalf("sample %d: energy %v != ValueBits %v", i, res.Energies[i], want)
		}
	}
}

// TestRunSeedsContextMatchesRunContext pins the batched multi-seed run
// against solo runs: same params, expectation, samples, and energies per
// seed.
func TestRunSeedsContextMatchesRunContext(t *testing.T) {
	rng := rand.New(rand.NewSource(8303))
	q := randomQUBO(rng, 6)
	opt := AQGD{Iterations: 4}
	seeds := []int64{3, 17, 99}
	rngs := make([]*rand.Rand, len(seeds))
	for i, s := range seeds {
		rngs[i] = rand.New(rand.NewSource(s))
	}
	batch, err := RunSeedsContext(context.Background(), q, RunOptions{Layers: 1, Optimizer: opt, Shots: 128}, rngs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		solo, err := RunContext(context.Background(), q, 1, opt, 128, nil, nil, rand.New(rand.NewSource(s)))
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Expectation != solo.Expectation || batch[i].Evaluations != solo.Evaluations {
			t.Fatalf("seed=%d: batched run diverges on expectation/evals", s)
		}
		if len(batch[i].Samples) != len(solo.Samples) {
			t.Fatalf("seed=%d: sample count %d != %d", s, len(batch[i].Samples), len(solo.Samples))
		}
		for k := range solo.Samples {
			if batch[i].Samples[k] != solo.Samples[k] {
				t.Fatalf("seed=%d shot=%d: batched sample %d != solo %d", s, k, batch[i].Samples[k], solo.Samples[k])
			}
			if batch[i].Energies[k] != solo.Energies[k] {
				t.Fatalf("seed=%d shot=%d: batched energy %v != solo %v", s, k, batch[i].Energies[k], solo.Energies[k])
			}
		}
	}
}
