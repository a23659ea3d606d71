// Package qaoa implements the Quantum Approximate Optimisation Algorithm
// (Farhi et al.) for QUBO problems, as used by the paper for gate-based
// join ordering (§2.2.1, §4.1): a depth-p alternation of a cost operator
// exp(-iγH_C) built from the problem's Ising form and a transverse-field
// mixer exp(-iβΣX), wrapped in a hybrid loop where a classical gradient
// optimiser tunes (γ, β) from measured expectations.
package qaoa

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"quantumjoin/internal/circuit"
	"quantumjoin/internal/noise"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/qsim"
	"quantumjoin/internal/qubo"
)

// Params are the 2p variational parameters of a depth-p QAOA circuit.
type Params struct {
	Gammas []float64 // cost-operator angles, one per layer
	Betas  []float64 // mixer angles, one per layer
}

// NewParams allocates zeroed parameters for p layers.
func NewParams(p int) Params {
	return Params{Gammas: make([]float64, p), Betas: make([]float64, p)}
}

// P returns the layer count.
func (p Params) P() int { return len(p.Gammas) }

// Clone returns a deep copy.
func (p Params) Clone() Params {
	return Params{
		Gammas: append([]float64(nil), p.Gammas...),
		Betas:  append([]float64(nil), p.Betas...),
	}
}

// flat returns the parameters as a single vector (γ_1..γ_p, β_1..β_p).
func (p Params) flat() []float64 {
	return append(append([]float64(nil), p.Gammas...), p.Betas...)
}

func paramsFromFlat(v []float64) Params {
	p := len(v) / 2
	return Params{
		Gammas: append([]float64(nil), v[:p]...),
		Betas:  append([]float64(nil), v[p:]...),
	}
}

// BuildCircuit constructs the QAOA circuit for a QUBO: Hadamards on all
// qubits, then per layer an RZ per linear Ising field, an RZZ per coupling
// (these are the quadratic contributions whose count drives depth, §3.4),
// and an RX mixer on every qubit. The cost gates apply exp(-iγH_C) up to a
// global phase: ToIsing maps bit 1 to spin +1, while Z has eigenvalue -1
// on |1⟩, so a field h_i·s_i is RZ(-2γh_i); a coupling J_ij·s_i·s_j is
// sign-blind and stays RZZ(2γJ_ij). The executor never simulates this
// circuit (it applies the cost table directly); it feeds transpilation and
// the noise model's gate counts.
func BuildCircuit(q *qubo.QUBO, params Params) *circuit.Circuit {
	is := q.ToIsing()
	c := circuit.New(q.N())
	for i := 0; i < q.N(); i++ {
		c.Append(circuit.G1(circuit.H, i, 0))
	}
	for layer := 0; layer < params.P(); layer++ {
		gamma := params.Gammas[layer]
		for i, h := range is.H {
			if h != 0 {
				c.Append(circuit.G1(circuit.RZ, i, -2*gamma*h))
			}
		}
		for _, p := range sortedPairs(is) {
			c.Append(circuit.G2(circuit.RZZ, p.I, p.J, 2*gamma*is.J[p]))
		}
		beta := params.Betas[layer]
		for i := 0; i < q.N(); i++ {
			c.Append(circuit.G1(circuit.RX, i, 2*beta))
		}
	}
	return c
}

func sortedPairs(is *qubo.Ising) []qubo.Pair {
	tmp := qubo.New(is.N)
	for p, w := range is.J {
		tmp.AddQuad(p.I, p.J, w)
	}
	return tmp.QuadTerms()
}

// Executor evaluates QAOA circuits on the statevector simulator, with an
// optional noise calibration that degrades both the optimiser's signal and
// the final samples exactly as the paper's hardware runs experienced.
type Executor struct {
	QUBO *qubo.QUBO
	// Noise, when non-nil, applies the depolarising output model with λ
	// computed from the transpiled circuit handed to SetTranspiled (or,
	// if none was provided, from the logical circuit itself).
	Noise *noise.Calibration

	transpiled *circuit.Circuit
	uniformE   float64
	haveUnifE  bool
	// logical is BuildCircuit at zero angles for logicalP layers, kept for
	// the noise model's gate counts.
	logical  *circuit.Circuit
	logicalP int

	// state is the pooled statevector reused across the optimiser's energy
	// evaluations; costTable caches the dense QUBO diagonal, which is both
	// the cost layer's phase and the observable. An Executor is not safe
	// for concurrent use.
	state     *qsim.State
	costTable []float64
}

// Close releases the executor's pooled statevector buffer. The executor
// remains usable; the next run re-acquires a buffer.
func (ex *Executor) Close() {
	if ex.state != nil {
		ex.state.Release()
		ex.state = nil
	}
}

// table returns the cached dense cost table, building it on first use.
func (ex *Executor) table() []float64 {
	if ex.costTable == nil {
		ex.costTable = ex.QUBO.CostTable()
	}
	return ex.costTable
}

// SetTranspiled registers the hardware-level circuit whose gate counts and
// duration determine the noise strength; the ideal state is still prepared
// from the cost table (the transpiled circuit is unitarily equivalent).
func (ex *Executor) SetTranspiled(c *circuit.Circuit) { ex.transpiled = c }

// run prepares the QAOA state for the given parameters and returns the
// executor's pooled state (valid until the next run or Close): |+⟩^n, then
// per layer the cost operator straight from the cost table and an RX mixer
// on every qubit.
func (ex *Executor) run(params Params) (*qsim.State, error) {
	n := ex.QUBO.N()
	if ex.state == nil {
		s, err := qsim.Acquire(n)
		if err != nil {
			return nil, err
		}
		ex.state = s
	}
	s := ex.state
	tab := ex.table()
	s.SetUniform()
	for l, gamma := range params.Gammas {
		s.PhaseTable(tab, gamma)
		for q := 0; q < n; q++ {
			if err := s.ApplyGate(circuit.G1(circuit.RX, q, 2*params.Betas[l])); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// lambda returns the depolarising weight for the current noise setting.
// Lambda only reads gate counts and durations, so the logical circuit is
// built once per layer count at zero angles.
func (ex *Executor) lambda(params Params) float64 {
	if ex.Noise == nil {
		return 0
	}
	c := ex.transpiled
	if c == nil {
		if ex.logical == nil || ex.logicalP != params.P() {
			ex.logical = BuildCircuit(ex.QUBO, NewParams(params.P()))
			ex.logicalP = params.P()
		}
		c = ex.logical
	}
	return ex.Noise.Lambda(c)
}

// uniformExpectation returns the QUBO mean over all assignments, the
// expectation of a fully depolarised state. For a QUBO this is
// Offset + Σc_i/2 + Σc_ij/4.
func (ex *Executor) uniformExpectation() float64 {
	if ex.haveUnifE {
		return ex.uniformE
	}
	e := ex.QUBO.Offset
	for i := 0; i < ex.QUBO.N(); i++ {
		e += ex.QUBO.Linear(i) / 2
	}
	for _, p := range ex.QUBO.QuadTerms() {
		e += ex.QUBO.Quad(p.I, p.J) / 4
	}
	ex.uniformE = e
	ex.haveUnifE = true
	return e
}

// Expectation returns ⟨H_C⟩ for the given parameters, degraded by the
// noise model when one is configured.
func (ex *Executor) Expectation(params Params) (float64, error) {
	s, err := ex.run(params)
	if err != nil {
		return 0, err
	}
	ideal := s.ExpectationTable(ex.table())
	if l := ex.lambda(params); l > 0 {
		return noise.MixedExpectation(l, ideal, ex.uniformExpectation()), nil
	}
	return ideal, nil
}

// Sample measures the optimised circuit: shots outcomes from the (noisy)
// output distribution.
func (ex *Executor) Sample(params Params, shots int, rng *rand.Rand) ([]uint64, error) {
	s, err := ex.run(params)
	if err != nil {
		return nil, err
	}
	ideal := s.Sample(rng, shots)
	l := ex.lambda(params)
	if l == 0 && (ex.Noise == nil || ex.Noise.ReadoutError == 0) {
		return ideal, nil
	}
	k := 0
	ro := 0.0
	if ex.Noise != nil {
		ro = ex.Noise.ReadoutError
	}
	sampler := noise.Sampler{Lambda: l, ReadoutError: ro, NumQubits: ex.QUBO.N()}
	return sampler.Sample(rng, shots, func() uint64 {
		b := ideal[k%len(ideal)]
		k++
		return b
	}), nil
}

// SampleSeeds measures the optimised circuit for every rng at once: one
// circuit execution and one batched cumulative scan (qsim.SampleBatch)
// serve all seeds, instead of re-walking the 2^n amplitudes per restart.
// Stream k is bit-identical to Sample(params, shots, rngs[k]), including
// the noise model's per-rng draws.
func (ex *Executor) SampleSeeds(params Params, shots int, rngs []*rand.Rand) ([][]uint64, error) {
	s, err := ex.run(params)
	if err != nil {
		return nil, err
	}
	ideal := s.SampleBatch(rngs, shots)
	l := ex.lambda(params)
	ro := 0.0
	if ex.Noise != nil {
		ro = ex.Noise.ReadoutError
	}
	if l == 0 && ro == 0 {
		return ideal, nil
	}
	out := make([][]uint64, len(rngs))
	for r, rng := range rngs {
		k := 0
		seq := ideal[r]
		sampler := noise.Sampler{Lambda: l, ReadoutError: ro, NumQubits: ex.QUBO.N()}
		out[r] = sampler.Sample(rng, shots, func() uint64 {
			b := seq[k%len(seq)]
			k++
			return b
		})
	}
	return out, nil
}

// ScoreSamples returns the QUBO cost of each sampled basis state through
// the cached dense cost table.
func (ex *Executor) ScoreSamples(samples []uint64) []float64 {
	tab := ex.table()
	energies := make([]float64, len(samples))
	for i, b := range samples {
		energies[i] = tab[b]
	}
	return energies
}

// Result summarises a full hybrid optimisation run.
type Result struct {
	Params      Params
	Expectation float64
	Evaluations int
	Samples     []uint64
	// Energies holds the QUBO cost of each sample (same order), scored
	// through the executor's cost table.
	Energies []float64
}

// Optimizer tunes QAOA parameters from expectation evaluations.
type Optimizer interface {
	// Optimize minimises eval starting from the given parameters and
	// returns the best parameters found together with their value.
	Optimize(start Params, eval func(Params) (float64, error)) (Params, float64, error)
	Name() string
}

// Run performs the full hybrid loop of §4.1: optimise (γ, β) with the
// given classical optimiser, then draw the requested number of shots at
// the optimum.
func Run(q *qubo.QUBO, p int, opt Optimizer, shots int, cal *noise.Calibration, transpiled *circuit.Circuit, rng *rand.Rand) (Result, error) {
	return RunContext(context.Background(), q, p, opt, shots, cal, transpiled, rng)
}

// RunContext is Run with cancellation checked before every optimiser
// energy evaluation, so long hybrid loops respect request deadlines.
func RunContext(ctx context.Context, q *qubo.QUBO, p int, opt Optimizer, shots int, cal *noise.Calibration, transpiled *circuit.Circuit, rng *rand.Rand) (Result, error) {
	o := RunOptions{Layers: p, Optimizer: opt, Shots: shots, Noise: cal, Transpiled: transpiled}
	rngs := [1]*rand.Rand{rng}
	rs, err := RunSeedsContext(ctx, q, o, rngs[:])
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// RunOptions collects the knobs of a hybrid run, so callers that only tune
// some of them (batched seeds) don't grow the positional RunContext
// signature.
type RunOptions struct {
	Layers     int
	Optimizer  Optimizer
	Shots      int
	Noise      *noise.Calibration
	Transpiled *circuit.Circuit
}

// RunSeedsContext runs the hybrid loop once — the classical optimiser is
// deterministic, so one (γ, β) tune serves every restart — then samples all
// rngs through one batched scan of the final state. Element k equals the
// Result of a solo RunContext with rngs[k] bit for bit; the shared Params
// slices are owned by the call and must be treated as read-only.
func RunSeedsContext(ctx context.Context, q *qubo.QUBO, o RunOptions, rngs []*rand.Rand) ([]Result, error) {
	if o.Layers < 1 {
		return nil, fmt.Errorf("qaoa: layer count p must be >= 1, got %d", o.Layers)
	}
	if len(rngs) == 0 {
		return nil, fmt.Errorf("qaoa: no sampling seeds supplied")
	}
	ex := &Executor{QUBO: q, Noise: o.Noise}
	defer ex.Close()
	if o.Transpiled != nil {
		ex.SetTranspiled(o.Transpiled)
	}
	evals := 0
	eval := func(par Params) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("qaoa: cancelled after %d evaluations: %w", evals, err)
		}
		evals++
		return ex.Expectation(par)
	}
	start := NewParams(o.Layers)
	for i := 0; i < o.Layers; i++ {
		// Small symmetric starting angles; the landscape at 0 is flat.
		start.Gammas[i] = 0.01
		start.Betas[i] = math.Pi / 8
	}
	_, optSpan := obs.StartSpan(ctx, "qaoa.optimize")
	optSpan.SetAttr("layers", o.Layers)
	optSpan.SetAttr("optimizer", o.Optimizer.Name())
	best, val, err := o.Optimizer.Optimize(start, eval)
	optSpan.SetAttr("evaluations", evals)
	optSpan.End(err)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("qaoa: cancelled before sampling: %w", err)
	}
	_, sampleSpan := obs.StartSpan(ctx, "qaoa.sample")
	sampleSpan.SetAttr("shots", o.Shots)
	sampleSpan.SetAttr("seeds", len(rngs))
	samples, err := ex.SampleSeeds(best, o.Shots, rngs)
	sampleSpan.End(err)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(rngs))
	for r := range out {
		out[r] = Result{
			Params:      best,
			Expectation: val,
			Evaluations: evals,
			Samples:     samples[r],
			Energies:    ex.ScoreSamples(samples[r]),
		}
	}
	return out, nil
}
