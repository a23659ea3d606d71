package service

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"quantumjoin/internal/anneal"
	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/minorembed"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/qaoa"
	"quantumjoin/internal/qsim"
	"quantumjoin/internal/qubo"
	"quantumjoin/internal/topology"
)

// RegistryConfig tunes the built-in backends of DefaultRegistry.
type RegistryConfig struct {
	// PegasusM sets the annealer hardware graph size (default 6; 16 = the
	// full Advantage system, expensive to construct).
	PegasusM int
	// MaxQAOAQubits caps the statevector simulation of the qaoa backend
	// (default 16 — 2^16 amplitudes keep request latency service-grade).
	MaxQAOAQubits int
	// QAOALayers is the QAOA depth p (default 1, as in the paper).
	QAOALayers int
	// QAOAIterations is the classical optimiser budget (default 8).
	QAOAIterations int
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.PegasusM == 0 {
		c.PegasusM = 6
	}
	if c.MaxQAOAQubits == 0 {
		c.MaxQAOAQubits = 16
	}
	if c.QAOALayers == 0 {
		c.QAOALayers = 1
	}
	if c.QAOAIterations == 0 {
		c.QAOAIterations = 8
	}
	return c
}

// DefaultRegistry registers every built-in solver behind the Backend
// interface: the simulated quantum annealer, tabu search, QAOA simulation,
// the exact MILP solver, and the classical DP/greedy reference baselines.
func DefaultRegistry(cfg RegistryConfig) *Registry {
	cfg = cfg.withDefaults()
	r := NewRegistry()
	for _, b := range []Backend{
		NewAnnealBackend(cfg.PegasusM),
		NewTabuBackend(),
		qaoaBackend{maxQubits: cfg.MaxQAOAQubits, layers: cfg.QAOALayers, iterations: cfg.QAOAIterations},
		NewMILPBackend(),
		NewDPBackend(),
		NewGreedyBackend(),
	} {
		if err := r.Register(b); err != nil {
			// Built-in names are distinct by construction.
			panic(err)
		}
	}
	return r
}

// decoderPool recycles decode scratch across backend solves: decoding a
// few hundred samples per request used to allocate an order slice per
// valid sample; with pooled core.Decoders only the single returned
// Decoded escapes.
var decoderPool = sync.Pool{New: func() any { return new(core.Decoder) }}

// bestValid decodes every sample and returns the cheapest valid join
// order, mirroring the §3.5 post-processing.
func bestValid(enc *core.Encoding, assignments [][]bool) (*core.Decoded, error) {
	dec := decoderPool.Get().(*core.Decoder)
	defer decoderPool.Put(dec)
	best := new(core.Decoded)
	if _, ok := dec.BestValidInto(enc, assignments, best); !ok {
		return nil, fmt.Errorf("service: no valid join order among %d samples", len(assignments))
	}
	return best, nil
}

// annealBackend samples the encoding on the simulated D-Wave-style
// annealer. The device (including its Pegasus hardware graph) is built
// once and shared across requests; Sample does not mutate it. Like the
// paper, which embeds each instance once and sweeps annealing times over
// that embedding, it embeds a cached encoding once per seed: the minor
// embedding is memoised on the core.Encoding, so a repeat request skips
// the embedder and samples the stored embedding. The span of the solve
// records embedding=reused|computed.
type annealBackend struct {
	dev *anneal.Device
}

// NewAnnealBackend builds the quantum-annealing backend on a Pegasus graph
// of the given size (0 selects the default 6). Service reads run in
// batched replica groups: 32 interleaved reads per sweep keeps the strided
// state resident while amortising the problem-array walk.
func NewAnnealBackend(pegasusM int) Backend {
	if pegasusM <= 0 {
		pegasusM = 6
	}
	g, _ := topology.Pegasus(pegasusM)
	dev := anneal.NewDevice(g)
	dev.BatchReads = 32
	return &annealBackend{dev: dev}
}

func (b *annealBackend) Name() string { return "anneal" }

// embedding returns the minor embedding of enc's QUBO at the request
// seed and whether it came from the encoding's memo. A miss embeds
// exactly as Device.SampleContext would, with no lock held (two
// concurrent misses both embed and store the same embedding). The
// embedder returns its best-so-far with a nil error when the context
// ends, so an embedding is stored only if the context is still live
// afterwards: a seed's answer must not depend on the deadline of the
// request that embedded it first.
func (b *annealBackend) embedding(ctx context.Context, enc *core.Encoding, seed int64) (emb *minorembed.Embedding, reused bool, err error) {
	g, tries := b.dev.Graph, b.dev.EmbeddingTries
	if emb := enc.Embedding(g, tries, seed); emb != nil {
		return emb, true, nil
	}
	if emb, err = b.dev.EmbedOnlyContext(ctx, enc.QUBO, seed); err != nil {
		return nil, false, err
	}
	if ctx.Err() == nil {
		enc.SetEmbedding(g, tries, seed, emb)
	}
	return emb, false, nil
}

// BuildQUBO builds enc's QUBO for a backend that reads it (every model
// field of enc is set once it returns nil) and records on ctx's active
// span qubo=computed when enc was unbuilt as the call reached it (the call
// ran the build, or waited on a concurrent one) or qubo=reused otherwise.
// The QUBO-reading built-in backends call it first in Solve and
// SolveBatch; dp, greedy and decomp read only enc.Query and the optimum
// memo and never call it, so their cache entries stay unbuilt.
//
// A query above core.MaxMonolithicRelations has no QUBO: the refusal is an
// ErrBadRequest whose message names decomp. A cold build that ctx's
// deadline cannot afford is not started (see admitBuild). Neither refusal
// sets the qubo attribute. A build error fails the solve like any backend
// error; a build that ctx cut short leaves enc unbuilt for the next
// request.
func BuildQUBO(ctx context.Context, enc *core.Encoding) error {
	if err := oversize(enc); err != nil {
		return err
	}
	if err := admitBuild(ctx, enc); err != nil {
		return err
	}
	obs.ActiveSpan(ctx).SetAttrStr("qubo", reusedAttr(enc.Built()))
	if err := enc.Build(ctx); err != nil {
		return fmt.Errorf("service: building the QUBO encoding failed: %w", err)
	}
	return nil
}

// buildQUBOs is BuildQUBO over the instances of a batch that have no
// error yet: a failed build sets errs[i], and the active span says
// qubo=computed when any instance it built was unbuilt.
func buildQUBOs(ctx context.Context, encs []*core.Encoding, errs []error) {
	built, reused := false, true
	for i, enc := range encs {
		if errs[i] != nil {
			continue
		}
		warm := enc.Built()
		if errs[i] = BuildQUBO(ctx, enc); errs[i] == nil {
			built, reused = true, reused && warm
		}
	}
	if built {
		obs.ActiveSpan(ctx).SetAttrStr("qubo", reusedAttr(reused))
	}
}

// oversize refuses, as a bad request whose message names decomp, an
// encoding above core.MaxMonolithicRelations: it has no QUBO to build, and
// the client chose a backend that cannot plan without one.
func oversize(enc *core.Encoding) error {
	if err := core.CheckMonolithic(enc.Query); err != nil {
		return fmt.Errorf("service: %w: %w", err, ErrBadRequest)
	}
	return nil
}

// buildCostPerQubit2 is the predicted cost of building an encoding's
// QUBO per squared logical qubit. Builds measured 1.6–4.8 ns per qubit²
// on a 2-vCPU host (DESIGN.md, "Encoding cache"); the QUBO stage does not
// poll its context, so the prediction sits at the top of that range.
const buildCostPerQubit2 = 5 * time.Nanosecond

// admitBuild refuses to start a cold build whose predicted cost
// (NumQubits, exact without a build, squared times buildCostPerQubit2)
// exceeds the time left before ctx's deadline. The refusal wraps
// context.DeadlineExceeded, so it answers 504, or degrades under
// Config.Degrade, like a solve the deadline cut short.
func admitBuild(ctx context.Context, enc *core.Encoding) error {
	deadline, ok := ctx.Deadline()
	if !ok || enc.Built() {
		return nil
	}
	n := time.Duration(enc.NumQubits())
	if need, left := n*n*buildCostPerQubit2, time.Until(deadline); need > left {
		return fmt.Errorf("service: a QUBO build of %d qubits is predicted at %v, %v left: %w",
			enc.NumQubits(), need.Round(time.Millisecond), left.Round(time.Millisecond), context.DeadlineExceeded)
	}
	return nil
}

// reusedAttr is the span value of a memo decision: the embedding or the
// optimum came from the encoding's memo, or was computed.
func reusedAttr(reused bool) string {
	if reused {
		return "reused"
	}
	return "computed"
}

func (b *annealBackend) Solve(ctx context.Context, enc *core.Encoding, p Params) (*core.Decoded, error) {
	reads := p.Reads
	if reads <= 0 {
		reads = 500
	}
	if err := BuildQUBO(ctx, enc); err != nil {
		return nil, err
	}
	emb, reused, err := b.embedding(ctx, enc, p.Seed)
	if err != nil {
		return nil, err
	}
	obs.ActiveSpan(ctx).SetAttrStr("embedding", reusedAttr(reused))
	dev := b.dev
	if len(p.InitialState) > 0 {
		// Warm start: Device is shared across requests, so set the initial
		// state on a shallow copy (the hardware graph stays shared,
		// read-only). SampleEmbeddedContext expands the logical assignment
		// onto chains and switches the sampler to a reverse-annealing
		// schedule.
		warm := *b.dev
		warm.InitialState = p.InitialState
		dev = &warm
	}
	out, err := dev.SampleEmbeddedContext(ctx, enc.QUBO, emb, reads, 20, p.Seed)
	if err != nil {
		return nil, err
	}
	return bestValid(enc, out.Assignments)
}

// SolveBatch implements BatchSolver: every instance is built and takes
// its embedding from the same memo as Solve, then the whole batch runs
// through anneal.Device.SampleBatchContext in one array pass, sharing the ICE
// perturbation scratch across each job's reads instead of allocating a
// problem copy per read. Results are bit-identical to per-instance Solve.
// The batch span records embedding=computed when any instance ran the
// embedder, reused otherwise.
func (b *annealBackend) SolveBatch(ctx context.Context, encs []*core.Encoding, ps []Params) ([]*core.Decoded, []error) {
	ds := make([]*core.Decoded, len(encs))
	errs := make([]error, len(encs))
	buildQUBOs(ctx, encs, errs)
	jobs := make([]anneal.BatchJob, 0, len(encs))
	idx := make([]int, 0, len(encs))
	allReused := true
	for i, enc := range encs {
		if errs[i] != nil {
			continue
		}
		emb, reused, err := b.embedding(ctx, enc, ps[i].Seed)
		if err != nil {
			errs[i] = err
			continue
		}
		allReused = allReused && reused
		reads := ps[i].Reads
		if reads <= 0 {
			reads = 500
		}
		jobs = append(jobs, anneal.BatchJob{
			Q:                enc.QUBO,
			Reads:            reads,
			AnnealTimeMicros: 20,
			Seed:             ps[i].Seed,
			InitialState:     ps[i].InitialState,
			Embedding:        emb,
		})
		idx = append(idx, i)
	}
	if len(jobs) == 0 {
		return ds, errs
	}
	obs.ActiveSpan(ctx).SetAttrStr("embedding", reusedAttr(allReused))
	outs, jerrs := b.dev.SampleBatchContext(ctx, jobs)
	for j, i := range idx {
		if errs[i] = jerrs[j]; errs[i] != nil {
			continue
		}
		ds[i], errs[i] = bestValid(encs[i], outs[j].Assignments)
	}
	return ds, errs
}

// tabuBackend runs the multistart tabu-search heuristic on the QUBO — the
// classical reference heuristic commonly paired with annealers.
type tabuBackend struct{}

// NewTabuBackend builds the tabu-search backend.
func NewTabuBackend() Backend { return tabuBackend{} }

func (tabuBackend) Name() string { return "tabu" }

func (tabuBackend) Solve(ctx context.Context, enc *core.Encoding, p Params) (*core.Decoded, error) {
	if err := BuildQUBO(ctx, enc); err != nil {
		return nil, err
	}
	restarts := p.Reads
	if restarts <= 0 {
		restarts = 8
	}
	ts := qubo.TabuSearch{Restarts: restarts, InitialState: p.InitialState}
	sol, err := ts.SolveContext(ctx, enc.QUBO, rand.New(rand.NewSource(p.Seed)))
	if err != nil {
		return nil, err
	}
	return bestValid(enc, [][]bool{sol.Assignment})
}

// SolveBatch implements BatchSolver: all instances run through
// qubo.SolveTabuBatchContext with one shared search arena (state, delta,
// and tabu-tenure buffers), so per-restart allocations are paid once per
// batch instead of once per instance. Results match per-instance Solve.
func (tabuBackend) SolveBatch(ctx context.Context, encs []*core.Encoding, ps []Params) ([]*core.Decoded, []error) {
	ds := make([]*core.Decoded, len(encs))
	errs := make([]error, len(encs))
	buildQUBOs(ctx, encs, errs)
	jobs := make([]qubo.TabuJob, 0, len(encs))
	idx := make([]int, 0, len(encs))
	for i, enc := range encs {
		if errs[i] != nil {
			continue
		}
		restarts := ps[i].Reads
		if restarts <= 0 {
			restarts = 8
		}
		jobs = append(jobs, qubo.TabuJob{
			Q:      enc.QUBO,
			Search: qubo.TabuSearch{Restarts: restarts, InitialState: ps[i].InitialState},
			Seed:   ps[i].Seed,
		})
		idx = append(idx, i)
	}
	sols, jerrs := qubo.SolveTabuBatchContext(ctx, jobs)
	for j, i := range idx {
		if errs[i] = jerrs[j]; errs[i] != nil {
			continue
		}
		ds[i], errs[i] = bestValid(encs[i], [][]bool{sols[j].Assignment})
	}
	return ds, errs
}

// qaoaBackend runs the hybrid QAOA loop on the statevector simulator.
type qaoaBackend struct {
	maxQubits  int
	layers     int
	iterations int
}

// NewQAOABackend builds the QAOA backend with the given statevector cap,
// circuit depth p, and classical optimiser budget.
func NewQAOABackend(maxQubits, layers, iterations int) Backend {
	return qaoaBackend{maxQubits: maxQubits, layers: layers, iterations: iterations}
}

func (qaoaBackend) Name() string { return "qaoa" }

func (b qaoaBackend) options(shots int) qaoa.RunOptions {
	return qaoa.RunOptions{
		Layers:    b.layers,
		Optimizer: qaoa.AQGD{Iterations: b.iterations},
		Shots:     shots,
	}
}

// overBudget rejects an encoding with no QUBO (see oversize) or whose
// exact qubit count exceeds the statevector budget, before anything is
// built for it.
func (b qaoaBackend) overBudget(enc *core.Encoding) error {
	if err := oversize(enc); err != nil {
		return err
	}
	if n := enc.NumQubits(); n > b.maxQubits {
		return fmt.Errorf("service: qaoa backend: %d logical qubits exceed the statevector budget of %d: %w", n, b.maxQubits, ErrBadRequest)
	}
	return nil
}

func (b qaoaBackend) decodeBest(enc *core.Encoding, out qaoa.Result) (*core.Decoded, error) {
	assignments := make([][]bool, len(out.Samples))
	for i, basis := range out.Samples {
		assignments[i] = qsim.BitsOf(basis, enc.QUBO.N())
	}
	return bestValid(enc, assignments)
}

func (b qaoaBackend) Solve(ctx context.Context, enc *core.Encoding, p Params) (*core.Decoded, error) {
	if err := b.overBudget(enc); err != nil {
		return nil, err
	}
	if err := BuildQUBO(ctx, enc); err != nil {
		return nil, err
	}
	shots := p.Reads
	if shots <= 0 {
		shots = 256
	}
	rngs := [1]*rand.Rand{rand.New(rand.NewSource(p.Seed))}
	// RunSeedsContext checks the deadline before every optimiser energy
	// evaluation and reuses a pooled statevector buffer across them.
	outs, err := qaoa.RunSeedsContext(ctx, enc.QUBO, b.options(shots), rngs[:])
	if err != nil {
		return nil, err
	}
	return b.decodeBest(enc, outs[0])
}

// SolveBatch implements BatchSolver: instances within the statevector
// budget are built, and those sharing an encoding and a shot budget are
// optimised once (the classical tuner is deterministic and
// seed-independent) and sampled for all their seeds in one batched scan
// of the final statevector via qaoa.RunSeedsContext. Results are
// bit-identical to per-instance Solve.
func (b qaoaBackend) SolveBatch(ctx context.Context, encs []*core.Encoding, ps []Params) ([]*core.Decoded, []error) {
	ds := make([]*core.Decoded, len(encs))
	errs := make([]error, len(encs))
	type groupKey struct {
		enc   *core.Encoding
		shots int
	}
	for i, enc := range encs {
		errs[i] = b.overBudget(enc)
	}
	buildQUBOs(ctx, encs, errs)
	order := make([]groupKey, 0, len(encs))
	members := make(map[groupKey][]int, len(encs))
	for i, enc := range encs {
		if errs[i] != nil {
			continue
		}
		shots := ps[i].Reads
		if shots <= 0 {
			shots = 256
		}
		gk := groupKey{enc: enc, shots: shots}
		if _, ok := members[gk]; !ok {
			order = append(order, gk)
		}
		members[gk] = append(members[gk], i)
	}
	for _, gk := range order {
		idxs := members[gk]
		rngs := make([]*rand.Rand, len(idxs))
		for r, i := range idxs {
			rngs[r] = rand.New(rand.NewSource(ps[i].Seed))
		}
		outs, err := qaoa.RunSeedsContext(ctx, gk.enc.QUBO, b.options(gk.shots), rngs)
		if err != nil {
			for _, i := range idxs {
				errs[i] = err
			}
			continue
		}
		for r, i := range idxs {
			ds[i], errs[i] = b.decodeBest(gk.enc, outs[r])
		}
	}
	return ds, errs
}

// milpBackend solves the BILP model exactly with the built-in
// LP-relaxation branch-and-bound — optimal w.r.t. the
// threshold-approximated cost.
type milpBackend struct{}

// NewMILPBackend builds the exact MILP backend.
func NewMILPBackend() Backend { return milpBackend{} }

func (milpBackend) Name() string { return "milp" }

func (milpBackend) Solve(ctx context.Context, enc *core.Encoding, p Params) (*core.Decoded, error) {
	if err := BuildQUBO(ctx, enc); err != nil {
		return nil, err
	}
	// The branch-and-bound search checks the context at every node, so a
	// request deadline interrupts deep searches mid-proof.
	d, err := enc.SolveMILPContext(ctx)
	if err != nil {
		return nil, err
	}
	return &d, nil
}

// dpBackend is the exact classical baseline: DP over relation subsets.
// The optimum is memoised on the core.Encoding, so a cached encoding is
// swept once, not once per request; the span of the solve records
// optimum=reused|computed. It reads no QUBO and never builds one, and
// rejects a query above classical.MaxDPRelations as a bad request.
type dpBackend struct{}

// NewDPBackend builds the exact dynamic-programming backend.
func NewDPBackend() Backend { return dpBackend{} }

func (dpBackend) Name() string { return "dp" }

func (dpBackend) Solve(ctx context.Context, enc *core.Encoding, p Params) (*core.Decoded, error) {
	if n := enc.Query.NumRelations(); n > classical.MaxDPRelations {
		return nil, fmt.Errorf("service: dp backend: %d relations exceeds the %d-relation DP limit; use the decomp backend, which partitions the join graph into parts and plans each part by exact DP: %w",
			n, classical.MaxDPRelations, ErrBadRequest)
	}
	// The subset sweep polls the context, so a request deadline interrupts
	// the table fill on large instances instead of blowing the budget.
	res, reused, err := enc.OptimalContext(ctx)
	if err != nil {
		return nil, err
	}
	obs.ActiveSpan(ctx).SetAttrStr("optimum", reusedAttr(reused))
	return &core.Decoded{Valid: true, Order: res.Order, Cost: res.Cost}, nil
}

// greedyBackend is the min-intermediate-cardinality greedy baseline. It
// reads no QUBO and never builds one.
type greedyBackend struct{}

// NewGreedyBackend builds the greedy baseline backend.
func NewGreedyBackend() Backend { return greedyBackend{} }

func (greedyBackend) Name() string { return "greedy" }

func (greedyBackend) Solve(ctx context.Context, enc *core.Encoding, p Params) (*core.Decoded, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("service: greedy backend cancelled: %w", err)
	}
	res := classical.Greedy(enc.Query)
	return &core.Decoded{Valid: true, Order: res.Order, Cost: res.Cost}, nil
}
