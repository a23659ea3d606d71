package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"quantumjoin/internal/minorembed"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/qubo"
	"quantumjoin/internal/topology"
)

// Device simulates a quantum annealer with a fixed hardware graph and
// analog control characteristics. The defaults approximate the D-Wave
// Advantage system used in §4.2.2.
type Device struct {
	// Graph is the hardware connectivity (e.g. Pegasus P16).
	Graph *topology.Graph
	// HRange and JRange bound programmable fields/couplings after
	// rescaling (Advantage: |h| <= 4, |J| <= 1).
	HRange, JRange float64
	// SigmaH and SigmaJ are the per-read Gaussian control errors (ICE) in
	// rescaled units.
	SigmaH, SigmaJ float64
	// RelativeChainStrength scales the ferromagnetic chain coupling
	// relative to the largest logical coefficient (D-Wave practice ~1.4;
	// the paper determines chain strengths empirically per problem size).
	RelativeChainStrength float64
	// SweepsPerMicrosecond converts annealing time to the sampler's sweep
	// budget.
	SweepsPerMicrosecond float64
	// BetaMax is the final inverse temperature of the anneal in rescaled
	// units; finite values model the QPU's operating temperature.
	BetaMax float64
	// EmbeddingTries forwards to the minor embedder.
	EmbeddingTries int
	// NewSampler constructs the annealing dynamics for a given sweep
	// budget; nil selects classical simulated annealing. Use
	// PIMCSamplerFactory for path-integral (transverse-field) dynamics.
	NewSampler SamplerFactory
	// GaugeAveraging applies a fresh spin-reversal transform per read
	// (standard D-Wave practice against systematic analog biases).
	GaugeAveraging bool
	// InitialState, when non-nil, is a logical warm-start assignment (one
	// bool per QUBO variable): every read starts from this configuration
	// expanded onto the embedding's chains — the reverse-annealing pattern
	// D-Wave exposes for refining a classical incumbent. The default
	// sampler then starts its schedule colder (BetaMin 1 instead of 0.05)
	// so thermal fluctuations perturb the incumbent instead of erasing it.
	// Devices are shared across requests; callers warm-starting a single
	// solve should set this on a shallow copy of the device.
	InitialState []bool
	// BatchReads, when > 1, groups that many reads into one interleaved
	// replica sweep (AnnealBatchContext): the problem arrays are walked once
	// per sweep for the whole group instead of once per read. Each read then
	// draws from its own salted RNG stream — a different (equally valid)
	// sample set than the sequential mode's single shared stream, which is
	// why the default 0 keeps the legacy sequential loop and its pinned
	// experiment outputs. Gauge averaging and custom sampler factories that
	// produce types other than SimulatedAnnealer/PathIntegralAnnealer fall
	// back to sequential reads.
	BatchReads int
}

// Annealer produces one spin configuration per read.
type Annealer interface {
	Anneal(p *IsingProblem, rng *rand.Rand) []int8
}

// ContextAnnealer is an Annealer whose reads honour context cancellation
// mid-read; SimulatedAnnealer and PathIntegralAnnealer both implement it.
type ContextAnnealer interface {
	AnnealContext(ctx context.Context, p *IsingProblem, rng *rand.Rand) ([]int8, error)
}

// WarmStarter is implemented by samplers whose reads can start from a
// given spin configuration instead of a random one (SimulatedAnnealer and
// PathIntegralAnnealer both do). WarmStart returns a seeded copy and must
// not retain or mutate s beyond the returned sampler's reads.
type WarmStarter interface {
	WarmStart(s []int8) Annealer
}

// SamplerFactory builds an Annealer for a sweep budget derived from the
// requested annealing time.
type SamplerFactory func(sweeps int) Annealer

// PIMCSamplerFactory returns a factory for path-integral Monte Carlo
// dynamics with the given Trotter number.
func PIMCSamplerFactory(slices int) SamplerFactory {
	return func(sweeps int) Annealer {
		return PathIntegralAnnealer{Slices: slices, Sweeps: sweeps}
	}
}

// NewAdvantage returns a device modelled after the D-Wave Advantage
// (Pegasus P16, 5640 qubits). Construction generates the Pegasus graph and
// is somewhat expensive; reuse the device across samples.
func NewAdvantage() *Device {
	return NewDevice(topology.Advantage())
}

// NewDevice wraps an arbitrary hardware graph with Advantage-like analog
// characteristics.
func NewDevice(g *topology.Graph) *Device {
	return &Device{
		Graph:  g,
		HRange: 4, JRange: 1,
		SigmaH: 0.02, SigmaJ: 0.015,
		RelativeChainStrength: 1.4,
		SweepsPerMicrosecond:  3,
		BetaMax:               6,
		EmbeddingTries:        12,
	}
}

// Result is the outcome of sampling one QUBO on the device.
type Result struct {
	// Assignments are the unembedded logical samples.
	Assignments [][]bool
	// Energies are the logical QUBO values of the samples.
	Energies []float64
	// Embedding is the minor embedding used.
	Embedding *minorembed.Embedding
	// PhysicalQubits is the embedding footprint (Figure 3's metric).
	PhysicalQubits int
	// ChainBreakFraction is the fraction of (read, chain) pairs whose
	// physical qubits disagreed and were resolved by majority vote.
	ChainBreakFraction float64
	// AnnealTimeMicros echoes the requested annealing time.
	AnnealTimeMicros float64
}

// EmbedOnly computes the minor embedding of the QUBO's interaction graph
// without sampling — sufficient for the Figure 3 scaling study.
func (d *Device) EmbedOnly(q *qubo.QUBO, seed int64) (*minorembed.Embedding, error) {
	return d.EmbedOnlyContext(context.Background(), q, seed)
}

// EmbedOnlyContext is EmbedOnly with cancellation threaded into the
// embedding heuristic's restart and refinement loops.
func (d *Device) EmbedOnlyContext(ctx context.Context, q *qubo.QUBO, seed int64) (*minorembed.Embedding, error) {
	return minorembed.EmbedContext(ctx, q.AdjacencyLists(), d.Graph, minorembed.Options{
		Tries: d.EmbeddingTries,
		Seed:  seed,
	})
}

// Sample embeds the QUBO and draws reads samples at the given annealing
// time (µs). Chain couplings use the device's relative chain strength;
// each read sees fresh ICE noise.
func (d *Device) Sample(q *qubo.QUBO, reads int, annealTimeMicros float64, seed int64) (*Result, error) {
	return d.SampleContext(context.Background(), q, reads, annealTimeMicros, seed)
}

// SampleContext is Sample with cancellation: the context is checked before
// the embedding and between reads, and is forwarded into each read when the
// sampler supports mid-read cancellation (ContextAnnealer). On expiry it
// returns the reads collected so far together with the context error
// wrapped in partial-progress information.
func (d *Device) SampleContext(ctx context.Context, q *qubo.QUBO, reads int, annealTimeMicros float64, seed int64) (*Result, error) {
	if err := checkBudget(reads, annealTimeMicros); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("anneal: cancelled before embedding: %w", err)
	}
	emb, err := d.EmbedOnlyContext(ctx, q, seed)
	if err != nil {
		return nil, err
	}
	return d.SampleEmbeddedContext(ctx, q, emb, reads, annealTimeMicros, seed)
}

// checkBudget rejects a non-positive read count or annealing time. Every
// sampling entry point runs it before any embedding or read.
func checkBudget(reads int, annealTimeMicros float64) error {
	if reads <= 0 {
		return fmt.Errorf("anneal: reads must be positive, got %d", reads)
	}
	if annealTimeMicros <= 0 {
		return fmt.Errorf("anneal: annealing time must be positive, got %v", annealTimeMicros)
	}
	return nil
}

// SampleEmbedded is Sample with a precomputed embedding (reuse across
// annealing-time sweeps, as the paper does).
func (d *Device) SampleEmbedded(q *qubo.QUBO, emb *minorembed.Embedding, reads int, annealTimeMicros float64, seed int64) (*Result, error) {
	return d.SampleEmbeddedContext(context.Background(), q, emb, reads, annealTimeMicros, seed)
}

// SampleEmbeddedContext is SampleEmbedded with cancellation (see
// SampleContext for the semantics). When the context carries an obs span
// the read loop runs under an "anneal.sample" child span recording the
// read/sweep budget and the chain-break fraction.
func (d *Device) SampleEmbeddedContext(ctx context.Context, q *qubo.QUBO, emb *minorembed.Embedding, reads int, annealTimeMicros float64, seed int64) (*Result, error) {
	if err := checkBudget(reads, annealTimeMicros); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "anneal.sample")
	span.SetAttr("reads", reads)
	res, err := d.sampleEmbeddedContext(ctx, q, emb, reads, annealTimeMicros, seed, nil)
	if res != nil {
		span.SetAttr("sweeps", int(annealTimeMicros*d.SweepsPerMicrosecond))
		span.SetAttr("chain_break_fraction", res.ChainBreakFraction)
		span.SetAttr("physical_qubits", res.PhysicalQubits)
	}
	span.End(err)
	return res, err
}

// sampleEmbeddedContext runs the read loop. scratch, when non-nil, is a
// reusable perturbation buffer (structurally a copy of the physical
// problem) that replaces the per-read Copy allocation — the batch fast
// path passes one scratch per job and amortises it across all reads.
func (d *Device) sampleEmbeddedContext(ctx context.Context, q *qubo.QUBO, emb *minorembed.Embedding, reads int, annealTimeMicros float64, seed int64, scratch *scratchPool) (*Result, error) {
	physical, chainOf, err := d.buildPhysical(q, emb)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	sweeps := int(annealTimeMicros * d.SweepsPerMicrosecond)
	if sweeps < 4 {
		sweeps = 4
	}
	var sampler Annealer
	if d.NewSampler != nil {
		sampler = d.NewSampler(sweeps)
	} else {
		sa := SimulatedAnnealer{Sweeps: sweeps, BetaMin: 0.05, BetaMax: d.BetaMax}
		if d.InitialState != nil {
			// Reverse-annealing style: start cold enough that the warm
			// start survives the early sweeps.
			sa.BetaMin = 1
		}
		sampler = sa
	}
	// Expand the logical warm start onto the chains: every physical qubit
	// of a chain starts at its variable's value.
	var physInit []int8
	if d.InitialState != nil {
		if len(d.InitialState) != q.N() {
			return nil, fmt.Errorf("anneal: warm start has %d variables, QUBO has %d", len(d.InitialState), q.N())
		}
		physInit = make([]int8, len(chainOf))
		for v, chain := range emb.Chains {
			spin := int8(-1)
			if d.InitialState[v] {
				spin = 1
			}
			for _, pq := range chain {
				physInit[chainOf[pq].spinIndex] = spin
			}
		}
	}
	res := &Result{
		Embedding:        emb,
		PhysicalQubits:   emb.PhysicalQubits(),
		AnnealTimeMicros: annealTimeMicros,
	}
	if d.BatchReads > 1 && !d.GaugeAveraging {
		if done, err := d.sampleReadsBatched(ctx, q, emb, physical, chainOf, physInit, sampler, reads, seed, res); done {
			return res, err
		}
	}
	breaks, total := 0, 0
	for r := 0; r < reads; r++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("anneal: sampling interrupted after %d/%d reads: %w", r, reads, err)
		}
		prob := physical
		if d.SigmaH > 0 || d.SigmaJ > 0 {
			if scratch != nil {
				prob = scratch.perturbCopy(physical)
			} else {
				prob = physical.Copy()
			}
			prob.Perturb(d.SigmaH, d.SigmaJ, rng)
		}
		var gauge GaugeTransform
		if d.GaugeAveraging {
			gauge = NewGaugeTransform(prob.N(), rng)
			prob = gauge.Apply(prob)
		}
		readSampler := sampler
		if physInit != nil {
			if ws, ok := sampler.(WarmStarter); ok {
				init := physInit
				if d.GaugeAveraging {
					// The gauge relabels spins s → g·s; seed the read in
					// the transformed frame (Undo is its own inverse).
					init = gauge.Undo(physInit)
				}
				readSampler = ws.WarmStart(init)
			}
		}
		var spins []int8
		if ctxReadSampler, ok := readSampler.(ContextAnnealer); ok {
			var readErr error
			spins, readErr = ctxReadSampler.AnnealContext(ctx, prob, rng)
			if readErr != nil {
				return res, fmt.Errorf("anneal: sampling interrupted after %d/%d reads: %w", r, reads, readErr)
			}
		} else {
			spins = readSampler.Anneal(prob, rng)
		}
		if d.GaugeAveraging {
			spins = gauge.Undo(spins)
		}
		x := make([]bool, q.N())
		for v, chain := range emb.Chains {
			up := 0
			for _, pq := range chain {
				if spins[chainOf[pq].spinIndex] > 0 {
					up++
				}
			}
			if up*2 > len(chain) {
				x[v] = true
			} else if up*2 == len(chain) {
				x[v] = rng.Intn(2) == 0
			}
			if up != 0 && up != len(chain) {
				breaks++
			}
			total++
		}
		res.Assignments = append(res.Assignments, x)
		res.Energies = append(res.Energies, q.Value(x))
	}
	if total > 0 {
		res.ChainBreakFraction = float64(breaks) / float64(total)
	}
	return res, nil
}

// readSeed derives the independent RNG stream of read r in batched mode
// (sequential mode shares one seed ^ 0x5eed stream across all reads).
func readSeed(seed int64, r int) int64 {
	return seed ^ 0x5eed ^ int64(uint64(r+1)*0x9e3779b97f4a7c15)
}

// sampleReadsBatched runs the read loop in groups of BatchReads interleaved
// replicas. Reported done=false means the sampler type has no batched
// implementation and the caller should fall back to the sequential loop.
// Outputs are invariant to the group size: read r's RNG stream, ICE
// perturbation, and unembedding tie-breaks depend only on (seed, r).
func (d *Device) sampleReadsBatched(ctx context.Context, q *qubo.QUBO, emb *minorembed.Embedding, physical *IsingProblem, chainOf map[int]physQubit, physInit []int8, sampler Annealer, reads int, seed int64, res *Result) (bool, error) {
	type batchAnnealer interface {
		AnnealBatchContext(ctx context.Context, probs []*IsingProblem, rngs []*rand.Rand) ([][]int8, error)
	}
	var runGroup func(probs []*IsingProblem, rngs []*rand.Rand) ([][]int8, error)
	switch sam := sampler.(type) {
	case SimulatedAnnealer:
		sam.InitialState = physInit
		runGroup = func(probs []*IsingProblem, rngs []*rand.Rand) ([][]int8, error) {
			return sam.AnnealBatchContext(ctx, probs, rngs)
		}
	case PathIntegralAnnealer:
		sam.InitialState = physInit
		runGroup = func(probs []*IsingProblem, rngs []*rand.Rand) ([][]int8, error) {
			return sam.AnnealBatchContext(ctx, probs, rngs)
		}
	default:
		if ba, ok := sampler.(batchAnnealer); ok {
			ws, warm := sampler.(WarmStarter)
			runGroup = func(probs []*IsingProblem, rngs []*rand.Rand) ([][]int8, error) {
				if physInit != nil && warm {
					if wba, ok := ws.WarmStart(physInit).(batchAnnealer); ok {
						return wba.AnnealBatchContext(ctx, probs, rngs)
					}
				}
				return ba.AnnealBatchContext(ctx, probs, rngs)
			}
		} else {
			return false, nil
		}
	}
	noisy := d.SigmaH > 0 || d.SigmaJ > 0
	group := d.BatchReads
	if group > reads {
		group = reads
	}
	var scratch []*IsingProblem
	if noisy {
		scratch = make([]*IsingProblem, group)
		for j := range scratch {
			scratch[j] = physical.Copy()
		}
	}
	rngs := make([]*rand.Rand, group)
	probs := make([]*IsingProblem, group)
	breaks, total := 0, 0
	fail := func(completed int, err error) (bool, error) {
		if total > 0 {
			res.ChainBreakFraction = float64(breaks) / float64(total)
		}
		return true, fmt.Errorf("anneal: sampling interrupted after %d/%d reads: %w", completed, reads, err)
	}
	for base := 0; base < reads; base += group {
		if err := ctx.Err(); err != nil {
			return fail(base, err)
		}
		cnt := group
		if base+cnt > reads {
			cnt = reads - base
		}
		for j := 0; j < cnt; j++ {
			rngs[j] = rand.New(rand.NewSource(readSeed(seed, base+j)))
			if noisy {
				physical.CopyInto(scratch[j])
				scratch[j].Perturb(d.SigmaH, d.SigmaJ, rngs[j])
				probs[j] = scratch[j]
			}
		}
		var spins [][]int8
		var err error
		if noisy {
			spins, err = runGroup(probs[:cnt], rngs[:cnt])
		} else {
			shared := [1]*IsingProblem{physical}
			spins, err = runGroup(shared[:], rngs[:cnt])
		}
		if err != nil {
			return fail(base, err)
		}
		for j := 0; j < cnt; j++ {
			rng := rngs[j]
			x := make([]bool, q.N())
			for v, chain := range emb.Chains {
				up := 0
				for _, pq := range chain {
					if spins[j][chainOf[pq].spinIndex] > 0 {
						up++
					}
				}
				if up*2 > len(chain) {
					x[v] = true
				} else if up*2 == len(chain) {
					x[v] = rng.Intn(2) == 0
				}
				if up != 0 && up != len(chain) {
					breaks++
				}
				total++
			}
			res.Assignments = append(res.Assignments, x)
			res.Energies = append(res.Energies, q.Value(x))
		}
	}
	if total > 0 {
		res.ChainBreakFraction = float64(breaks) / float64(total)
	}
	return true, nil
}

type physQubit struct {
	spinIndex int
	variable  int
}

// buildPhysical constructs the embedded, rescaled Ising problem: logical
// fields are split evenly across chain qubits, logical couplings evenly
// across all available inter-chain couplers, and chain qubits are tied
// with a ferromagnetic coupling −chainStrength.
func (d *Device) buildPhysical(q *qubo.QUBO, emb *minorembed.Embedding) (*IsingProblem, map[int]physQubit, error) {
	if len(emb.Chains) != q.N() {
		return nil, nil, fmt.Errorf("anneal: embedding has %d chains for %d variables", len(emb.Chains), q.N())
	}
	logical := q.ToIsing()
	// Index used physical qubits densely.
	chainOf := make(map[int]physQubit)
	for v, chain := range emb.Chains {
		for _, pq := range chain {
			if _, dup := chainOf[pq]; dup {
				return nil, nil, fmt.Errorf("anneal: qubit %d appears in multiple chains", pq)
			}
			chainOf[pq] = physQubit{spinIndex: len(chainOf), variable: v}
		}
	}
	p := NewIsingProblem(len(chainOf))
	p.Const = logical.Offset

	maxAbs := 0.0
	for _, h := range logical.H {
		if a := math.Abs(h); a > maxAbs {
			maxAbs = a
		}
	}
	for _, j := range logical.J {
		if a := math.Abs(j); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	chainStrength := d.RelativeChainStrength * maxAbs

	// Fields split across chains.
	for v, chain := range emb.Chains {
		share := logical.H[v] / float64(len(chain))
		for _, pq := range chain {
			p.H[chainOf[pq].spinIndex] += share
		}
	}
	// Logical couplings split across available physical couplers. Iterate
	// in sorted pair order, not map order: adjacency-list order determines
	// both Perturb's noise-to-coupling mapping and float accumulation
	// order, so the physical problem must come out bit-identical every
	// time the same QUBO is built (repeated Sample calls at one seed, and
	// the batched-read group-size invariance, rely on it).
	pairs := make([]qubo.Pair, 0, len(logical.J))
	for pair := range logical.J {
		pairs = append(pairs, pair)
	}
	slices.SortFunc(pairs, func(a, b qubo.Pair) int {
		if a.I != b.I {
			return a.I - b.I
		}
		return a.J - b.J
	})
	for _, pair := range pairs {
		j := logical.J[pair]
		var couplers [][2]int
		inB := make(map[int]bool)
		for _, pq := range emb.Chains[pair.J] {
			inB[pq] = true
		}
		for _, pa := range emb.Chains[pair.I] {
			for _, nb := range d.Graph.Neighbors(pa) {
				if inB[nb] {
					couplers = append(couplers, [2]int{pa, nb})
				}
			}
		}
		if len(couplers) == 0 {
			return nil, nil, fmt.Errorf("anneal: no physical coupler for logical edge (%d,%d)", pair.I, pair.J)
		}
		share := j / float64(len(couplers))
		for _, c := range couplers {
			p.AddCoupling(chainOf[c[0]].spinIndex, chainOf[c[1]].spinIndex, share)
		}
	}
	// Ferromagnetic chain couplings along a spanning structure of each
	// chain (every hardware edge internal to the chain).
	for _, chain := range emb.Chains {
		inChain := make(map[int]bool, len(chain))
		for _, pq := range chain {
			inChain[pq] = true
		}
		for _, pa := range chain {
			for _, nb := range d.Graph.Neighbors(pa) {
				if inChain[nb] && pa < nb {
					p.AddCoupling(chainOf[pa].spinIndex, chainOf[nb].spinIndex, -chainStrength)
				}
			}
		}
	}
	// Rescale into the programmable range: the limited analog resolution
	// is what makes wide coefficient ranges (penalty weights vs. costs)
	// problematic on annealers (§3.4).
	scale := 1.0
	if m := p.MaxAbs(); m > d.JRange {
		scale = d.JRange / m
	}
	p.Scale(scale)
	return p, chainOf, nil
}

// TimingModel mirrors D-Wave's access-time accounting: programming once
// per problem, then per read the anneal, readout and a thermalisation
// delay. Times in microseconds.
type TimingModel struct {
	ProgrammingMicros float64
	ReadoutMicros     float64
	DelayMicros       float64
}

// DefaultTimingModel returns Advantage-like constants.
func DefaultTimingModel() TimingModel {
	return TimingModel{ProgrammingMicros: 15000, ReadoutMicros: 120, DelayMicros: 20}
}

// QPUAccessMicros returns the total QPU access time for a sampling job.
func (t TimingModel) QPUAccessMicros(reads int, annealTimeMicros float64) float64 {
	return t.ProgrammingMicros + float64(reads)*(annealTimeMicros+t.ReadoutMicros+t.DelayMicros)
}
