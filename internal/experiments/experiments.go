// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 Tables 2–3, Figures 2–3; §5/6 Figures 4–5; §3 Table 1)
// on the simulated substrates. Each experiment returns structured rows
// plus a text rendering, so the same code backs the cmd/experiments
// binary and the bench harness.
//
// Absolute numbers differ from the paper (the substrate is a simulator,
// not the authors' QPUs); the shapes under comparison are documented in
// DESIGN.md and recorded side by side in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"quantumjoin/internal/anneal"
	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/topology"
)

// Config scales the experiment suite. Full() reproduces the paper's
// dimensions; Quick() shrinks shot/instance/size budgets to what a
// single-core laptop runs in minutes (shapes preserved, variance larger).
type Config struct {
	Seed int64

	// Workers bounds the harnesses' fan-out over independent repetitions
	// and sweep cells (0 = GOMAXPROCS). Every task derives its RNG from
	// Seed and the task index alone, so results are identical for any
	// worker count.
	Workers int

	// Figure 2 / Figure 5: transpilation repetitions per scenario.
	TranspileRuns int

	// Table 2: QAOA shots, the iteration counts compared, and the largest
	// exactly simulated problem (in qubits).
	QAOAShots      int
	QAOAIterations []int
	MaxQAOAQubits  int

	// Figure 3: relations swept (top), fixed relations (bottom), maximum
	// threshold count probed, and the Pegasus size m of the target QPU
	// (16 = Advantage).
	EmbedRelations      []int
	EmbedFixedRelations int
	EmbedMaxThresholds  int
	PegasusM            int
	// EmbedTries caps the minor embedder's restarts (0 = device default).
	// Failures (frontier probes) cost the full budget, so quick runs keep
	// this small.
	EmbedTries int

	// Table 3: reads per problem, random instances per cell, annealing
	// times, and relation counts.
	AnnealReads     int
	AnnealInstances int
	AnnealTimes     []float64
	AnnealRelations []int

	// Figure 4: maximum relation count for the qubit-bound sweep.
	BoundMaxRelations int

	// Figure 5: relation counts and densities swept.
	CoDesignRelations []int
	CoDesignDensities []float64

	// Tracer, when non-nil, records per-stage spans (encode, transpile,
	// solve, embed) under one root span per experiment. cmd/experiments
	// aggregates the spans via the tracer's sink into the -timings JSON;
	// a nil tracer costs nothing.
	Tracer *obs.Tracer

	pegasus *topology.Graph
}

// Full returns the paper-scale configuration (hours of single-core time).
func Full() Config {
	return Config{
		Seed:                1,
		TranspileRuns:       20,
		QAOAShots:           1024,
		QAOAIterations:      []int{20, 50},
		MaxQAOAQubits:       27,
		EmbedRelations:      []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		EmbedFixedRelations: 8,
		EmbedMaxThresholds:  20,
		PegasusM:            16,
		AnnealReads:         1000,
		AnnealInstances:     20,
		AnnealTimes:         []float64{20, 60, 100},
		AnnealRelations:     []int{3, 4, 5},
		BoundMaxRelations:   64,
		CoDesignRelations:   []int{2, 3, 4, 5, 6},
		CoDesignDensities:   []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 1},
	}
}

// Quick returns a configuration that runs the whole suite in a few
// minutes on one core.
func Quick() Config {
	return Config{
		Seed:                1,
		TranspileRuns:       5,
		QAOAShots:           1024,
		QAOAIterations:      []int{5, 10},
		MaxQAOAQubits:       21,
		EmbedRelations:      []int{3, 4, 5, 6, 7},
		EmbedFixedRelations: 5,
		EmbedMaxThresholds:  6,
		PegasusM:            8,
		EmbedTries:          4,
		AnnealReads:         250,
		AnnealInstances:     4,
		AnnealTimes:         []float64{20, 60, 100},
		AnnealRelations:     []int{3, 4, 5},
		BoundMaxRelations:   64,
		CoDesignRelations:   []int{2, 3, 4},
		CoDesignDensities:   []float64{0, 0.1, 0.5, 1},
	}
}

// Pegasus lazily constructs (and caches) the annealer hardware graph.
func (c *Config) Pegasus() *topology.Graph {
	if c.pegasus == nil {
		g, _ := topology.Pegasus(c.PegasusM)
		c.pegasus = g
	}
	return c.pegasus
}

// AnnealDevice returns a fresh device on the configured Pegasus graph
// with Advantage-like analog characteristics.
func (c *Config) AnnealDevice() *anneal.Device {
	d := anneal.NewDevice(c.Pegasus())
	if c.EmbedTries > 0 {
		d.EmbeddingTries = c.EmbedTries
	}
	return d
}

// traceCtx returns a context armed with the configured tracer (the plain
// background context when tracing is off); instrumented experiments
// derive their root span from it.
func (c Config) traceCtx() context.Context {
	return obs.NewContext(context.Background(), c.Tracer)
}

// paperEncoding builds the canonical §4.1 instance: three relations of
// cardinality 10, 0–3 predicates of selectivity 0.1, one threshold θ = 10,
// discretisation precision 10^-decimals. Qubits: 18 + 3·predicates
// + 3·decimals. The encoding runs under an "encode" span in the trace
// carried by ctx.
func paperEncoding(ctx context.Context, predicates, decimals int) (*core.Encoding, error) {
	q, err := querygen.PaperInstance(predicates)
	if err != nil {
		return nil, err
	}
	return core.EncodeContext(ctx, q, core.Options{
		Thresholds: []float64{10},
		Omega:      math.Pow(10, -float64(decimals)),
	})
}

// randomInstance draws a random integer-log query and encodes it with one
// threshold at ω = 1 (the §4.1 experimental setting), under an "encode"
// span in the trace carried by ctx.
func randomInstance(ctx context.Context, relations int, graph querygen.GraphType, thresholds int, omega float64, rng *rand.Rand) (*join.Query, *core.Encoding, error) {
	q, err := querygen.Generate(querygen.Config{
		Relations:  relations,
		Graph:      graph,
		IntegerLog: true,
		MinLogCard: 1, MaxLogCard: 3,
		MinLogSel: 1, MaxLogSel: 2,
	}, rng)
	if err != nil {
		return nil, nil, err
	}
	enc, err := core.EncodeContext(ctx, q, core.Options{
		Thresholds: core.DefaultThresholds(q, thresholds),
		Omega:      omega,
	})
	if err != nil {
		return nil, nil, err
	}
	return q, enc, nil
}

// percent formats a fraction as a percentage string.
func percent(f float64) string {
	return fmt.Sprintf("%.2f%%", 100*f)
}
