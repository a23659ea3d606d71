// Command qsimbench measures the simulator stack's fast path: strided
// versus reference statevector kernels, serial versus worker-pool
// execution, the cost-table versus per-basis-state QAOA expectation, full
// QAOA energy evaluations, batched versus sequential multi-seed sampling
// and annealing, and the warm (cached, Lean) service optimize path. Results go
// to a JSON file (default BENCH_qsim.json) with the host's CPU budget
// recorded, since kernel-level parallel speedup is only visible when
// GOMAXPROCS > 1.
//
// With -compare BASELINE.json the run additionally prints a new/old ratio
// for every case present in both reports and exits non-zero when any case
// slowed down by more than -tolerance (default 10%) — the CI regression
// gate for the kernel stack.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"quantumjoin/internal/anneal"
	"quantumjoin/internal/circuit"
	"quantumjoin/internal/join"
	"quantumjoin/internal/qaoa"
	"quantumjoin/internal/qsim"
	"quantumjoin/internal/qubo"
	"quantumjoin/internal/service"
)

// Measurement is one benchmark case.
type Measurement struct {
	Name    string  `json:"name"`
	Qubits  int     `json:"qubits"`
	Workers int     `json:"workers"` // 0 = GOMAXPROCS
	Iters   int     `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
}

// Report is the emitted JSON document.
type Report struct {
	GoMaxProcs   int           `json:"go_max_procs"`
	NumCPU       int           `json:"num_cpu"`
	GoVersion    string        `json:"go_version"`
	Measurements []Measurement `json:"measurements"`
}

// timeIt runs fn repeatedly for at least minDuration and returns ns/op.
func timeIt(minDuration time.Duration, fn func()) (int, float64) {
	fn() // warm up
	iters := 0
	start := time.Now()
	for time.Since(start) < minDuration {
		fn()
		iters++
	}
	return iters, float64(time.Since(start).Nanoseconds()) / float64(iters)
}

func randomize(s *qsim.State, rng *rand.Rand, n int) {
	// Scramble via a cheap circuit so amplitudes are dense; exact values
	// don't matter for timing.
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(circuit.G1(circuit.H, q, 0))
		c.Append(circuit.G1(circuit.RY, q, rng.Float64()))
	}
	if err := s.Run(c); err != nil {
		panic(err)
	}
}

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

// randomIsing builds a sparse random Ising instance for the annealing
// batch cases.
func randomIsing(rng *rand.Rand, n, degree int) *anneal.IsingProblem {
	p := anneal.NewIsingProblem(n)
	for i := 0; i < n; i++ {
		p.H[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		for k := 0; k < degree/2; k++ {
			j := rng.Intn(n)
			if j != i {
				p.AddCoupling(i, j, rng.NormFloat64())
			}
		}
	}
	return p
}

// chainQuery builds an n-relation chain join for the service warm-path
// cases.
func chainQuery(n int, scale float64) *join.Query {
	q := &join.Query{}
	for i := 0; i < n; i++ {
		card := scale * float64(10*(1+i%4))
		q.Relations = append(q.Relations, join.Relation{Name: fmt.Sprintf("R%d", i), Card: card})
	}
	for i := 0; i+1 < n; i++ {
		q.Predicates = append(q.Predicates, join.Predicate{R1: i, R2: i + 1, Sel: 0.1})
	}
	return q
}

// loadReport reads a previously written benchmark report.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}

// compareReports prints a new/old ratio for every case present in both
// reports and returns the number of cases that regressed beyond tol.
func compareReports(baseline, cur *Report, tol float64) int {
	type key struct {
		name            string
		qubits, workers int
	}
	old := make(map[key]Measurement, len(baseline.Measurements))
	for _, m := range baseline.Measurements {
		old[key{m.Name, m.Qubits, m.Workers}] = m
	}
	regressions, shared := 0, 0
	fmt.Printf("\n%-32s %8s %12s %12s %8s\n", "case", "n/w", "old ns/op", "new ns/op", "ratio")
	for _, m := range cur.Measurements {
		o, ok := old[key{m.Name, m.Qubits, m.Workers}]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		shared++
		ratio := m.NsPerOp / o.NsPerOp
		mark := ""
		if ratio > 1+tol {
			regressions++
			mark = "  REGRESSION"
		}
		fmt.Printf("%-32s %5d/%-2d %12.0f %12.0f %7.2fx%s\n",
			m.Name, m.Qubits, m.Workers, o.NsPerOp, m.NsPerOp, ratio, mark)
	}
	fmt.Printf("compared %d shared cases, %d regressions (tolerance %+.0f%%)\n",
		shared, regressions, tol*100)
	return regressions
}

func main() {
	out := flag.String("o", "BENCH_qsim.json", "output JSON path")
	budget := flag.Duration("t", 2*time.Second, "minimum measurement time per case")
	maxQubits := flag.Int("max-qubits", 24, "largest statevector size (2^n amplitudes)")
	baselinePath := flag.String("compare", "", "baseline report; after measuring, print ratios and exit 1 on regression")
	tol := flag.Float64("tolerance", 0.10, "allowed fractional slowdown per case vs the -compare baseline")
	flag.Parse()

	rep := &Report{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	add := func(name string, qubits, workers, iters int, nsPerOp float64) {
		rep.Measurements = append(rep.Measurements, Measurement{
			Name: name, Qubits: qubits, Workers: workers, Iters: iters, NsPerOp: nsPerOp,
		})
		fmt.Printf("%-32s n=%-3d workers=%-2d %12.0f ns/op  (%d iters)\n", name, qubits, workers, nsPerOp, iters)
	}

	sizes := []int{16, 20, 24}
	workerSettings := []int{1, 0} // serial, then full GOMAXPROCS fan-out
	for _, n := range sizes {
		if n > *maxQubits {
			continue
		}
		rng := rand.New(rand.NewSource(int64(n)))
		s, err := qsim.NewState(n)
		if err != nil {
			panic(err)
		}
		randomize(s, rng, n)

		// Reference full-sweep serial kernel: one Hadamard.
		iters, ns := timeIt(*budget, func() {
			if err := s.ApplyGateRef(circuit.G1(circuit.H, 0, 0)); err != nil {
				panic(err)
			}
		})
		add("h/reference", n, 1, iters, ns)

		for _, w := range workerSettings {
			prev := qsim.SetWorkers(w)
			iters, ns := timeIt(*budget, func() {
				if err := s.ApplyGate(circuit.G1(circuit.H, 0, 0)); err != nil {
					panic(err)
				}
			})
			add("h/strided", n, w, iters, ns)

			iters, ns = timeIt(*budget, func() {
				if err := s.ApplyGate(circuit.G2(circuit.CX, 0, n-1, 0)); err != nil {
					panic(err)
				}
			})
			add("cx/strided", n, w, iters, ns)
			qsim.SetWorkers(prev)
		}
	}

	// QAOA expectation: per-basis-state QUBO evaluation vs the dense cost
	// table, on the post-circuit state of a p=1 QAOA evaluation.
	for _, n := range []int{16, 20} {
		if n > *maxQubits {
			continue
		}
		rng := rand.New(rand.NewSource(int64(n)))
		q := denseQUBO(rng, n)
		params := qaoa.NewParams(1)
		params.Gammas[0] = 0.37
		params.Betas[0] = 0.41
		ex := &qaoa.Executor{QUBO: q}
		s, err := qsim.NewState(n)
		if err != nil {
			panic(err)
		}
		randomize(s, rng, n)

		iters, ns := timeIt(*budget, func() {
			_ = s.ExpectationDiag(func(b uint64) float64 { return q.ValueBits(b) })
		})
		add("qaoa-expectation/valuebits", n, 1, iters, ns)

		table := q.CostTable()
		for _, w := range workerSettings {
			prev := qsim.SetWorkers(w)
			iters, ns := timeIt(*budget, func() {
				_ = s.ExpectationTable(table)
			})
			add("qaoa-expectation/table", n, w, iters, ns)
			qsim.SetWorkers(prev)
		}

		// Full evaluation (state preparation + expectation) through the
		// Executor.
		iters, ns = timeIt(*budget, func() {
			if _, err := ex.Expectation(params); err != nil {
				panic(err)
			}
		})
		add("qaoa-eval/table", n, 0, iters, ns)

		// Multi-seed measurement: R independent shot streams drawn
		// sequentially vs in one strided pass over the state.
		const streams, shots = 32, 64
		rngs := make([]*rand.Rand, streams)
		for r := range rngs {
			rngs[r] = rand.New(rand.NewSource(int64(1000 + r)))
		}
		iters, ns = timeIt(*budget, func() {
			for _, rr := range rngs {
				if _, err := ex.Sample(params, shots, rr); err != nil {
					panic(err)
				}
			}
		})
		add("qaoa-sample/solo", n, 0, iters, ns)
		iters, ns = timeIt(*budget, func() {
			if _, err := ex.SampleSeeds(params, shots, rngs); err != nil {
				panic(err)
			}
		})
		add("qaoa-sample/batch", n, 0, iters, ns)
		ex.Close()
	}

	// Annealing restarts: R replicas swept one at a time vs in one
	// replica-strided pass (identical spins either way).
	{
		const spins, replicas = 256, 32
		rng := rand.New(rand.NewSource(7))
		prob := randomIsing(rng, spins, 8)
		sa := anneal.SimulatedAnnealer{Sweeps: 32}
		ctx := context.Background()
		mkRngs := func() []*rand.Rand {
			rngs := make([]*rand.Rand, replicas)
			for r := range rngs {
				rngs[r] = rand.New(rand.NewSource(int64(100 + r)))
			}
			return rngs
		}
		iters, ns := timeIt(*budget, func() {
			rngs := mkRngs()
			for _, rr := range rngs {
				if _, err := sa.AnnealContext(ctx, prob, rr); err != nil {
					panic(err)
				}
			}
		})
		add("sa-restarts/solo", spins, 1, iters, ns)
		probs := []*anneal.IsingProblem{prob}
		iters, ns = timeIt(*budget, func() {
			if _, err := sa.AnnealBatchContext(ctx, probs, mkRngs()); err != nil {
				panic(err)
			}
		})
		add("sa-restarts/batch", spins, 1, iters, ns)
	}

	// Warm service optimize path: encoding cached, scratch pools warm,
	// Lean responses — the steady state of a production qjoind under a
	// stream of familiar query shapes.
	{
		reg := service.DefaultRegistry(service.RegistryConfig{PegasusM: 2})
		svc := service.New(reg, service.Config{CompareRelations: -1})
		ctx := context.Background()
		req := &service.Request{Query: chainQuery(8, 1), Backend: "greedy", Lean: true}
		if _, err := svc.Optimize(ctx, req); err != nil {
			panic(err)
		}
		iters, ns := timeIt(*budget, func() {
			if _, err := svc.Optimize(ctx, req); err != nil {
				panic(err)
			}
		})
		add("optimize/warm", 8, 0, iters, ns)

		// A 16-item envelope over 4 distinct shapes: dedup collapses it to
		// 4 solves and the batch scratch arena is reused across envelopes.
		var reqs []*service.Request
		for i := 0; i < 16; i++ {
			reqs = append(reqs, &service.Request{
				Query:   chainQuery(8, float64(1+i%4)),
				Backend: "greedy",
				Lean:    true,
			})
		}
		bench := func() {
			_, errs, _ := svc.OptimizeBatch(ctx, reqs, time.Minute)
			for _, err := range errs {
				if err != nil {
					panic(err)
				}
			}
		}
		bench()
		iters, ns = timeIt(*budget, bench)
		add("optimize/batch-warm", 8, 0, iters, ns)
		if err := svc.Close(ctx); err != nil {
			panic(err)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		panic(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *baselinePath != "" {
		baseline, err := loadReport(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if n := compareReports(baseline, rep, *tol); n > 0 {
			os.Exit(1)
		}
	}
}
