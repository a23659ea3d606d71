// Command hybridbench measures the hybrid orchestrator: end-to-end p50/p99
// latency and plan-quality-versus-deadline curves across chain, star, and
// clique workloads, plus the warm-start effect (iterations/sweeps for a
// warm-started solver to reach its classical incumbent versus a cold
// start). Results go to a JSON file (default BENCH_hybrid.json).
//
// The curves use 18-relation queries, where the exact DP pass of the
// hybrid classical stage needs tens of milliseconds: deadlines below that
// return the instant greedy incumbent (cost ratio > 1 on chains, where
// greedy is measurably suboptimal), and once the deadline admits the DP
// sweep the ratio drops to 1 and the request ends at DP time, since no
// sampler can beat the exact optimum on the same plan space.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"quantumjoin/internal/anneal"
	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/join"
	"quantumjoin/internal/qubo"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

// DeadlinePoint is one (workload, deadline) cell of the quality curve.
type DeadlinePoint struct {
	DeadlineMs     int     `json:"deadline_ms"`
	Requests       int     `json:"requests"`
	Valid          int     `json:"valid"`
	MeanCostRatio  float64 `json:"mean_cost_ratio"` // hybrid cost / DP optimum
	WorstCostRatio float64 `json:"worst_cost_ratio"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
}

// WorkloadCurve is the quality-vs-deadline curve for one graph shape.
type WorkloadCurve struct {
	Graph     string          `json:"graph"`
	Relations int             `json:"relations"`
	Points    []DeadlinePoint `json:"points"`
}

// MixedClassPoint summarises one deadline class of the shared
// deadline-stratified workload (querygen.DeadlineStratified) under the
// hybrid backend.
type MixedClassPoint struct {
	Class         string  `json:"class"`
	DeadlineMs    int     `json:"deadline_ms"`
	Requests      int     `json:"requests"`
	Valid         int     `json:"valid"`
	MeanCostRatio float64 `json:"mean_cost_ratio"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

// WarmStartCase compares cold and warm solver budgets needed to reach the
// classical incumbent's energy on one join-ordering QUBO.
type WarmStartCase struct {
	Solver          string  `json:"solver"`
	Graph           string  `json:"graph"`
	Relations       int     `json:"relations"`
	Seed            int64   `json:"seed"`
	IncumbentEnergy float64 `json:"incumbent_energy"`
	ColdBudget      int     `json:"cold_budget"` // sweeps (sa) or flips (tabu); -1 = not reached
	WarmBudget      int     `json:"warm_budget"`
}

// Report is the emitted JSON document. Commit is the checkout's HEAD
// ("none" outside a git work tree); Dirty reports uncommitted changes on
// top of it.
type Report struct {
	Commit     string            `json:"commit"`
	Dirty      bool              `json:"dirty"`
	GoMaxProcs int               `json:"go_max_procs"`
	NumCPU     int               `json:"num_cpu"`
	GoVersion  string            `json:"go_version"`
	Portfolio  []string          `json:"portfolio"`
	Curves     []WorkloadCurve   `json:"deadline_curves"`
	Mixed      []MixedClassPoint `json:"mixed_deadline"`
	WarmStart  []WarmStartCase   `json:"warm_start"`
}

func main() {
	out := flag.String("o", "BENCH_hybrid.json", "output file")
	relations := flag.Int("relations", 18, "relations per generated query (deadline curves)")
	warmRelations := flag.Int("warm-relations", 8, "relations for the warm-start cases")
	samples := flag.Int("samples", 12, "requests per (workload, deadline) point")
	mixedRelations := flag.Int("mixed-relations", 8, "relations for the mixed-deadline workload")
	mixedPerCell := flag.Int("mixed-per-cell", 1, "instances per mixed-deadline workload cell")
	mixedSeed := flag.Int64("mixed-seed", 1, "base seed of the mixed-deadline workload")
	flag.Parse()

	commit, dirty := gitHead()
	rep := Report{
		Commit:     commit,
		Dirty:      dirty,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Portfolio:  []string{"tabu"},
	}

	reg := service.NewRegistry()
	for _, b := range []service.Backend{
		service.NewGreedyBackend(),
		service.NewDPBackend(),
		service.NewTabuBackend(),
	} {
		if err := reg.Register(b); err != nil {
			fail(err)
		}
	}
	hb, err := hybrid.New(hybrid.Config{
		Registry:   reg,
		Portfolio:  rep.Portfolio,
		HedgeDelay: time.Millisecond,
	})
	if err != nil {
		fail(err)
	}

	graphs := []struct {
		name string
		g    querygen.GraphType
	}{{"chain", querygen.Chain}, {"star", querygen.Star}, {"clique", querygen.Clique}}
	deadlines := []time.Duration{
		20 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		250 * time.Millisecond,
		time.Second,
	}

	for _, gr := range graphs {
		curve := WorkloadCurve{Graph: gr.name, Relations: *relations}
		for _, dl := range deadlines {
			pt := DeadlinePoint{DeadlineMs: int(dl / time.Millisecond)}
			var latencies []float64
			var ratioSum float64
			for s := 1; s <= *samples; s++ {
				q, enc, opt := instance(gr.g, *relations, int64(s))
				ctx, cancel := context.WithTimeout(context.Background(), dl)
				start := time.Now()
				d, err := hb.Solve(ctx, enc, service.Params{Reads: 8, Seed: int64(s)})
				elapsed := time.Since(start)
				cancel()
				pt.Requests++
				latencies = append(latencies, float64(elapsed)/float64(time.Millisecond))
				if err != nil || !d.Valid {
					continue
				}
				pt.Valid++
				ratio := q.Cost(d.Order) / opt
				ratioSum += ratio
				if ratio > pt.WorstCostRatio {
					pt.WorstCostRatio = ratio
				}
			}
			if pt.Valid > 0 {
				pt.MeanCostRatio = ratioSum / float64(pt.Valid)
			}
			pt.P50Ms = percentile(latencies, 0.50)
			pt.P99Ms = percentile(latencies, 0.99)
			curve.Points = append(curve.Points, pt)
			fmt.Printf("%-6s deadline %4dms: valid %d/%d, mean ratio %.3f, p50 %.1fms, p99 %.1fms\n",
				gr.name, pt.DeadlineMs, pt.Valid, pt.Requests, pt.MeanCostRatio, pt.P50Ms, pt.P99Ms)
		}
		rep.Curves = append(rep.Curves, curve)
	}

	rep.Mixed = mixedDeadline(hb, *mixedRelations, *mixedPerCell, *mixedSeed)
	for _, m := range rep.Mixed {
		fmt.Printf("mixed %-6s deadline %4dms: valid %d/%d, mean ratio %.3f, p50 %.1fms, p99 %.1fms\n",
			m.Class, m.DeadlineMs, m.Valid, m.Requests, m.MeanCostRatio, m.P50Ms, m.P99Ms)
	}

	for _, seed := range []int64{1, 2, 3} {
		rep.WarmStart = append(rep.WarmStart,
			warmTabuCase("clique", *warmRelations, seed),
			warmSACase("clique", *warmRelations, seed))
	}
	for _, w := range rep.WarmStart {
		fmt.Printf("warm-start %-4s seed %d: cold budget %d, warm budget %d (incumbent %.4g)\n",
			w.Solver, w.Seed, w.ColdBudget, w.WarmBudget, w.IncumbentEnergy)
	}

	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	encJSON := json.NewEncoder(f)
	encJSON.SetIndent("", "  ")
	if err := encJSON.Encode(rep); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// gitHead returns the checkout's HEAD commit and whether the work tree
// has uncommitted changes; outside a git work tree it returns "none".
func gitHead() (string, bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", false
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(out)), err != nil || len(status) > 0
}

// mixedDeadline runs the hybrid backend over the shared deadline-
// stratified preset and aggregates plan quality per deadline class.
func mixedDeadline(hb *hybrid.Backend, relations, perCell int, seed int64) []MixedClassPoint {
	items, err := querygen.DeadlineStratified(querygen.WorkloadConfig{
		Relations: relations,
		PerCell:   perCell,
		Seed:      seed,
	})
	if err != nil {
		fail(err)
	}
	order := []string{querygen.ClassTight, querygen.ClassMedium, querygen.ClassLoose}
	byClass := map[string]*MixedClassPoint{}
	latencies := map[string][]float64{}
	ratios := map[string]float64{}
	for _, it := range items {
		pt := byClass[it.Class]
		if pt == nil {
			pt = &MixedClassPoint{Class: it.Class, DeadlineMs: int(it.Deadline / time.Millisecond)}
			byClass[it.Class] = pt
		}
		enc, err := core.Encode(it.Query, core.Options{Thresholds: core.DefaultThresholds(it.Query, 2)})
		if err != nil {
			fail(err)
		}
		opt, err := classical.OptimalCost(it.Query)
		if err != nil {
			fail(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), it.Deadline)
		start := time.Now()
		d, err := hb.Solve(ctx, enc, service.Params{Reads: 8, Seed: it.Seed})
		elapsed := time.Since(start)
		cancel()
		pt.Requests++
		latencies[it.Class] = append(latencies[it.Class], float64(elapsed)/float64(time.Millisecond))
		if err != nil || !d.Valid {
			continue
		}
		pt.Valid++
		ratios[it.Class] += it.Query.Cost(d.Order) / opt
	}
	var out []MixedClassPoint
	for _, class := range order {
		pt := byClass[class]
		if pt == nil {
			continue
		}
		if pt.Valid > 0 {
			pt.MeanCostRatio = ratios[class] / float64(pt.Valid)
		}
		pt.P50Ms = percentile(latencies[class], 0.50)
		pt.P99Ms = percentile(latencies[class], 0.99)
		out = append(out, *pt)
	}
	return out
}

// instance generates a workload query, its encoding, and the DP optimum.
// The paper-style integer-log parameters produce instances where greedy is
// measurably suboptimal, so the quality curve has room to move.
func instance(g querygen.GraphType, n int, seed int64) (*join.Query, *core.Encoding, float64) {
	q, err := querygen.Generate(querygen.Config{
		Relations:  n,
		Graph:      g,
		IntegerLog: true,
		MinLogCard: 1, MaxLogCard: 3,
		MinLogSel: 1, MaxLogSel: 2,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		fail(err)
	}
	enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 2)})
	if err != nil {
		fail(err)
	}
	opt, err := classical.OptimalCost(q)
	if err != nil {
		fail(err)
	}
	return q, enc, opt
}

// warmIncumbent builds the warm-start state the hybrid backend feeds its
// quantum stage: the greedy order embedded into the full QUBO space.
func warmIncumbent(q *join.Query, enc *core.Encoding) []bool {
	decision, err := enc.EncodeOrder(greedyOrder(q))
	if err != nil {
		fail(err)
	}
	full, err := enc.CompleteSlacks(decision)
	if err != nil {
		fail(err)
	}
	return full
}

func warmTabuCase(graph string, n int, seed int64) WarmStartCase {
	q, enc, _ := instance(querygen.Clique, n, seed)
	warm := warmIncumbent(q, enc)
	target := enc.QUBO.Value(warm)
	scan := func(init []bool) int {
		for _, iters := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192} {
			ts := qubo.TabuSearch{MaxIters: iters, Restarts: 1, InitialState: init}
			if sol := ts.Solve(enc.QUBO, rand.New(rand.NewSource(seed+99))); sol.Value <= target+1e-9 {
				return iters
			}
		}
		return -1
	}
	return WarmStartCase{
		Solver: "tabu", Graph: graph, Relations: n, Seed: seed,
		IncumbentEnergy: target,
		ColdBudget:      scan(nil),
		WarmBudget:      scan(warm),
	}
}

func warmSACase(graph string, n int, seed int64) WarmStartCase {
	q, enc, _ := instance(querygen.Clique, n, seed)
	warm := warmIncumbent(q, enc)
	prob, spins := toIsingProblem(enc.QUBO, warm)
	target := prob.Energy(spins)
	scan := func(init []int8) int {
		for _, sweeps := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
			sa := anneal.SimulatedAnnealer{Sweeps: sweeps, InitialState: init}
			if init != nil {
				sa.BetaMin = 2 // reverse-annealing schedule
			}
			s := sa.Anneal(prob, rand.New(rand.NewSource(seed+77)))
			if prob.Energy(s) <= target+1e-9 {
				return sweeps
			}
		}
		return -1
	}
	return WarmStartCase{
		Solver: "sa", Graph: graph, Relations: n, Seed: seed,
		IncumbentEnergy: target,
		ColdBudget:      scan(nil),
		WarmBudget:      scan(spins),
	}
}

// toIsingProblem converts the QUBO into the annealer's Ising form and the
// boolean warm state into spins (x=1 → s=+1, matching qubo.ToIsing). The
// couplings are added in sorted (I, J) order: coupling order fixes the
// float sums of energies and the annealer's trajectory, so map order
// would make every run differ.
func toIsingProblem(q *qubo.QUBO, x []bool) (*anneal.IsingProblem, []int8) {
	is := q.ToIsing()
	p := anneal.NewIsingProblem(is.N)
	copy(p.H, is.H)
	p.Const = is.Offset
	pairs := make([]qubo.Pair, 0, len(is.J))
	for pair := range is.J {
		pairs = append(pairs, pair)
	}
	slices.SortFunc(pairs, func(a, b qubo.Pair) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
	for _, pair := range pairs {
		p.AddCoupling(pair.I, pair.J, is.J[pair])
	}
	spins := make([]int8, len(x))
	for i, b := range x {
		if b {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
	return p, spins
}

func greedyOrder(q *join.Query) join.Order {
	// Reuse the service backend so the incumbent matches what the hybrid
	// classical stage would produce.
	be := service.NewGreedyBackend()
	enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 1)})
	if err != nil {
		fail(err)
	}
	d, err := be.Solve(context.Background(), enc, service.Params{})
	if err != nil {
		fail(err)
	}
	return d.Order
}

// percentile returns the q-quantile of xs (nearest-rank).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hybridbench:", err)
	os.Exit(1)
}
