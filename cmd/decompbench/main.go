// Command decompbench measures the decomposition backend against the
// classical baselines and the monolithic QUBO pipeline across 20–60
// relation chain, star, clique, and tree workloads. For each case it
// records the decomposed plan's true cost next to the greedy plan, the DP
// optimum (where the instance fits the DP limit), and the monolithic
// encoder's verdict — which above core.MaxMonolithicRelations is a hard
// rejection, the infeasibility decomposition exists to get past.
//
// Results go to a JSON file (default BENCH_decomp.json). With
// -max-dp-ratio > 0 the command exits non-zero when any decomp/DP cost
// ratio exceeds the bound, which is how CI gates decomposition quality;
// -smoke shrinks the matrix for that gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/core"
	"quantumjoin/internal/decomp"
	"quantumjoin/internal/join"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

// Case is one (graph, size, seed) comparison row.
type Case struct {
	Graph     string `json:"graph"`
	Relations int    `json:"relations"`
	Seed      int64  `json:"seed"`

	Parts      int     `json:"parts"`
	CutEdges   int     `json:"cut_edges"`
	DecompCost float64 `json:"decomp_cost"`
	DecompMs   float64 `json:"decomp_ms"`

	GreedyCost    float64 `json:"greedy_cost"`
	RatioVsGreedy float64 `json:"ratio_vs_greedy"`

	// DPCost and RatioVsDP are present only when the instance fits the DP
	// limit (classical.MaxDPRelations) and the -dp-limit budget.
	DPCost    float64 `json:"dp_cost,omitempty"`
	RatioVsDP float64 `json:"ratio_vs_dp,omitempty"`

	// MonolithicQubits is the one-shot QUBO size when the monolithic
	// encoder accepts the instance; MonolithicError is its rejection above
	// core.MaxMonolithicRelations.
	MonolithicQubits int    `json:"monolithic_qubits,omitempty"`
	MonolithicError  string `json:"monolithic_error,omitempty"`
}

// Report is the emitted JSON document. Commit is the checkout's HEAD
// ("none" outside a git work tree); Dirty reports uncommitted changes on
// top of it.
type Report struct {
	Commit         string  `json:"commit"`
	Dirty          bool    `json:"dirty"`
	GoMaxProcs     int     `json:"go_max_procs"`
	NumCPU         int     `json:"num_cpu"`
	GoVersion      string  `json:"go_version"`
	PartBudget     int     `json:"part_budget"`
	MaxDPRelations int     `json:"max_dp_relations"`
	WorstDPRatio   float64 `json:"worst_dp_ratio"`
	Cases          []Case  `json:"cases"`
}

func main() {
	out := flag.String("o", "BENCH_decomp.json", "output file")
	samples := flag.Int("samples", 2, "seeds per (graph, size) point")
	budget := flag.Int("part-budget", 10, "relations per partition part")
	dpLimit := flag.Int("dp-limit", 24, "largest instance to compute the DP optimum for (runtime guard; hard cap classical.MaxDPRelations)")
	maxDPRatio := flag.Float64("max-dp-ratio", 0, "exit non-zero when any decomp/DP cost ratio exceeds this (0 disables the gate)")
	smoke := flag.Bool("smoke", false, "shrink the matrix to a seconds-scale CI smoke run")
	flag.Parse()

	commit, dirty := gitHead()
	rep := Report{
		Commit:         commit,
		Dirty:          dirty,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		GoVersion:      runtime.Version(),
		PartBudget:     *budget,
		MaxDPRelations: classical.MaxDPRelations,
	}
	db := decomp.New(*budget)

	graphs := []struct {
		name string
		g    querygen.GraphType
	}{
		{"chain", querygen.Chain},
		{"star", querygen.Star},
		{"clique", querygen.Clique},
		{"tree", querygen.Tree},
	}
	sizes := []int{20, 24, 34, 40, 50, 60}
	if *smoke {
		graphs = graphs[:2]
		sizes = []int{20, 40}
		if *samples > 1 {
			*samples = 1
		}
	}

	for _, gr := range graphs {
		for _, n := range sizes {
			for s := 1; s <= *samples; s++ {
				c := runCase(db, gr.name, gr.g, n, int64(s), *dpLimit, *budget)
				rep.Cases = append(rep.Cases, c)
				if c.RatioVsDP > rep.WorstDPRatio {
					rep.WorstDPRatio = c.RatioVsDP
				}
				fmt.Printf("%-6s n=%2d seed=%d: parts %2d, cost ratio greedy %.3f dp %.3f (%.1fms)\n",
					c.Graph, c.Relations, c.Seed, c.Parts, c.RatioVsGreedy, c.RatioVsDP, c.DecompMs)
			}
		}
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
	fmt.Printf("wrote %s (worst decomp/dp ratio %.3f)\n", *out, rep.WorstDPRatio)

	if *maxDPRatio > 0 && rep.WorstDPRatio > *maxDPRatio {
		fail(fmt.Errorf("gate: worst decomp/dp cost ratio %.3f exceeds bound %.3f", rep.WorstDPRatio, *maxDPRatio))
	}
}

// instance generates one workload query with the paper-style integer-log
// parameters (greedy measurably suboptimal, DP gap visible).
func instance(g querygen.GraphType, n int, seed int64) *join.Query {
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
	return q
}

func runCase(db *decomp.Backend, name string, g querygen.GraphType, n int, seed int64, dpLimit, budget int) Case {
	q := instance(g, n, seed)
	c := Case{Graph: name, Relations: n, Seed: seed}

	part, err := decomp.PartitionQuery(q, budget)
	if err == nil {
		c.Parts = len(part.Parts)
		c.CutEdges = part.CutEdges
	}

	start := time.Now()
	d, err := db.SolveQuery(context.Background(), q, service.Params{Seed: seed})
	c.DecompMs = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		fail(fmt.Errorf("%s n=%d seed=%d: %w", name, n, seed, err))
	}
	if !d.Order.IsPermutation(n) {
		fail(fmt.Errorf("%s n=%d seed=%d: decomposed order is not a permutation", name, n, seed))
	}
	c.DecompCost = d.Cost

	c.GreedyCost = classical.Greedy(q).Cost
	if c.GreedyCost > 0 {
		c.RatioVsGreedy = c.DecompCost / c.GreedyCost
	}
	if n <= dpLimit && n <= classical.MaxDPRelations {
		opt, err := classical.Optimal(q)
		if err != nil {
			fail(err)
		}
		c.DPCost = opt.Cost
		if opt.Cost > 0 {
			c.RatioVsDP = c.DecompCost / opt.Cost
		}
	}

	if enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 3)}); err != nil {
		c.MonolithicError = err.Error()
	} else {
		c.MonolithicQubits = enc.NumQubits()
	}
	return c
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "decompbench:", err)
	os.Exit(1)
}
