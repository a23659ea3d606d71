// Command qjoin optimises a join ordering problem end to end on a chosen
// backend: the classical DP baseline, the simulated quantum annealer, the
// simulated gate-based QPU running QAOA, or the deadline-aware hybrid
// orchestrator that stages them behind the classical planners.
//
// Usage:
//
//	qjoin [-relations N] [-graph chain|star|cycle|clique] [-seed N]
//	      [-backend classical|milp|anneal|qaoa|hybrid] [-thresholds R]
//	      [-reads N] [-deadline D] [-hedge D]
//
// It generates a random Steinbrunn-style query, reports the QUBO encoding
// size (logical qubits), runs the backend, and prints the resulting join
// tree next to the classical optimum.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"quantumjoin"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/service"
)

func main() {
	relations := flag.Int("relations", 4, "number of relations")
	graph := flag.String("graph", "chain", "query graph type: chain, star, cycle, clique")
	seed := flag.Int64("seed", 1, "random seed")
	backend := flag.String("backend", "anneal", "backend: classical, milp, anneal, qaoa, hybrid")
	thresholds := flag.Int("thresholds", 3, "number of cardinality thresholds")
	reads := flag.Int("reads", 500, "annealing reads / QAOA shots")
	deadline := flag.Duration("deadline", 5*time.Second, "hybrid backend: end-to-end deadline")
	hedge := flag.Duration("hedge", 25*time.Millisecond, "hybrid backend: hedge delay before the quantum stage")
	queryFile := flag.String("query", "", "JSON catalog file with a user-defined query (overrides -relations/-graph)")
	workload := flag.String("workload", "", "built-in JOB-style benchmark query name, or 'list'")
	flag.Parse()

	if *workload == "list" {
		for _, name := range quantumjoin.WorkloadNames() {
			fmt.Println(name)
		}
		return
	}

	var gt quantumjoin.GraphType
	switch strings.ToLower(*graph) {
	case "chain":
		gt = quantumjoin.Chain
	case "star":
		gt = quantumjoin.Star
	case "cycle":
		gt = quantumjoin.Cycle
	case "clique":
		gt = quantumjoin.Clique
	default:
		fmt.Fprintf(os.Stderr, "unknown graph type %q\n", *graph)
		os.Exit(2)
	}

	var q *quantumjoin.Query
	var err error
	if *workload != "" {
		q, err = quantumjoin.LoadWorkloadQuery(*workload)
	} else if *queryFile != "" {
		f, ferr := os.Open(*queryFile)
		if ferr != nil {
			fail(ferr)
		}
		q, err = quantumjoin.ReadCatalog(f)
		f.Close()
	} else {
		q, err = quantumjoin.GenerateQuery(quantumjoin.GeneratorConfig{
			Relations:  *relations,
			Graph:      gt,
			IntegerLog: true,
			MinLogCard: 1, MaxLogCard: 3,
			MinLogSel: 1, MaxLogSel: 2,
		}, *seed)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("query: %d relations, %d predicates\n", q.NumRelations(), q.NumPredicates())
	for i, r := range q.Relations {
		fmt.Printf("  %-4s |%s| = %.0f\n", r.Name, r.Name, q.Relations[i].Card)
	}
	for _, p := range q.Predicates {
		fmt.Printf("  %s ⋈ %s  sel = %.2g\n", q.Relations[p.R1].Name, q.Relations[p.R2].Name, p.Sel)
	}

	optOrder, optCost, err := quantumjoin.OptimalJoinOrder(q)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nclassical optimum: %s  cost %.4g\n", q.Tree(optOrder), optCost)

	if *backend == "classical" {
		gOrder, gCost := quantumjoin.GreedyJoinOrder(q)
		fmt.Printf("greedy baseline:   %s  cost %.4g\n", q.Tree(gOrder), gCost)
		return
	}

	enc, err := quantumjoin.Encode(q, quantumjoin.EncodeOptions{
		Thresholds: quantumjoin.DefaultThresholds(q, *thresholds),
		Omega:      1,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nQUBO encoding: %d logical qubits, %d quadratic terms, bound %d (Thm 5.3)\n",
		enc.NumQubits(), enc.QUBO.NumQuadTerms(), quantumjoin.QubitUpperBound(q, *thresholds, 1))

	if *backend == "milp" {
		d, err := quantumjoin.SolveMILP(enc)
		if err != nil {
			fail(err)
		}
		fmt.Printf("milp result: %s  cost %.4g (optimal w.r.t. the threshold-approximated cost)\n",
			q.Tree(d.Order), d.Cost)
		return
	}

	if *backend == "hybrid" {
		reg := service.DefaultRegistry(service.RegistryConfig{PegasusM: 4})
		hb, err := hybrid.New(hybrid.Config{
			Registry:   reg,
			HedgeDelay: *hedge,
		})
		if err != nil {
			fail(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *deadline)
		defer cancel()
		start := time.Now()
		out, err := hb.Orchestrate(ctx, enc, service.Params{Reads: *reads, Seed: *seed})
		if err != nil {
			fail(err)
		}
		fmt.Printf("hybrid result (%v deadline): %s  cost %.4g  winner=%s  elapsed=%v\n",
			*deadline, q.Tree(out.Best.Order), q.Cost(out.Best.Order), out.Winner, time.Since(start).Round(time.Millisecond))
		for _, c := range out.Candidates {
			if c.Err != nil {
				fmt.Printf("  %-8s %-10v no result: %v\n", c.Backend, c.Elapsed.Round(time.Millisecond), c.Err)
			} else {
				fmt.Printf("  %-8s %-10v cost %.4g\n", c.Backend, c.Elapsed.Round(time.Millisecond), c.Cost)
			}
		}
		if cost := q.Cost(out.Best.Order); cost <= optCost*(1+1e-9) {
			fmt.Println("  → the hybrid orchestrator found the optimal join order")
		} else {
			fmt.Printf("  → best hybrid solution is %.2fx the optimum\n", cost/optCost)
		}
		return
	}

	var res quantumjoin.Result
	switch *backend {
	case "anneal":
		res, err = quantumjoin.SolveAnnealing(enc, quantumjoin.AnnealingOptions{
			Reads: *reads, Seed: *seed,
		})
		if err == nil {
			fmt.Printf("annealer: %d physical qubits after embedding\n", res.PhysicalQubits)
		}
	case "qaoa":
		if enc.NumQubits() > 24 {
			fail(fmt.Errorf("qaoa backend: %d qubits exceed the statevector budget; try fewer relations/thresholds", enc.NumQubits()))
		}
		res, err = quantumjoin.SolveQAOA(enc, quantumjoin.QAOAOptions{
			Shots: *reads, Seed: *seed, Noisy: true,
		})
	default:
		fail(fmt.Errorf("unknown backend %q", *backend))
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s result: %s  cost %.4g\n", *backend, q.Tree(res.Best.Order), res.Best.Cost)
	fmt.Printf("  valid samples: %.1f%%, optimal samples: %.1f%% (of %d)\n",
		100*res.ValidFraction, 100*res.OptimalFraction, res.Samples)
	if res.Best.Cost <= optCost*(1+1e-9) {
		fmt.Println("  → the quantum backend found the optimal join order")
	} else {
		fmt.Printf("  → best quantum solution is %.2fx the optimum\n", res.Best.Cost/optCost)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qjoin:", err)
	os.Exit(1)
}
