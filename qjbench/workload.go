package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/join"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

// item is one query of a wire request, with the facts the checker needs
// computed before the server starts.
type item struct {
	query   *join.Query
	backend string
	spec    service.EncodeSpec
	seed    int64
	timeout time.Duration
	optimum float64 // classical.Optimal cost
	// greedy is classical.Greedy's cost on the canonical labelling the
	// service solves (service.Fingerprint), the incumbent the staged
	// hybrid strategy promises never to lose to. Greedy breaks ties by
	// relation index, so on the request's own labelling it can differ:
	// labelGreedy keeps that cost for the report.
	greedy      float64
	labelGreedy float64
	distinct    int // index of the distinct query this item relabels
}

// request is one wire request: a single /v1/optimize body or a
// /v1/optimize/batch envelope, which counts as one request.
type request struct {
	class    string
	batch    bool
	items    []*item
	deadline time.Duration // the limit deadline_met_ratio judges against
	body     []byte
}

// workload is one traffic mix: the qjoind flags it needs and one cycle of
// its seed-generated request multiset. Every workload runs one closed
// loop over one connection, warm-up included: with two, the CPU-bound
// solves of concurrent requests contend for the two vCPUs, so overruns
// grow, host steal stalls the server, and a 25 ms hybrid request once
// expired in qjoind's queue (504).
// Each timed run covers whole cycles.
type workload struct {
	name     string
	setups   int  // qjoind execs and warm-ups per run; setup_s is their median
	breakers bool // qjoind's default circuit breakers stay on
	// replays: runs of the same code and seed give the same plans (the
	// hybrid workload's plans depend on what finishes before a deadline)
	replays  bool
	flags    []string
	cycle    []*request
	distinct []*request // each distinct request once: the warm-up pass
}

// genConfig is the paper-style integer-log generator setting (§4.1) used
// by the deadline-stratified workload, so every workload draws from the
// same parameter family.
func genConfig(n int, g querygen.GraphType) querygen.Config {
	return querygen.Config{
		Relations: n, Graph: g, IntegerLog: true,
		MinLogCard: 1, MaxLogCard: 3, MinLogSel: 1, MaxLogSel: 2,
	}
}

// relabel returns q with its relations listed in a random order (and the
// predicates rewritten to match). The fingerprint is permutation
// invariant, so a relabelled query hits the cache entry of the original.
func relabel(q *join.Query, rng *rand.Rand) *join.Query {
	perm := rng.Perm(len(q.Relations)) // perm[new] = old
	inv := make([]int, len(perm))
	out := &join.Query{Relations: make([]join.Relation, len(perm))}
	for nw, old := range perm {
		out.Relations[nw] = join.Relation{Name: relName(q, old), Card: q.Relations[old].Card}
		inv[old] = nw
	}
	for _, p := range q.Predicates {
		out.Predicates = append(out.Predicates, join.Predicate{R1: inv[p.R1], R2: inv[p.R2], Sel: p.Sel})
	}
	return out
}

var sizeShapes = []querygen.GraphType{querygen.Chain, querygen.Star, querygen.Cycle, querygen.Tree}

// genQueries draws count queries whose relation counts cycle through
// [lo, hi] and whose shapes cycle through chain, star, cycle and tree.
func genQueries(rng *rand.Rand, count, lo, hi int) ([]*join.Query, error) {
	out := make([]*join.Query, count)
	for i := range out {
		n := lo + i%(hi-lo+1)
		q, err := querygen.Generate(genConfig(n, sizeShapes[(i/(hi-lo+1))%len(sizeShapes)]), rng)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// Plan-serve mix, per cycle. The misses and the hot set (dp pool plus
// greedy pool) together exceed the encoding cache's 256 entries by more
// than the hot set, so under LRU every miss shape is evicted before its
// next use, and misses stay misses across cycles, while a greedy shape
// sits in two of every five envelopes and stays cached.
const (
	dpPoolSize     = 10 // two shapes at each of 10..14 relations
	greedyPoolSize = 64
	missShapes     = 240
	batchPerCycle  = 20
	batchItems     = 32
	planServeMs    = 1000
)

// Hybrid-deadline mix: every DeadlineStratified item at 8 and at 20
// relations, the 8-relation ones twice per cycle (relabelled apart). The
// medium class then holds twice as many 8-relation requests (~105-110 ms)
// as 20-relation ones (~101 ms), so its median, which is the workload's
// p50, sits inside the 8-relation group rather than on the border
// between the two sizes.
var hybridSizes = []struct{ relations, copies int }{{8, 2}, {20, 1}}

// quantumClass is one request class of the quantum-solve workload on the
// paper's three-relation instance (compact encoding).
type quantumClass struct {
	name       string
	backend    string
	predicates int
	thresholds int
	copies     int   // requests per cycle
	seed       int64 // sampler seed, the same for every workload seed
}

// Medians on a 2-vCPU host: qaoa-12q ~37 ms, anneal-21q ~165 ms. With
// 20:5 shares p50 falls at qaoa-12q's 62nd percentile and p90 at
// anneal-21q's median, each far from the border between the classes:
// under CPU contention a class's tail grows much more than its middle.
// qaoa at 15 qubits is left out: its statevector kernels fork across both
// vCPUs for every gate, so its wall time follows host steal.
var quantumClasses = []quantumClass{
	{"qaoa-12q", "qaoa", 0, 1, 20, 1},
	{"anneal-21q", "anneal", 2, 3, 5, 3},
}

const quantumTimeoutMs = 10000

// buildWorkload generates the named workload from seed. The same seed
// gives byte-identical request bodies.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	var err error
	switch name {
	case "plan-serve":
		w, err = planServe(rng)
	case "hybrid-deadline":
		w, err = hybridDeadline(rng, seed)
	case "quantum-solve":
		w, err = quantumSolve(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (have plan-serve, hybrid-deadline, quantum-solve)", name)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	w.name = name
	if err := w.finish(rng); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return w, nil
}

func planServe(rng *rand.Rand) (*workload, error) {
	w := &workload{
		setups:   5,
		breakers: true,
		replays:  true,
		flags:    []string{"-log-level", "warn"},
	}
	dpPool, err := genQueries(rng, dpPoolSize, 10, 14)
	if err != nil {
		return nil, err
	}
	greedyPool, err := genQueries(rng, greedyPoolSize, 10, 14)
	if err != nil {
		return nil, err
	}
	misses, err := genQueries(rng, missShapes, 10, 12)
	if err != nil {
		return nil, err
	}
	single := func(class string, q *join.Query, distinct int) *request {
		return &request{class: class, deadline: planServeMs * time.Millisecond, items: []*item{{
			query: q, backend: "dp", timeout: planServeMs * time.Millisecond, distinct: distinct,
		}}}
	}
	// 30 hits per shape below 14 relations and 60 at 14: the 14-relation
	// hits (~5 ms) are a fifth of all requests, so p90 falls in their
	// middle, and p50 falls inside the 2.5-4.5 ms band of the misses, the
	// 13-relation hits and the envelopes.
	for k, q := range dpPool {
		copies := 30
		if q.NumRelations() == 14 {
			copies = 60
		}
		for c := 0; c < copies; c++ {
			w.cycle = append(w.cycle, single(fmt.Sprintf("dp-hit-%d", q.NumRelations()), relabel(q, rng), k))
		}
	}
	for i, q := range misses {
		w.cycle = append(w.cycle, single(fmt.Sprintf("dp-miss-%d", q.NumRelations()), q, dpPoolSize+i))
	}
	for b := 0; b < batchPerCycle; b++ {
		r := &request{class: "greedy-batch", batch: true, deadline: planServeMs * time.Millisecond}
		for j := 0; j < batchItems; j++ {
			k := rng.Intn(greedyPoolSize)
			r.items = append(r.items, &item{
				query: relabel(greedyPool[k], rng), backend: "greedy",
				distinct: dpPoolSize + missShapes + k,
			})
		}
		w.cycle = append(w.cycle, r)
	}
	return w, nil
}

func hybridDeadline(rng *rand.Rand, seed int64) (*workload, error) {
	w := &workload{
		// Each warm-up waits out every deadline once, about 10 s.
		setups: 3,
		// Breakers off: with them on, the staged strategy's blown
		// deadlines trip every quantum backend within a few requests and
		// the workload measures breaker timers (see the trace run's
		// faults.breaker_open_share).
		flags: []string{"-log-level", "warn", "-resilient-backends", ""},
	}
	distinct := 0
	for _, size := range hybridSizes {
		items, err := querygen.DeadlineStratified(querygen.WorkloadConfig{Relations: size.relations, PerCell: 1, Seed: seed})
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			for c := 0; c < size.copies; c++ {
				w.cycle = append(w.cycle, &request{class: fmt.Sprintf("%s-%d", it.Class, size.relations), deadline: it.Deadline, items: []*item{{
					query: relabel(it.Query, rng), backend: "hybrid", seed: it.Seed,
					timeout: it.Deadline, distinct: distinct,
				}}})
			}
			distinct++
		}
	}
	return w, nil
}

func quantumSolve(rng *rand.Rand) (*workload, error) {
	w := &workload{setups: 9, breakers: true, replays: true, flags: []string{"-log-level", "warn"}}
	for k, qc := range quantumClasses {
		q, err := querygen.PaperInstance(qc.predicates)
		if err != nil {
			return nil, err
		}
		// The sampler seed is fixed per class: the embedding heuristic's
		// time depends on its seed, so a drawn seed would make each run
		// measure its own draw. The workload seed only relabels.
		for c := 0; c < qc.copies; c++ {
			w.cycle = append(w.cycle, &request{class: qc.name, deadline: quantumTimeoutMs * time.Millisecond, items: []*item{{
				query: relabel(q, rng), backend: qc.backend, seed: qc.seed, distinct: k,
				spec:    service.EncodeSpec{Thresholds: qc.thresholds, Compact: true},
				timeout: quantumTimeoutMs * time.Millisecond,
			}}})
		}
	}
	return w, nil
}

// finish shuffles the cycle, renders the wire bodies, picks each distinct
// request's first occurrence for the warm-up pass, and computes the
// optimum and greedy cost of every distinct query.
func (w *workload) finish(rng *rand.Rand) error {
	rng.Shuffle(len(w.cycle), func(i, j int) { w.cycle[i], w.cycle[j] = w.cycle[j], w.cycle[i] })
	seen := map[int]bool{}
	for _, r := range w.cycle {
		body, err := r.render()
		if err != nil {
			return err
		}
		r.body = body
		fresh := false
		for _, it := range r.items {
			if !seen[it.distinct] {
				seen[it.distinct] = true
				fresh = true
			}
		}
		if fresh {
			w.distinct = append(w.distinct, r)
		}
	}
	return w.computeBounds()
}

// computeBounds fills optimum and greedy for every item, solving each
// distinct query once (on two goroutines: 20-relation DP takes a third of
// a second).
func (w *workload) computeBounds() error {
	byDistinct := map[int][]*item{}
	var keys []int
	for _, r := range w.cycle {
		for _, it := range r.items {
			if _, ok := byDistinct[it.distinct]; !ok {
				keys = append(keys, it.distinct)
			}
			byDistinct[it.distinct] = append(byDistinct[it.distinct], it)
		}
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				its := byDistinct[k]
				opt, err := classical.Optimal(its[0].query)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("optimum of query %d: %w", k, err)
				}
				mu.Unlock()
				for _, it := range its {
					it.optimum = opt.Cost
					it.greedy = classical.Greedy(canonical(it.query, it.spec)).Cost
					it.labelGreedy = classical.Greedy(it.query).Cost
				}
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return firstErr
}

// canonical relabels q the way the service does before solving: original
// relation i moves to position perm[i] of service.Fingerprint, and the
// predicates are sorted by endpoints, then by selectivity bits. The
// predicate order matters: it is the multiplication order of SetCard, and
// greedy's choice between near-equal candidates follows the rounding.
func canonical(q *join.Query, spec service.EncodeSpec) *join.Query {
	_, perm := service.Fingerprint(q, spec)
	cq := &join.Query{Relations: make([]join.Relation, len(perm))}
	for i, r := range q.Relations {
		cq.Relations[perm[i]] = r
	}
	for _, p := range q.Predicates {
		a, b := perm[p.R1], perm[p.R2]
		if a > b {
			a, b = b, a
		}
		cq.Predicates = append(cq.Predicates, join.Predicate{R1: a, R2: b, Sel: p.Sel})
	}
	slices.SortFunc(cq.Predicates, func(x, y join.Predicate) int {
		if c := cmp.Compare(x.R1, y.R1); c != 0 {
			return c
		}
		if c := cmp.Compare(x.R2, y.R2); c != 0 {
			return c
		}
		return cmp.Compare(math.Float64bits(x.Sel), math.Float64bits(y.Sel))
	})
	return cq
}

// optimizeRequest renders one item as the service's wire type.
func (it *item) optimizeRequest() (service.OptimizeRequest, error) {
	var buf, compact bytes.Buffer
	if err := it.query.WriteCatalog(&buf); err != nil {
		return service.OptimizeRequest{}, err
	}
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		return service.OptimizeRequest{}, err
	}
	return service.OptimizeRequest{
		Backend:    it.backend,
		Query:      json.RawMessage(compact.Bytes()),
		Thresholds: it.spec.Thresholds,
		Compact:    it.spec.Compact,
		Seed:       it.seed,
		TimeoutMs:  int(it.timeout / time.Millisecond),
		Lean:       true,
	}, nil
}

func (r *request) render() ([]byte, error) {
	if !r.batch {
		body, err := r.items[0].optimizeRequest()
		if err != nil {
			return nil, err
		}
		return json.Marshal(body)
	}
	env := service.BatchRequest{TimeoutMs: int(r.deadline / time.Millisecond)}
	for _, it := range r.items {
		body, err := it.optimizeRequest()
		if err != nil {
			return nil, err
		}
		env.Requests = append(env.Requests, body)
	}
	return json.Marshal(env)
}

func (r *request) path() string {
	if r.batch {
		return "/v1/optimize/batch"
	}
	return "/v1/optimize"
}

// serviceRequest is the in-process equivalent of the item's wire body,
// for the traced run.
func (it *item) serviceRequest() *service.Request {
	return &service.Request{
		Query:   it.query,
		Backend: it.backend,
		Spec:    it.spec,
		Params:  service.Params{Seed: it.seed},
		Timeout: it.timeout,
		Lean:    true,
	}
}
