package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"quantumjoin/internal/anneal"
	"quantumjoin/internal/core"
	"quantumjoin/internal/faults"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/join"
	"quantumjoin/internal/minorembed"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/qaoa"
	"quantumjoin/internal/qsim"
	"quantumjoin/internal/qubo"
	"quantumjoin/internal/service"
	"quantumjoin/internal/topology"
)

// layers are the program's packages the traced run splits time into.
var layers = []string{"service", "core", "classical", "hybrid", "qubo", "minorembed", "anneal", "qaoa", "qsim"}

var portfolio = []string{"anneal", "tabu", "qaoa"}

// compose builds the service in-process the way cmd/qjoind does for the
// flags the workloads use (the learned scheduler and the decomp backend,
// which no workload sends to, are left out). With a recorder, every
// registered backend is wrapped in a span.
func compose(breakers bool, rec *recorder, tracer *obs.Tracer) (*service.Service, error) {
	reg := service.DefaultRegistry(service.RegistryConfig{PegasusM: 6, MaxQAOAQubits: 16})
	svc := service.New(reg, service.Config{
		CacheSize: 256, DefaultTimeout: 10 * time.Second, MaxTimeout: 60 * time.Second,
		DefaultBackend: "anneal", Shed: true, Degrade: true, Tracer: tracer,
	})
	if breakers {
		for _, name := range []string{"anneal", "qaoa", "tabu", "milp"} {
			be, _ := reg.Get(name)
			be = faults.WithRetry(be, faults.RetryPolicy{MaxAttempts: 4, Seed: 1, Metrics: svc.Metrics()})
			be = faults.WithBreaker(be, faults.BreakerConfig{ConsecutiveFailures: 5, OpenFor: 2 * time.Second})
			if err := reg.Replace(be); err != nil {
				return nil, err
			}
		}
	}
	hb, err := hybrid.New(hybrid.Config{
		Registry: reg, Metrics: svc.Metrics(), Strategy: hybrid.StrategyStaged,
		Portfolio: portfolio, HedgeDelay: 25 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if err := reg.Register(hb); err != nil {
		return nil, err
	}
	if rec != nil {
		for _, name := range reg.Names() {
			be, _ := reg.Get(name)
			if err := reg.Replace(wrapBackend(be, rec)); err != nil {
				return nil, err
			}
		}
	}
	return svc, nil
}

// qjoindTracer is cmd/qjoind's default tracer.
func qjoindTracer() *obs.Tracer { return obs.NewTracer(obs.Options{Capacity: 256, SampleRate: 0.05}) }

func closeService(svc *service.Service) { _ = svc.Close(context.Background()) }

// inproc sends requests straight into Service.Optimize / OptimizeBatch.
// With a recorder it opens the root span, keeps each request for the
// analysis, and replays stages it cannot wrap right after the answer.
type inproc struct {
	svc *service.Service
	rec *recorder
	rp  *replayer

	mu      sync.Mutex
	byReq   map[int64]*request
	qubits  []float64
	singles []single
}

// single is one traced Service.Optimize call: its time and whether the
// encoding came from the cache.
type single struct {
	d   time.Duration
	hit bool
}

func (ip *inproc) send(ctx context.Context, r *request) outcome {
	o := outcome{req: r}
	name := "optimize"
	if r.batch {
		name = "optimize.batch"
	}
	ctx, end := ip.rec.start(ctx, "service", name)
	reqs := make([]*service.Request, len(r.items))
	for i, it := range r.items {
		reqs[i] = it.serviceRequest()
	}
	resps := make([]*service.Response, len(r.items))
	errs := make([]error, len(r.items))
	start := time.Now()
	if r.batch {
		var stats service.BatchStats
		resps, errs, stats = ip.svc.OptimizeBatch(ctx, reqs, r.deadline)
		o.unique = stats.Unique
	} else {
		resps[0], errs[0] = ip.svc.Optimize(ctx, reqs[0])
	}
	o.latency = time.Since(start)
	o.serverMs = float64(o.latency) / float64(time.Millisecond)
	var first error
	for _, err := range errs {
		if err != nil && first == nil {
			first = err
		}
	}
	end(first)
	if first != nil {
		o.err = first
		return o
	}
	for i, resp := range resps {
		it := r.items[i]
		names := make([]string, len(resp.Order))
		for k, t := range resp.Order {
			names[k] = relName(it.query, t)
		}
		a, err := checkAnswer(it, names, resp.Cost, resp.Degraded)
		if err != nil {
			o.err, o.checkErr = fmt.Errorf("%s item %d (%s): %w", r.class, i, it.backend, err), true
			return o
		}
		o.answers = append(o.answers, a)
	}
	if ip.rec == nil {
		return o
	}
	ip.mu.Lock()
	ip.byReq[reqOf(ctx)] = r
	for _, resp := range resps {
		ip.qubits = append(ip.qubits, float64(resp.LogicalQubits))
	}
	if !r.batch {
		ip.singles = append(ip.singles, single{d: o.latency, hit: resps[0].CacheHit})
	}
	ip.mu.Unlock()
	for i, it := range r.items {
		ip.rp.replay(it, !r.batch && !resps[i].CacheHit)
	}
	return o
}

// replayer calls a stage's exported function again on the same input
// right after the answer, for stages inside a backend that the benchmark
// cannot wrap. Each replay is a root span of its own.
type replayer struct {
	rec *recorder
	dev *anneal.Device

	mu         sync.Mutex
	encs       map[int]*core.Encoding // by item.distinct
	evals      map[int]int            // qaoa evaluations per distinct instance
	chainBreak []float64
	physical   []float64
}

func newReplayer(rec *recorder) *replayer {
	g, _ := topology.Pegasus(6)
	dev := anneal.NewDevice(g)
	dev.BatchReads = 32 // as service.NewAnnealBackend
	return &replayer{rec: rec, dev: dev, encs: map[int]*core.Encoding{}, evals: map[int]int{}}
}

// timed runs f under a root span of its own.
func (rp *replayer) timed(layer, name string, f func(ctx context.Context) error) {
	ctx, end := rp.rec.start(context.Background(), layer, name)
	end(f(ctx))
}

func encodeOptions(cq *join.Query, spec service.EncodeSpec) core.Options {
	th := spec.Thresholds
	if th <= 0 {
		th = 3
	}
	return core.Options{Thresholds: core.DefaultThresholds(cq, th), Omega: 1, Compact: spec.Compact}
}

func (rp *replayer) encoding(it *item) (*core.Encoding, error) {
	rp.mu.Lock()
	enc, ok := rp.encs[it.distinct]
	rp.mu.Unlock()
	if ok {
		return enc, nil
	}
	cq := canonical(it.query, it.spec)
	var err error
	rp.timed("core", "encode", func(context.Context) error {
		enc, err = core.Encode(cq, encodeOptions(cq, it.spec))
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.mu.Lock()
	rp.encs[it.distinct] = enc
	rp.mu.Unlock()
	return enc, nil
}

// startParams are the QAOA optimiser's starting angles (qaoa.RunSeedsContext).
func startParams() qaoa.Params {
	p := qaoa.NewParams(1)
	p.Gammas[0], p.Betas[0] = 0.01, 3.141592653589793/8
	return p
}

func (rp *replayer) replay(it *item, miss bool) {
	rp.timed("service", "fingerprint", func(context.Context) error {
		service.Fingerprint(it.query, it.spec)
		return nil
	})
	if miss {
		cq := canonical(it.query, it.spec)
		rp.timed("core", "encode", func(context.Context) error {
			_, err := core.Encode(cq, encodeOptions(cq, it.spec))
			return err
		})
	}
	switch it.backend {
	case "anneal":
		enc, err := rp.encoding(it)
		if err != nil {
			return
		}
		var emb *minorembed.Embedding
		rp.timed("minorembed", "embed", func(ctx context.Context) error {
			emb, err = rp.dev.EmbedOnlyContext(ctx, enc.QUBO, it.seed)
			return err
		})
		if err != nil {
			return
		}
		var res *anneal.Result
		rp.timed("anneal", "sample", func(ctx context.Context) error {
			res, err = rp.dev.SampleEmbeddedContext(ctx, enc.QUBO, emb, 500, 20, it.seed)
			return err
		})
		if err != nil {
			return
		}
		rp.mu.Lock()
		rp.chainBreak = append(rp.chainBreak, res.ChainBreakFraction)
		rp.physical = append(rp.physical, float64(res.PhysicalQubits))
		rp.mu.Unlock()
		var dec core.Decoder
		var best core.Decoded
		rp.timed("core", "decode", func(context.Context) error {
			if _, ok := dec.BestValidInto(enc, res.Assignments, &best); !ok {
				return fmt.Errorf("no valid sample")
			}
			return nil
		})
	case "qaoa":
		enc, err := rp.encoding(it)
		if err != nil {
			return
		}
		params := startParams()
		ex := &qaoa.Executor{QUBO: enc.QUBO}
		defer ex.Close()
		rp.timed("qaoa", "expectation", func(context.Context) error {
			_, err := ex.Expectation(params)
			return err
		})
		circ := qaoa.BuildCircuit(enc.QUBO, params)
		state, err := qsim.NewState(enc.QUBO.N())
		if err != nil {
			return
		}
		rp.timed("qsim", "run", func(context.Context) error { return state.Run(circ) })
		rp.mu.Lock()
		_, counted := rp.evals[it.distinct]
		rp.mu.Unlock()
		if !counted {
			// The evaluation count is a property of the instance, so one
			// untimed full run per distinct instance gives it.
			rngs := []*rand.Rand{rand.New(rand.NewSource(it.seed))}
			out, err := qaoa.RunSeedsContext(context.Background(), enc.QUBO, qaoa.RunOptions{
				Layers: 1, Optimizer: qaoa.AQGD{Iterations: 8}, Shots: 256,
			}, rngs)
			if err == nil {
				rp.mu.Lock()
				rp.evals[it.distinct] = out[0].Evaluations
				rp.mu.Unlock()
			}
		}
	}
}

// layerReport collects the per-layer metrics of a traced run.
type layerReport struct {
	metrics map[string]metric
	notes   []string
}

func (lr *layerReport) set(name string, v float64, unit string) {
	lr.metrics[name] = metric{v, unit}
}

// p50 reports the median of xs scaled by scale, or 0 with a note when xs
// has too few samples for a median with ten beyond it (the metric's
// layer was not exercised enough on this workload).
func (lr *layerReport) p50(name string, xs []float64, scale float64, unit string) {
	v, err := percentile(xs, 0.5)
	switch {
	case len(xs) == 0:
		lr.notes = append(lr.notes, name+": not exercised, reported as 0")
	case err != nil:
		lr.notes = append(lr.notes, fmt.Sprintf("%s: %v, reported as 0", name, err))
		v = 0
	}
	lr.set(name, v*scale, unit)
}

func (lr *layerReport) ratio(name string, num, den float64, unit string) {
	v := 0.0
	if den > 0 {
		v = num / den
	} else {
		lr.notes = append(lr.notes, name+": not exercised, reported as 0")
	}
	lr.set(name, v, unit)
}

func durMs(s span) float64 { return float64(s.end.Sub(s.start)) / float64(time.Millisecond) }

func runTraced(w *workload, bin string, dur time.Duration) (*result, error) {
	lr := &layerReport{metrics: map[string]metric{}}
	res := &result{Correct: true, Metrics: lr.metrics}
	tally := func(outs []outcome) {
		for i := range outs {
			res.Attempted++
			if !outs[i].ok() {
				res.Failed++
				if outs[i].checkErr {
					res.Correct = false
				}
				fmt.Printf("# failed: %v\n", outs[i].err)
			}
		}
	}
	ctx := context.Background()

	// Wire pass: the time the HTTP edge adds to each request.
	srv, _, err := warmUp(w, bin, nil)
	if err != nil {
		return nil, err
	}
	cl := newWireClient(srv.base)
	outs, _ := runTimed(ctx, cl.do, w.cycle, dur/3, nil)
	cl.close()
	srv.stop()
	tally(outs)
	var edge []float64
	for i := range outs {
		if outs[i].ok() {
			edge = append(edge, float64(outs[i].latency)/float64(time.Millisecond)-outs[i].serverMs)
		}
	}
	lr.p50("service.edge_ms_p50", edge, 1, "ms")

	// Untraced and traced in-process passes over the same cycle.
	plainSvc, err := compose(w.breakers, nil, qjoindTracer())
	if err != nil {
		return nil, err
	}
	plain := &inproc{svc: plainSvc}
	tally(runOnce(ctx, plain.send, w.distinct))
	plainOuts, _ := runTimed(ctx, plain.send, w.cycle, dur/3, nil)
	closeService(plainSvc)
	tally(plainOuts)

	rec := newRecorder()
	tracedSvc, err := compose(w.breakers, rec, qjoindTracer())
	if err != nil {
		return nil, err
	}
	defer closeService(tracedSvc)
	ip := &inproc{svc: tracedSvc, byReq: map[int64]*request{}}
	tally(runOnce(ctx, (&inproc{svc: tracedSvc}).send, w.distinct))
	ip.rec, ip.rp = rec, newReplayer(rec)
	before := tracedSvc.MetricsSnapshot().Cache
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	rec.mu.Lock()
	firstSpan := len(rec.spans)
	rec.mu.Unlock()
	tracedOuts, _ := runTimed(ctx, ip.send, w.cycle, dur, nil)
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	after := tracedSvc.MetricsSnapshot().Cache
	tally(tracedOuts)
	lr.set("bench.host_steal_share", stealShare(host0, host1), "ratio")
	lr.ratio("bench.trace_overhead_ratio", meanLatency(tracedOuts), meanLatency(plainOuts), "ratio")

	rec.mu.Lock()
	spans := append([]span(nil), rec.spans[firstSpan:]...)
	outcomes := rec.outcomes
	rec.mu.Unlock()
	for i := range spans {
		if spans[i].parent >= 0 {
			spans[i].parent -= firstSpan
		}
	}
	ip.layerMetrics(lr, spans, outcomes)
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	lr.ratio("service.cache_hit_ratio", float64(hits), float64(hits+misses), "ratio")
	// Every miss inserts one entry; what the cache did not grow by was
	// evicted.
	lr.set("service.cache_evictions", float64(misses-int64(after.Size-before.Size)), "count")

	var units, items float64
	var perItem []float64
	for i := range tracedOuts {
		if o := &tracedOuts[i]; o.ok() && o.req.batch {
			units += float64(o.unique)
			items += float64(len(o.req.items))
			perItem = append(perItem, float64(o.latency)/float64(time.Microsecond)/float64(len(o.req.items)))
		}
	}
	lr.p50("service.batch_item_us_p50", perItem, 1, "us")
	lr.ratio("service.batch_unique_ratio", units, items, "ratio")

	ip.rp.report(lr)
	lr.set("core.logical_qubits_mean", mean(ip.qubits), "qubits")

	if w.name == "plan-serve" {
		if err := obsOverhead(w, lr); err != nil {
			return nil, err
		}
	} else {
		lr.set("obs.overhead_ratio", 0, "ratio")
		lr.notes = append(lr.notes, "obs.overhead_ratio: measured on plan-serve only, reported as 0")
	}
	if w.name == "hybrid-deadline" {
		if err := breakerDefect(w, lr); err != nil {
			return nil, err
		}
	} else {
		lr.set("faults.breaker_open_share", 0, "ratio")
		lr.set("hybrid.quantum_launches_per_request.default_flags", 0, "count")
		lr.notes = append(lr.notes, "faults.*: measured on hybrid-deadline only, reported as 0")
	}
	agreement, err := timerAgreement()
	if err != nil {
		return nil, err
	}
	lr.set("bench.timer_agreement_ratio", agreement, "ratio")

	for _, n := range lr.notes {
		fmt.Printf("# note %s\n", n)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no request attempted")
	}
	return res, nil
}

func meanLatency(outs []outcome) float64 {
	var xs []float64
	for i := range outs {
		if outs[i].ok() {
			xs = append(xs, float64(outs[i].latency))
		}
	}
	return mean(xs)
}

// layerMetrics derives the per-layer counters and the span-based named
// metrics from the traced pass's spans.
func (ip *inproc) layerMetrics(lr *layerReport, spans []span, outcomes map[int64]*hybrid.Outcome) {
	self := selfTimes(spans)
	for _, l := range layers {
		calls, fails := 0, 0
		busy, slf := 0.0, 0.0
		for i, s := range spans {
			if s.layer != l || s.end.IsZero() {
				continue
			}
			calls++
			busy += durMs(s)
			slf += float64(self[i]) / float64(time.Millisecond)
			if s.failed {
				fails++
			}
		}
		lr.set(l+".calls", float64(calls), "count")
		lr.set(l+".busy_ms", busy, "ms")
		lr.set(l+".self_ms", slf, "ms")
		lr.set(l+".failures", float64(fails), "count")
	}

	// The root accounting: per request tree, self times sum to the root.
	children := map[int][]int{}
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	var rootMs, unattributedMs, worstGap float64
	byName := map[string][]float64{}
	for i, s := range spans {
		if !s.end.IsZero() {
			byName[s.layer+"/"+s.name] = append(byName[s.layer+"/"+s.name], durMs(s))
		}
		if s.parent >= 0 || !strings.HasPrefix(s.name, "optimize") {
			continue
		}
		rootMs += durMs(s)
		unattributedMs += float64(self[i]) / float64(time.Millisecond)
		sum := time.Duration(0)
		stack := []int{i}
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sum += self[j]
			stack = append(stack, children[j]...)
		}
		worstGap = max(worstGap, math.Abs(float64(sum-s.end.Sub(s.start))/float64(time.Millisecond)))
	}
	fmt.Printf("# self-time check: largest |sum of self times - root| over %d request trees = %.6f ms\n", len(ip.byReq), worstGap)
	lr.ratio("service.unattributed_share", unattributedMs, rootMs, "ratio")

	lr.p50("service.fingerprint_us_p50", byName["service/fingerprint"], 1000, "us")
	lr.p50("core.encode_ms_p50", byName["core/encode"], 1, "ms")
	lr.p50("core.decode_us_p50", byName["core/decode"], 1000, "us")
	lr.p50("classical.dp_ms_p50", byName["classical/dp"], 1, "ms")
	lr.p50("classical.greedy_us_p50", byName["classical/greedy"], 1000, "us")
	lr.p50("qubo.tabu_ms_p50", byName["qubo/tabu"], 1, "ms")
	lr.p50("qaoa.solve_ms_p50", byName["qaoa/qaoa"], 1, "ms")
	lr.p50("qaoa.expectation_ms_p50", byName["qaoa/expectation"], 1, "ms")
	lr.p50("qsim.run_ms_p50", byName["qsim/run"], 1, "ms")
	lr.p50("minorembed.embed_ms_p50", byName["minorembed/embed"], 1, "ms")
	lr.p50("anneal.sample_ms_p50", byName["anneal/sample"], 1, "ms")

	// Warm and cold Service.Optimize, from the single-request roots.
	var warm, cold []float64
	hybridReqs, launches, launchedReqs, optimalAtLaunch := 0, 0, 0, 0
	var overrun []float64
	use := map[string][]float64{}
	for i, s := range spans {
		if s.parent >= 0 || s.name != "optimize" {
			continue
		}
		r := ip.byReq[s.req]
		if r == nil {
			continue
		}
		if r.items[0].backend == "hybrid" {
			hybridReqs++
			overrun = append(overrun, durMs(s)-float64(r.deadline)/float64(time.Millisecond))
			n := 0
			for _, c := range children[i] {
				if spans[c].layer != "hybrid" {
					continue
				}
				class, _, _ := strings.Cut(r.class, "-")
				use[class] = append(use[class], durMs(spans[c])/(float64(r.deadline)/float64(time.Millisecond)))
				for _, q := range children[c] {
					if spans[q].layer != "classical" {
						n++
					}
				}
			}
			launches += n
			if out := outcomes[s.req]; out != nil && n > 0 {
				launchedReqs++
				for _, c := range out.Candidates {
					if c.Backend == "dp" && c.Decoded != nil && c.Cost <= r.items[0].optimum*(1+costTol) {
						optimalAtLaunch++
					}
				}
			}
		}
	}
	for _, o := range ip.singles {
		if o.hit {
			warm = append(warm, float64(o.d)/float64(time.Microsecond))
		} else {
			cold = append(cold, float64(o.d)/float64(time.Millisecond))
		}
	}
	lr.p50("service.optimize_warm_us_p50", warm, 1, "us")
	lr.p50("service.optimize_cold_ms_p50", cold, 1, "ms")

	for _, class := range []string{"tight", "medium", "loose"} {
		lr.p50("hybrid.deadline_use_p50."+class, use[class], 1, "ratio")
	}
	if v, err := percentile(overrun, 0.9); err == nil {
		lr.set("hybrid.overrun_ms_p90", v, "ms")
	} else {
		lr.set("hybrid.overrun_ms_p90", 0, "ms")
		lr.notes = append(lr.notes, fmt.Sprintf("hybrid.overrun_ms_p90: %v, reported as 0", err))
	}
	lr.ratio("hybrid.optimal_before_launch_share", float64(optimalAtLaunch), float64(launchedReqs), "ratio")
	lr.ratio("hybrid.quantum_launches_per_request", float64(launches), float64(hybridReqs), "count")
	candErrs, quantumWins, answered := 0, 0, 0
	for req, out := range outcomes {
		if ip.byReq[req] == nil {
			continue // a warm-up request
		}
		answered++
		for _, c := range out.Candidates {
			if c.Err != nil {
				candErrs++
			}
		}
		for _, p := range portfolio {
			if out.Winner == p {
				quantumWins++
			}
		}
	}
	lr.ratio("hybrid.candidate_errors_per_request", float64(candErrs), float64(answered), "count")
	lr.ratio("hybrid.quantum_win_ratio", float64(quantumWins), float64(answered), "ratio")
}

// report adds the replay-derived anneal and qaoa metrics.
func (rp *replayer) report(lr *layerReport) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	lr.set("anneal.chain_break_fraction_mean", mean(rp.chainBreak), "ratio")
	lr.set("anneal.physical_qubits_mean", mean(rp.physical), "qubits")
	var evals []float64
	for _, e := range rp.evals {
		evals = append(evals, float64(e))
	}
	lr.set("qaoa.evaluations_per_solve", mean(evals), "count")
}

// obsOverhead times warm Service.Optimize on the workload's cache-hit
// requests with cmd/qjoind's tracer at sample rate 1 and with no tracer,
// alternating the two services, and reports the ratio of the medians.
func obsOverhead(w *workload, lr *layerReport) error {
	var reqs []*service.Request
	for _, r := range w.cycle {
		if strings.HasPrefix(r.class, "dp-hit") && len(reqs) < 2*dpPoolSize {
			reqs = append(reqs, r.items[0].serviceRequest())
		}
	}
	plain, err := compose(true, nil, nil)
	if err != nil {
		return err
	}
	defer closeService(plain)
	full, err := compose(true, nil, obs.NewTracer(obs.Options{Capacity: 256, SampleRate: 1}))
	if err != nil {
		return err
	}
	defer closeService(full)
	ctx := context.Background()
	var tPlain, tFull []float64
	for round := 0; round < 8; round++ {
		for _, req := range reqs {
			for k, svc := range []*service.Service{plain, full} {
				start := time.Now()
				if _, err := svc.Optimize(ctx, req); err != nil {
					return fmt.Errorf("obs overhead: %w", err)
				}
				if round == 0 {
					continue // warm-up
				}
				if d := float64(time.Since(start)); k == 0 {
					tPlain = append(tPlain, d)
				} else {
					tFull = append(tFull, d)
				}
			}
		}
	}
	lr.ratio("obs.overhead_ratio", median(tFull), median(tPlain), "ratio")
	return nil
}

// breakerDefect sends a short untimed pass of the hybrid requests to a
// service composed with cmd/qjoind's default flags, circuit breakers
// included, and reports how much of the portfolio stood open and how many
// quantum solves each request launched. The timed hybrid-deadline runs
// turn the breakers off; this pass shows what that hides.
func breakerDefect(w *workload, lr *layerReport) error {
	rec := newRecorder()
	svc, err := compose(true, rec, qjoindTracer())
	if err != nil {
		return err
	}
	defer closeService(svc)
	ip := &inproc{svc: svc}
	open, n := 0, 0
	launches := 0
	for _, r := range w.cycle {
		if n == 24 {
			break
		}
		for _, name := range portfolio {
			if svc.Health()[name].State == service.HealthOpen {
				open++
			}
		}
		rec.mu.Lock()
		first := len(rec.spans)
		rec.mu.Unlock()
		if o := ip.send(context.Background(), r); !o.ok() {
			return fmt.Errorf("default-flags pass: %w", o.err)
		}
		rec.mu.Lock()
		for _, s := range rec.spans[first:] {
			if s.parent >= 0 && rec.spans[s.parent].layer == "hybrid" && s.layer != "classical" {
				launches++
			}
		}
		rec.mu.Unlock()
		n++
	}
	lr.set("faults.breaker_open_share", float64(open)/float64(n*len(portfolio)), "ratio")
	lr.set("hybrid.quantum_launches_per_request.default_flags", float64(launches)/float64(n), "count")
	return nil
}

// timerAgreement times qaoa.Executor.Expectation at 16 qubits with this
// package's per-call timer and with testing.Benchmark, and returns the
// ratio of the per-call median to testing's ns/op.
func timerAgreement() (float64, error) {
	rng := rand.New(rand.NewSource(16))
	q := qubo.New(16)
	for i := 0; i < 16; i++ {
		q.AddLinear(i, rng.Float64()-0.5)
		for j := i + 1; j < 16; j++ {
			q.AddQuad(i, j, rng.Float64()-0.5)
		}
	}
	ex := &qaoa.Executor{QUBO: q}
	defer ex.Close()
	params := startParams()
	if _, err := ex.Expectation(params); err != nil {
		return 0, err
	}
	var own []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := ex.Expectation(params); err != nil {
			return 0, err
		}
		own = append(own, float64(time.Since(start)))
	}
	var benchErr error
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ex.Expectation(params); err != nil {
				benchErr = err
			}
		}
	})
	if benchErr != nil {
		return 0, benchErr
	}
	if br.N == 0 {
		return 0, fmt.Errorf("testing.Benchmark ran no iterations")
	}
	return median(own) / float64(br.NsPerOp()), nil
}
