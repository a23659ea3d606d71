// Command qjoind serves join order optimisation over HTTP/JSON: queries
// are prepared for QUBO encoding (with an LRU encoding cache keyed by a
// canonical hash of the query graph; an entry's QUBO is built on first
// use by a backend that reads it) and solved on a registered backend —
// the simulated quantum annealer, tabu search, QAOA simulation, the exact
// MILP solver, the classical DP/greedy baselines, the hybrid orchestrator
// (which races or stages the other backends under the request deadline
// and arbitrates by true plan cost), or the decomposition backend (which
// partitions join graphs past the monolithic encoding limit into parts,
// plans each part by exact DP, and stitches the per-part orders
// classically) — under bounded concurrency and per-request deadlines.
//
// Endpoints:
//
//	POST /v1/optimize       — optimise one query (see README for the schema)
//	POST /v1/optimize/batch — optimise many queries in one envelope, with
//	                          deduplication and batched backend solves
//	GET  /v1/backends   — list registered backends
//	GET  /v1/cluster    — cluster membership, peer health, routing counters
//	                      (only with -self/-peers)
//	GET  /metrics       — Prometheus text exposition of all counters,
//	                      latency histograms, cache and breaker state
//	GET  /debug/traces  — recent request traces (?id=, ?format=flame)
//	GET  /debug/pprof/* — runtime profiles (only with -pprof)
//	GET  /healthz       — liveness probe with per-backend breaker health
//
// Every request is tagged with a request ID (inbound X-Request-ID or
// generated), echoed in the response header, stamped on every structured
// log line, and usable as /debug/traces?id= to pull the request's trace.
// The -trace-sample rate bounds tracing overhead; errored and slow
// requests are always traced regardless of the rate.
//
// The daemon treats solver backends as unreliable co-processors (the
// paper's §8 co-design argument): each backend named by -resilient-backends
// is wrapped with deadline-budgeted retries and a circuit breaker, the
// bounded request queue sheds load with 503 + Retry-After when saturated
// (-shed), and a failed solve degrades to the classical planner instead of
// erroring (-degrade), so /v1/optimize always answers with a valid join
// order. The -chaos-* flags inject a deterministic unreliable-QPU model
// (rejections, aborts, result corruption, queue waits, calibration
// blackouts) underneath the resilience stack for drills and benchmarks.
//
// With -self and -peers the daemon joins a static fleet: every node
// derives the same consistent-hash ring from the peer list, keyed by the
// permutation-invariant query fingerprint, so any node can forward a
// request to the node owning its encoding-cache entry (at most
// -forward-hops hops; X-Served-By names the solver). Concurrent identical
// requests coalesce into one solve, batch envelopes are split across
// owners, and peer health is polled over /healthz so traffic routes
// around down nodes.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops,
// queued requests drain, and in-flight solves finish (bounded by the
// shutdown grace period).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"quantumjoin/internal/cluster"
	"quantumjoin/internal/decomp"
	"quantumjoin/internal/faults"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/noise"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/service"
)

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "request queue depth (0 = 2x workers)")
	cacheSize := flag.Int("cache", 256, "encoding cache capacity (entries)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
	defaultBackend := flag.String("default-backend", "anneal", "backend used when a request names none")
	pegasusM := flag.Int("pegasus-m", 6, "annealer hardware graph size (16 = full Advantage)")
	qaoaQubits := flag.Int("qaoa-qubits", 16, "statevector budget of the qaoa backend")
	hybridPortfolio := flag.String("hybrid-portfolio", "anneal,tabu,qaoa", "default hybrid portfolio (comma-separated backend names)")
	hybridHedge := flag.Duration("hybrid-hedge", 25*time.Millisecond, "default hedge delay before the hybrid quantum stage")
	decompBudget := flag.Int("decomp-part-budget", 12, "decomp: default relations per partition part (requests override with part_budget)")
	grace := flag.Duration("grace", 30*time.Second, "graceful shutdown budget")
	shed := flag.Bool("shed", true, "reject with 503 + Retry-After when the request queue is full (false = block until deadline)")
	degrade := flag.Bool("degrade", true, "answer with the classical planner (degraded: true) when the selected backend fails")
	resilient := flag.String("resilient-backends", "anneal,qaoa,tabu,milp", "backends wrapped with retries and a circuit breaker (comma-separated, empty disables)")
	retries := flag.Int("retries", 4, "max solve attempts per request on transient backend faults")
	breakerFailures := flag.Int("breaker-failures", 5, "consecutive failures that trip a backend's circuit breaker")
	breakerOpen := flag.Duration("breaker-open", 2*time.Second, "how long a tripped breaker fast-fails before probing the backend")
	chaosRate := flag.Float64("chaos-rate", 0, "inject faults: total per-attempt fault probability, split across rejections, aborts, and corruption (0 disables)")
	chaosQueue := flag.Duration("chaos-queue", 0, "inject faults: mean simulated QPU queue wait per job")
	chaosCalibPeriod := flag.Duration("chaos-calib-period", 0, "inject faults: recalibration blackout period (0 disables)")
	chaosCalibWindow := flag.Duration("chaos-calib-window", 0, "inject faults: blackout length at the start of each period")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the deterministic fault model")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/* and record per-span allocation/CPU deltas")
	traceSample := flag.Float64("trace-sample", 0.05, "fraction of healthy requests to trace (0..1); errors and slow requests are always traced")
	traceCapacity := flag.Int("trace-capacity", 256, "stored trace ring size for /debug/traces")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	self := flag.String("self", "", "cluster: this node's base URL as listed in -peers (empty disables clustering)")
	peers := flag.String("peers", "", "cluster: comma-separated base URLs of every cluster member, including -self")
	vnodes := flag.Int("vnodes", cluster.DefaultVirtualNodes, "cluster: virtual nodes per member on the consistent-hash ring")
	forwardHops := flag.Int("forward-hops", 1, "cluster: max forwards per request before it must be served locally")
	gossipInterval := flag.Duration("gossip-interval", 2*time.Second, "cluster: peer health polling period")
	peerDownAfter := flag.Int("peer-down-after", 2, "cluster: consecutive probe/forward failures that mark a peer down")
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "cluster: replica ownership factor R — each fingerprint gets a primary plus R-1 warm secondaries (1 disables replication)")
	hedgeAfter := flag.Duration("hedge-after", cluster.DefaultHedgeAfter, "cluster: wait this long on a replica before hedging the forward to the next one (negative disables timed hedging)")
	drainTimeout := flag.Duration("drain-timeout", 20*time.Second, "cluster: bound on waiting for in-flight solves after SIGTERM or /v1/drain before the listener closes")
	chaosNetDrop := flag.Float64("chaos-net-drop", 0, "inject network faults: probability a forward hangs until its context expires")
	chaosNetReset := flag.Float64("chaos-net-reset", 0, "inject network faults: probability a forward fails immediately with a reset")
	chaosNetLatency := flag.Duration("chaos-net-latency", 0, "inject network faults: mean added latency per forward (exponential)")
	chaosNetPartition := flag.String("chaos-net-partition", "", `inject network faults: one-way cuts as "from->to" pairs, comma-separated (empty from = any sender)`)
	chaosNetSeed := flag.Int64("chaos-net-seed", 1, "seed for the deterministic network fault model")
	flag.Parse()

	if *traceSample < 0 || *traceSample > 1 {
		usageError(fmt.Sprintf("-trace-sample %v out of range [0, 1]", *traceSample))
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		usageError(err.Error())
	}
	tracer := obs.NewTracer(obs.Options{
		Capacity:   *traceCapacity,
		SampleRate: *traceSample,
		Profile:    *pprofOn,
	})

	reg := service.DefaultRegistry(service.RegistryConfig{
		PegasusM:      *pegasusM,
		MaxQAOAQubits: *qaoaQubits,
	})
	svc := service.New(reg, service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DefaultBackend: *defaultBackend,
		Shed:           *shed,
		Degrade:        *degrade,
		Tracer:         tracer,
		Logger:         logger,
		Pprof:          *pprofOn,
	})

	// Resilience stack, inner to outer: fault injection (chaos drills
	// only) → deadline-budgeted retries → circuit breaker. The breaker is
	// outermost so it judges post-retry outcomes, and the wrapped backend
	// keeps its registry name — clients and the hybrid portfolio are none
	// the wiser.
	chaos := *chaosRate > 0 || *chaosQueue > 0 || (*chaosCalibPeriod > 0 && *chaosCalibWindow > 0)
	for _, name := range splitList(*resilient) {
		be, ok := reg.Get(name)
		if !ok {
			fail(fmt.Errorf("qjoind: -resilient-backends names unknown backend %q", name))
		}
		if chaos {
			be = faults.Inject(be, faults.InjectorConfig{
				RejectProb:        *chaosRate / 3,
				AbortProb:         *chaosRate / 3,
				CorruptProb:       *chaosRate / 3,
				Access:            noise.AccessModel{QueueWaitNs: float64(chaosQueue.Nanoseconds())},
				CalibrationPeriod: *chaosCalibPeriod,
				CalibrationWindow: *chaosCalibWindow,
				Seed:              *chaosSeed,
				Metrics:           svc.Metrics(),
			})
		}
		be = faults.WithRetry(be, faults.RetryPolicy{
			MaxAttempts: *retries,
			Seed:        *chaosSeed,
			Metrics:     svc.Metrics(),
		})
		be = faults.WithBreaker(be, faults.BreakerConfig{
			ConsecutiveFailures: *breakerFailures,
			OpenFor:             *breakerOpen,
		})
		if err := reg.Replace(be); err != nil {
			fail(fmt.Errorf("qjoind: %w", err))
		}
	}
	if chaos {
		logger.Warn("CHAOS MODE: injecting faults",
			"rate", *chaosRate, "queue", chaosQueue.String(),
			"seed", *chaosSeed, "backends", *resilient)
	}

	// The hybrid orchestrator sits on top of the registry it stages, so it
	// registers after the service wires up metrics.
	hb, err := hybrid.New(hybrid.Config{
		Registry:   reg,
		Metrics:    svc.Metrics(),
		Portfolio:  splitList(*hybridPortfolio),
		HedgeDelay: *hybridHedge,
	})
	if err != nil {
		fail(fmt.Errorf("qjoind: %w", err))
	}
	if err := reg.Register(hb); err != nil {
		fail(fmt.Errorf("qjoind: %w", err))
	}

	// The decomposition backend scales past the monolithic encoding limit:
	// it partitions the join graph into parts of at most the part budget,
	// plans each part by exact DP, and stitches the per-part orders
	// classically. It builds no QUBO.
	if err := reg.Register(decomp.New(*decompBudget)); err != nil {
		fail(fmt.Errorf("qjoind: %w", err))
	}

	// Clustering wraps the service handler with the consistent-hash
	// forwarding proxy: requests whose WL-hash key another node owns are
	// forwarded there (sticky encoding caches), identical concurrent
	// requests coalesce into one solve, and batch envelopes are split by
	// owner. A single-node deployment skips the wrapper entirely.
	handler := http.Handler(service.NewHandler(svc))
	var node *cluster.Node
	if *self != "" {
		// An optional deterministic fault layer under the cluster
		// transport: drops hang until the forward's context expires (so
		// hedging gets exercised), resets fail fast, partitions cut named
		// sender->receiver pairs one way.
		var client *http.Client
		netChaos := *chaosNetDrop > 0 || *chaosNetReset > 0 || *chaosNetLatency > 0 || *chaosNetPartition != ""
		if netChaos {
			parts, err := faults.ParsePartitions(*chaosNetPartition)
			if err != nil {
				usageError(err.Error())
			}
			client = &http.Client{Transport: faults.NewFaultyTransport(nil, faults.NetworkConfig{
				DropProb:   *chaosNetDrop,
				ResetProb:  *chaosNetReset,
				Latency:    *chaosNetLatency,
				Partitions: parts,
				Self:       *self,
				Seed:       *chaosNetSeed,
			})}
			logger.Warn("NETWORK CHAOS: injecting interconnect faults",
				"drop", *chaosNetDrop, "reset", *chaosNetReset,
				"latency", chaosNetLatency.String(), "partitions", *chaosNetPartition,
				"seed", *chaosNetSeed)
		}
		var err error
		node, err = cluster.NewNode(handler, cluster.NodeConfig{
			Self:         *self,
			Peers:        splitList(*peers),
			VirtualNodes: *vnodes,
			MaxHops:      *forwardHops,
			Replicas:     *replicas,
			HedgeAfter:   *hedgeAfter,
			Gossip: cluster.GossipConfig{
				Interval:  *gossipInterval,
				DownAfter: *peerDownAfter,
			},
			Client: client,
			Tracer: tracer,
			Logger: logger,
		})
		if err != nil {
			fail(fmt.Errorf("qjoind: %w", err))
		}
		node.Start()
		defer node.Stop()
		handler = node
		logger.Info("clustering enabled",
			"self", *self, "peers", *peers, "vnodes", *vnodes, "max_hops", *forwardHops,
			"replicas", *replicas, "hedge_after", hedgeAfter.String())
	} else if *peers != "" {
		usageError("-peers requires -self")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			"addr", *addr,
			"backends", strings.Join(svc.Backends(), ", "),
			"pprof", *pprofOn, "trace_sample", *traceSample)
		errc <- srv.ListenAndServe()
	}()

	// A /v1/drain request is equivalent to SIGTERM: both flip the node to
	// draining and begin shutdown. drainRequested is nil (never fires) on
	// single-node deployments.
	var drainRequested <-chan struct{}
	if node != nil {
		drainRequested = node.DrainRequested()
	}

	select {
	case <-ctx.Done():
		logger.Info("signal received, draining", "grace", grace.String())
	case <-drainRequested:
		logger.Info("drain requested over HTTP, draining", "grace", grace.String())
	case err := <-errc:
		fail(fmt.Errorf("qjoind: serve: %w", err))
	}

	// Drain the cluster layer first: announce departure to peers, answer
	// "draining" on /healthz so they stop routing new work here, and let
	// in-flight and coalesced solves finish before the listener closes.
	if node != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := node.Drain(drainCtx); err != nil {
			logger.Error("cluster drain", "error", err)
		}
		cancel()
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("http shutdown", "error", err)
	}
	if err := svc.Close(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("service shutdown", "error", err)
	}
	logger.Info("bye")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// usageError reports a bad flag value the way the flag package does:
// message, usage text, exit status 2.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "qjoind: "+msg)
	flag.Usage()
	os.Exit(2)
}
