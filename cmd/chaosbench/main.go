// Command chaosbench measures qjoind's resilience under injected QPU
// faults. For each point on a failure-rate ladder it assembles the full
// service (registry → fault injector → retries → circuit breaker → worker
// pool → HTTP handler), replays a deterministic seeded request schedule
// against the HTTP stack, and records availability, degradation, and
// plan-quality outcomes. The emitted BENCH_faults.json holds the
// availability and plan-cost-ratio curves vs injected failure rate — the
// quantitative form of the paper's §8 argument that a cloud-accessed QPU
// must be treated as an unreliable co-processor.
//
// The fault schedule is a pure function of -seed: two runs with the same
// flags see identical rejections, aborts, and corruptions, so a regression
// in the resilience stack shows up as a diff, not as noise.
//
// With -cluster the tool additionally boots an in-process three-node
// fleet (replica factor 2, hedged forwarding, a seeded faulty
// interconnect dropping and resetting -net-fault-rate of inter-node
// calls), drives the schedule at one node while another is killed at one
// third of the run and a third gracefully drained at two thirds, and
// gates the result: availability at least -min-availability (2xx
// fraction), zero 5xx, drain completed, p99 within -max-p99 when set.
// The -rates ladder may be empty ("") when -cluster is the only mode
// wanted; gate violations exit 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"quantumjoin/internal/faults"
	"quantumjoin/internal/hybrid"
	"quantumjoin/internal/join"
	"quantumjoin/internal/noise"
	"quantumjoin/internal/querygen"
	"quantumjoin/internal/service"
)

// RatePoint is one cell of the resilience curve: outcomes of the request
// schedule at one injected failure rate.
type RatePoint struct {
	FaultRate    float64 `json:"fault_rate"`
	Requests     int     `json:"requests"`
	HTTP200      int     `json:"http_200"`
	HTTP503      int     `json:"http_503"`
	HTTP5xx      int     `json:"http_5xx"`
	OtherStatus  int     `json:"other_status"`
	Availability float64 `json:"availability"` // HTTP 200 fraction
	InvalidPlans int     `json:"invalid_plans"`
	Degraded     int     `json:"degraded"`
	// Counters read from the service's metrics snapshot after the run.
	Retries      int64 `json:"retries"`
	Faults       int64 `json:"faults"`
	BreakerTrips int64 `json:"breaker_trips"`
	Shed         int64 `json:"shed"`
	// Plan quality over the HTTP 200 responses, as cost / DP optimum.
	MeanCostRatio  float64 `json:"mean_cost_ratio"`
	WorstCostRatio float64 `json:"worst_cost_ratio"`
	P50Ms          float64 `json:"p50_ms"`
	P95Ms          float64 `json:"p95_ms"`
}

// Report is the emitted JSON document.
type Report struct {
	GoMaxProcs  int           `json:"go_max_procs"`
	GoVersion   string        `json:"go_version"`
	Backend     string        `json:"backend"`
	Relations   int           `json:"relations"`
	Requests    int           `json:"requests"`
	Concurrency int           `json:"concurrency"`
	DeadlineMs  int           `json:"deadline_ms"`
	Seed        int64         `json:"seed"`
	Points      []RatePoint   `json:"points,omitempty"`
	Cluster     *ClusterPoint `json:"cluster,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_faults.json", "output file")
	backend := flag.String("backend", "dp", "backend to wrap with the fault injector")
	relations := flag.Int("relations", 8, "relations per generated query")
	requests := flag.Int("requests", 200, "requests per failure-rate point")
	concurrency := flag.Int("c", 8, "concurrent clients")
	deadline := flag.Duration("deadline", 250*time.Millisecond, "per-request deadline")
	seed := flag.Int64("seed", 1, "seed for queries and the fault schedule")
	ratesFlag := flag.String("rates", "0,0.1,0.2,0.3,0.5", "comma-separated injected failure rates (empty skips the ladder, valid only with -cluster)")
	clusterMode := flag.Bool("cluster", false, "also run the three-node fleet chaos point: kill + drain + faulty interconnect under load")
	netFaultRate := flag.Float64("net-fault-rate", 0.1, "cluster: fraction of inter-node calls that drop (hang) or reset, split evenly")
	minAvailability := flag.Float64("min-availability", 0.999, "cluster: fail unless at least this fraction of requests got 2xx")
	maxP99 := flag.Float64("max-p99", 0, "cluster: fail if the p99 latency exceeds this many milliseconds (0 disables)")
	flag.Parse()

	var rates []float64
	var err error
	if strings.TrimSpace(*ratesFlag) != "" {
		rates, err = parseRates(*ratesFlag)
		if err != nil {
			fail(err)
		}
	} else if !*clusterMode {
		fail(fmt.Errorf("chaosbench: no failure rates given (empty -rates requires -cluster)"))
	}
	queries, err := makeQueries(*relations, *seed)
	if err != nil {
		fail(err)
	}

	report := Report{
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Backend:     *backend,
		Relations:   *relations,
		Requests:    *requests,
		Concurrency: *concurrency,
		DeadlineMs:  int(*deadline / time.Millisecond),
		Seed:        *seed,
	}
	for _, rate := range rates {
		point, err := runPoint(*backend, queries, rate, *requests, *concurrency, *deadline, *seed)
		if err != nil {
			fail(err)
		}
		report.Points = append(report.Points, point)
		fmt.Printf("rate %.2f: availability %.3f (%d/%d 200s, %d 503s, %d 5xx), %d degraded, cost ratio %.3f, p95 %.1fms\n",
			rate, point.Availability, point.HTTP200, point.Requests, point.HTTP503, point.HTTP5xx,
			point.Degraded, point.MeanCostRatio, point.P95Ms)
	}

	gatesFailed := false
	if *clusterMode {
		point, err := runCluster(*backend, queries, *requests, *concurrency, *deadline, *seed, *netFaultRate, *minAvailability, *maxP99)
		if err != nil {
			fail(err)
		}
		report.Cluster = point
		fmt.Printf("cluster: availability %.4f (%d/%d 2xx, %d 5xx, %d transport), p99 %.1fms, hedges %d (won %d), forwards %d, warm pushes %d, drain ok %v -> pass %v\n",
			point.Availability, point.HTTP2xx, point.Requests, point.HTTP5xx, point.Transport,
			point.P99Ms, point.Hedges, point.HedgeWins, point.Forwards, point.WarmPushes, point.DrainOK, point.Pass)
		if !point.Pass {
			gatesFailed = true
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
	if gatesFailed {
		fail(fmt.Errorf("chaosbench: cluster gates failed (availability %.4f >= %.4f? 5xx=%d, drain ok %v, p99 %.1fms)",
			report.Cluster.Availability, *minAvailability, report.Cluster.HTTP5xx, report.Cluster.DrainOK, report.Cluster.P99Ms))
	}
}

// runPoint assembles a fresh resilient service, fires the seeded request
// schedule at it over HTTP, and folds the outcomes into one RatePoint.
func runPoint(backend string, queries []json.RawMessage, rate float64, requests, concurrency int, deadline time.Duration, seed int64) (RatePoint, error) {
	reg := service.DefaultRegistry(service.RegistryConfig{PegasusM: 3})
	svc := service.New(reg, service.Config{
		Workers:        concurrency,
		QueueDepth:     2 * concurrency,
		DefaultBackend: backend,
		Shed:           true,
		Degrade:        true,
	})

	be, ok := reg.Get(backend)
	if !ok {
		return RatePoint{}, fmt.Errorf("chaosbench: unknown backend %q", backend)
	}
	be = faults.Inject(be, faults.InjectorConfig{
		RejectProb:  rate / 3,
		AbortProb:   rate / 3,
		CorruptProb: rate / 3,
		Access:      noise.AccessModel{QueueWaitNs: float64(2 * time.Millisecond)},
		Seed:        seed,
		Metrics:     svc.Metrics(),
	})
	be = faults.WithRetry(be, faults.RetryPolicy{Seed: seed, Metrics: svc.Metrics()})
	be = faults.WithBreaker(be, faults.BreakerConfig{OpenFor: 100 * time.Millisecond})
	if err := reg.Replace(be); err != nil {
		return RatePoint{}, err
	}
	hb, err := hybrid.New(hybrid.Config{Registry: reg, Metrics: svc.Metrics()})
	if err != nil {
		return RatePoint{}, err
	}
	if err := reg.Register(hb); err != nil {
		return RatePoint{}, err
	}

	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	client := &http.Client{Timeout: deadline + 5*time.Second}

	var (
		mu        sync.Mutex
		point     = RatePoint{FaultRate: rate, Requests: requests, WorstCostRatio: 1}
		latencies []float64
		ratios    []float64
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				status, resp, elapsed, err := fire(client, srv.URL, queries[i%len(queries)], deadline, seed+int64(i))
				mu.Lock()
				if err != nil {
					point.OtherStatus++
					mu.Unlock()
					continue
				}
				latencies = append(latencies, float64(elapsed)/float64(time.Millisecond))
				switch {
				case status == http.StatusOK:
					point.HTTP200++
					if resp.Degraded {
						point.Degraded++
					}
					if !validPlan(resp) {
						point.InvalidPlans++
					}
					if resp.OptimalCost > 0 && resp.Cost > 0 {
						ratios = append(ratios, resp.Cost/resp.OptimalCost)
					}
				case status == http.StatusServiceUnavailable:
					point.HTTP503++
				case status >= 500:
					point.HTTP5xx++
				default:
					point.OtherStatus++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < requests; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	point.Availability = float64(point.HTTP200) / float64(requests)
	if len(ratios) > 0 {
		sum := 0.0
		for _, r := range ratios {
			sum += r
			if r > point.WorstCostRatio {
				point.WorstCostRatio = r
			}
		}
		point.MeanCostRatio = sum / float64(len(ratios))
	}
	point.P50Ms = percentile(latencies, 0.50)
	point.P95Ms = percentile(latencies, 0.95)

	// Server-side counters: retries, injected faults, sheds, and breaker
	// trips.
	snap := svc.MetricsSnapshot()
	point.Shed = snap.Requests.Shed
	for _, b := range snap.Backends {
		point.Retries += b.Retries
		point.Faults += b.Faults
		if b.Breaker != nil {
			point.BreakerTrips += b.Breaker.Trips
		}
	}
	return point, nil
}

// fire posts one optimisation request and decodes the response.
func fire(client *http.Client, baseURL string, query json.RawMessage, deadline time.Duration, seed int64) (int, *service.OptimizeResponse, time.Duration, error) {
	body, err := json.Marshal(service.OptimizeRequest{
		Query:     query,
		Seed:      seed,
		TimeoutMs: int(deadline / time.Millisecond),
	})
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	httpResp, err := client.Post(baseURL+"/v1/optimize", "application/json", bytes.NewReader(body))
	elapsed := time.Since(start)
	if err != nil {
		return 0, nil, elapsed, err
	}
	defer httpResp.Body.Close()
	var resp service.OptimizeResponse
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			return httpResp.StatusCode, nil, elapsed, err
		}
	}
	return httpResp.StatusCode, &resp, elapsed, nil
}

// validPlan checks the response order is a permutation of the query's
// relations — the "zero invalid plans" availability criterion.
func validPlan(resp *service.OptimizeResponse) bool {
	seen := make(map[string]bool, len(resp.Order))
	for _, name := range resp.Order {
		if seen[name] {
			return false
		}
		seen[name] = true
	}
	return len(resp.Order) > 0
}

// makeQueries generates a deterministic mixed-shape query workload,
// serialised to the HTTP catalog schema.
func makeQueries(relations int, seed int64) ([]json.RawMessage, error) {
	shapes := []querygen.GraphType{querygen.Chain, querygen.Star, querygen.Clique, querygen.Cycle}
	rng := rand.New(rand.NewSource(seed))
	var out []json.RawMessage
	for i := 0; i < 8; i++ {
		q, err := querygen.Generate(querygen.Config{Relations: relations, Graph: shapes[i%len(shapes)]}, rng)
		if err != nil {
			return nil, err
		}
		raw, err := catalogJSON(q)
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}

// catalogJSON serialises a query into the join catalog schema the HTTP
// endpoint decodes with join.ReadCatalog.
func catalogJSON(q *join.Query) (json.RawMessage, error) {
	type rel struct {
		Name string  `json:"name"`
		Card float64 `json:"cardinality"`
	}
	type pred struct {
		Left  string  `json:"left"`
		Right string  `json:"right"`
		Sel   float64 `json:"selectivity"`
	}
	doc := struct {
		Relations  []rel  `json:"relations"`
		Predicates []pred `json:"predicates"`
	}{}
	for i, r := range q.Relations {
		name := r.Name
		if name == "" {
			name = "R" + strconv.Itoa(i)
		}
		doc.Relations = append(doc.Relations, rel{Name: name, Card: r.Card})
	}
	for _, p := range q.Predicates {
		doc.Predicates = append(doc.Predicates, pred{
			Left:  doc.Relations[p.R1].Name,
			Right: doc.Relations[p.R2].Name,
			Sel:   p.Sel,
		})
	}
	return json.Marshal(doc)
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("chaosbench: bad rate %q (want 0..1)", part)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("chaosbench: no failure rates given")
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
