package service

import (
	"io"
	"sort"
	"time"

	"quantumjoin/internal/obs"
)

// breakerStates enumerates the values qjoind_backend_breaker_state takes,
// exposed one-hot so dashboards can sum/alert without string parsing.
var breakerStates = []string{HealthOK, HealthOpen, HealthHalfOpen}

// WritePrometheus renders every service metric in Prometheus text
// exposition format 0.0.4: the counters and histograms behind
// MetricsSnapshot, per-backend latency histograms with cumulative buckets
// in seconds, breaker states, cache hit/miss counters, hybrid
// arbitration outcomes, and (when tracing is on) tracer throughput.
// Served at /metrics.
func (s *Service) WritePrometheus(w io.Writer) error {
	p := obs.NewPromWriter(w)
	m := s.metrics

	p.Family("qjoind_uptime_seconds", "Seconds since the service started.", "gauge")
	p.Sample("qjoind_uptime_seconds", nil, time.Since(m.start).Seconds())
	p.Family("qjoind_requests_total", "Optimisation requests received.", "counter")
	p.Sample("qjoind_requests_total", nil, float64(m.requests.Load()))
	p.Family("qjoind_request_errors_total", "Requests that returned an error.", "counter")
	p.Sample("qjoind_request_errors_total", nil, float64(m.errors.Load()))
	p.Family("qjoind_in_flight_requests", "Requests currently being served.", "gauge")
	p.Sample("qjoind_in_flight_requests", nil, float64(m.inFlight.Load()))
	p.Family("qjoind_requests_shed_total", "Requests rejected by load shedding (503).", "counter")
	p.Sample("qjoind_requests_shed_total", nil, float64(m.sheds.Load()))
	p.Family("qjoind_requests_degraded_total", "Requests answered by the classical fallback after a backend failure.", "counter")
	p.Sample("qjoind_requests_degraded_total", nil, float64(m.degrades.Load()))
	p.Family("qjoind_panics_recovered_total", "Backend/worker panics recovered.", "counter")
	p.Sample("qjoind_panics_recovered_total", nil, float64(m.panics.Load()))

	p.Family("qjoind_batch_envelopes_total", "Batch envelopes accepted on /v1/optimize/batch.", "counter")
	p.Sample("qjoind_batch_envelopes_total", nil, float64(m.batchEnvelopes.Load()))
	p.Family("qjoind_batch_items_total", "Items across all batch envelopes.", "counter")
	p.Sample("qjoind_batch_items_total", nil, float64(m.batchItems.Load()))
	p.Family("qjoind_batch_unique_total", "Deduplicated batch instances actually solved.", "counter")
	p.Sample("qjoind_batch_unique_total", nil, float64(m.batchUnique.Load()))

	cs := s.cache.Stats()
	p.Family("qjoind_encoding_cache_hits_total", "Encoding cache hits.", "counter")
	p.Sample("qjoind_encoding_cache_hits_total", nil, float64(cs.Hits))
	p.Family("qjoind_encoding_cache_misses_total", "Encoding cache misses.", "counter")
	p.Sample("qjoind_encoding_cache_misses_total", nil, float64(cs.Misses))
	p.Family("qjoind_encoding_cache_entries", "Encodings currently cached.", "gauge")
	p.Sample("qjoind_encoding_cache_entries", nil, float64(cs.Size))
	p.Family("qjoind_encoding_cache_capacity", "Encoding cache capacity.", "gauge")
	p.Sample("qjoind_encoding_cache_capacity", nil, float64(cs.Capacity))

	// Per-backend families: one sample per backend, sorted for stable
	// scrapes.
	m.mu.RLock()
	names := make([]string, 0, len(m.backends))
	for name := range m.backends {
		names = append(names, name)
	}
	backends := make(map[string]*BackendMetrics, len(m.backends))
	for name, b := range m.backends {
		backends[name] = b
	}
	m.mu.RUnlock()
	sort.Strings(names)

	counter := func(metric, help string, load func(*BackendMetrics) int64) {
		p.Family(metric, help, "counter")
		for _, name := range names {
			p.Sample(metric, map[string]string{"backend": name}, float64(load(backends[name])))
		}
	}
	counter("qjoind_backend_requests_total", "Solves attempted per backend.",
		func(b *BackendMetrics) int64 { return b.requests.Load() })
	counter("qjoind_backend_errors_total", "Failed solves per backend.",
		func(b *BackendMetrics) int64 { return b.errors.Load() })
	counter("qjoind_backend_wins_total", "Hybrid arbitration wins per backend.",
		func(b *BackendMetrics) int64 { return b.wins.Load() })
	counter("qjoind_backend_losses_total", "Hybrid arbitration losses per backend.",
		func(b *BackendMetrics) int64 { return b.losses.Load() })
	counter("qjoind_backend_degraded_total", "Degraded outcomes per backend: its answer was used only because every primary candidate failed.",
		func(b *BackendMetrics) int64 { return b.degraded.Load() })
	counter("qjoind_backend_retries_total", "Retried solve attempts per backend.",
		func(b *BackendMetrics) int64 { return b.retries.Load() })
	counter("qjoind_backend_faults_total", "Faults observed or injected per backend.",
		func(b *BackendMetrics) int64 { return b.faults.Load() })

	p.Family("qjoind_backend_latency_seconds", "Solve latency per backend.", "histogram")
	for _, name := range names {
		h := backends[name].lat
		bounds := make([]float64, len(latencyBucketMs))
		counts := make([]int64, len(latencyBucketMs))
		for i, ms := range latencyBucketMs {
			bounds[i] = ms / 1000
			counts[i] = h.counts[i].Load()
		}
		overflow := h.counts[len(latencyBucketMs)].Load()
		sum := float64(h.sumMicros.Load()) / 1e6
		p.Histogram("qjoind_backend_latency_seconds", map[string]string{"backend": name},
			bounds, counts, overflow, sum)
	}

	health := s.Health()
	if len(health) > 0 {
		hnames := make([]string, 0, len(health))
		for name := range health {
			hnames = append(hnames, name)
		}
		sort.Strings(hnames)
		p.Family("qjoind_backend_breaker_state", "Circuit-breaker state per backend (one-hot over state label).", "gauge")
		for _, name := range hnames {
			for _, st := range breakerStates {
				v := 0.0
				if health[name].State == st {
					v = 1
				}
				p.Sample("qjoind_backend_breaker_state", map[string]string{"backend": name, "state": st}, v)
			}
		}
		p.Family("qjoind_backend_breaker_trips_total", "Breaker transitions into the open state.", "counter")
		for _, name := range hnames {
			p.Sample("qjoind_backend_breaker_trips_total", map[string]string{"backend": name}, float64(health[name].Trips))
		}
		p.Family("qjoind_backend_breaker_state_age_seconds", "Seconds since the breaker's last state transition.", "gauge")
		for _, name := range hnames {
			p.Sample("qjoind_backend_breaker_state_age_seconds", map[string]string{"backend": name}, health[name].StateAgeSeconds)
		}
	}

	if t := s.cfg.Tracer; t != nil {
		st := t.Stats()
		p.Family("qjoind_traces_started_total", "Root spans opened.", "counter")
		p.Sample("qjoind_traces_started_total", nil, float64(st.Started))
		p.Family("qjoind_traces_stored_total", "Traces kept by the sampling policy.", "counter")
		p.Sample("qjoind_traces_stored_total", nil, float64(st.Stored))
		p.Family("qjoind_traces_dropped_total", "Traces dropped by the sampling policy.", "counter")
		p.Sample("qjoind_traces_dropped_total", nil, float64(st.Dropped))
	}
	return p.Err()
}
