package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// latencyBucketMs are the histogram upper bounds in milliseconds; an
// implicit overflow bucket catches everything beyond the last bound.
var latencyBucketMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram with lock-free recording.
type histogram struct {
	counts    []atomic.Int64 // len(latencyBucketMs)+1, last = overflow
	sumMicros atomic.Int64
	count     atomic.Int64
	maxMicros atomic.Int64 // largest single observation
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBucketMs)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketMs) && ms > latencyBucketMs[i] {
		i++
	}
	h.counts[i].Add(1)
	us := d.Microseconds()
	h.sumMicros.Add(us)
	h.count.Add(1)
	for {
		cur := h.maxMicros.Load()
		if us <= cur || h.maxMicros.CompareAndSwap(cur, us) {
			break
		}
	}
}

// quantile estimates the q-quantile (0 < q < 1) in milliseconds by linear
// interpolation within the containing bucket. Quantiles landing in the
// overflow (+Inf) bucket interpolate between the last finite bound and
// the largest observation seen, instead of reporting the raw bucket edge
// (which under-reported arbitrarily badly for heavy upper tails).
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	lower := 0.0
	for i, bound := range latencyBucketMs {
		n := float64(h.counts[i].Load())
		if cum+n >= target && n > 0 {
			frac := (target - cum) / n
			return lower + frac*(bound-lower)
		}
		cum += n
		lower = bound
	}
	n := float64(h.counts[len(latencyBucketMs)].Load())
	maxMs := float64(h.maxMicros.Load()) / 1000
	if n == 0 || maxMs <= lower {
		// Nothing overflowed (or the max itself sits at the edge): the
		// last finite bound is the best statement the histogram can make.
		return lower
	}
	frac := (target - cum) / n
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return lower + frac*(maxMs-lower)
}

// LatencySnapshot summarises one histogram.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

func (h *histogram) snapshot() LatencySnapshot {
	s := LatencySnapshot{Count: h.count.Load()}
	if s.Count > 0 {
		s.MeanMs = float64(h.sumMicros.Load()) / float64(s.Count) / 1000
		s.P50Ms = h.quantile(0.50)
		s.P90Ms = h.quantile(0.90)
		s.P99Ms = h.quantile(0.99)
	}
	return s
}

// BackendMetrics tracks one backend's requests, errors, latency, and — for
// backends competing inside the hybrid orchestrator — arbitration outcomes.
type BackendMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	wins     atomic.Int64
	losses   atomic.Int64
	degraded atomic.Int64
	retries  atomic.Int64
	faults   atomic.Int64
	lat      *histogram
}

// Observe records one solve.
func (b *BackendMetrics) Observe(d time.Duration, err error) {
	b.requests.Add(1)
	if err != nil {
		b.errors.Add(1)
	}
	b.lat.observe(d)
}

// RecordWin counts an arbitration win: the hybrid orchestrator selected
// this backend's candidate as the final answer.
func (b *BackendMetrics) RecordWin() { b.wins.Add(1) }

// RecordLoss counts an arbitration loss: the backend produced a candidate
// (or failed to) but another backend's answer was selected.
func (b *BackendMetrics) RecordLoss() { b.losses.Add(1) }

// RecordDegraded counts a degraded outcome: this backend's answer was used
// only because the chosen backend failed (the classical-degradation
// fallback). Kept distinct from RecordWin: a fallback that answers because
// everything else broke says nothing about its plan quality relative to
// the field.
func (b *BackendMetrics) RecordDegraded() { b.degraded.Add(1) }

// RecordRetry counts one retried solve attempt (the resilience wrapper in
// internal/faults calls this per re-attempt, not per request).
func (b *BackendMetrics) RecordRetry() { b.retries.Add(1) }

// RecordFault counts one fault observed from (or injected into) this
// backend — rejected jobs, queue timeouts, aborts, corrupted results.
func (b *BackendMetrics) RecordFault() { b.faults.Add(1) }

// Metrics is the service-wide observability state. All recording paths are
// atomic; Snapshot is safe to call concurrently with traffic.
type Metrics struct {
	start time.Time

	requests atomic.Int64
	errors   atomic.Int64
	inFlight atomic.Int64
	sheds    atomic.Int64
	degrades atomic.Int64
	panics   atomic.Int64

	batchEnvelopes atomic.Int64 // /v1/optimize/batch envelopes accepted
	batchItems     atomic.Int64 // items across all envelopes
	batchUnique    atomic.Int64 // deduplicated instances actually solved

	mu       sync.RWMutex
	backends map[string]*BackendMetrics
}

// NewMetrics returns zeroed metrics with the clock started.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), backends: make(map[string]*BackendMetrics)}
}

// Backend returns (lazily creating) the per-backend metrics for name.
func (m *Metrics) Backend(name string) *BackendMetrics {
	m.mu.RLock()
	b, ok := m.backends[name]
	m.mu.RUnlock()
	if ok {
		return b
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok = m.backends[name]; !ok {
		b = &BackendMetrics{lat: newHistogram()}
		m.backends[name] = b
	}
	return b
}

// BackendSnapshot summarises one backend. Wins and Losses count hybrid
// arbitration outcomes and stay zero for backends never raced; Retries and
// Faults stay zero for backends without a resilience wrapper; Breaker is
// present only for backends reporting health (circuit-breaker wrapped).
type BackendSnapshot struct {
	Requests int64           `json:"requests"`
	Errors   int64           `json:"errors"`
	Wins     int64           `json:"wins,omitempty"`
	Losses   int64           `json:"losses,omitempty"`
	Degraded int64           `json:"degraded,omitempty"`
	Retries  int64           `json:"retries,omitempty"`
	Faults   int64           `json:"faults,omitempty"`
	Breaker  *BackendHealth  `json:"breaker,omitempty"`
	Latency  LatencySnapshot `json:"latency"`
}

// RequestsSnapshot summarises service-wide request counters. Shed counts
// load-shed rejections (503), Degraded counts requests answered by the
// classical fallback after their backend failed, Panics counts recovered
// worker/backend panics.
type RequestsSnapshot struct {
	Total    int64 `json:"total"`
	Errors   int64 `json:"errors"`
	InFlight int64 `json:"in_flight"`
	Shed     int64 `json:"shed"`
	Degraded int64 `json:"degraded"`
	Panics   int64 `json:"panics"`
}

// BatchSnapshot summarises the batch endpoint: envelopes accepted, items
// across them, and the deduplicated instance count actually solved (the
// gap between Items and Unique is work the dedup pass saved).
type BatchSnapshot struct {
	Envelopes int64 `json:"envelopes"`
	Items     int64 `json:"items"`
	Unique    int64 `json:"unique"`
}

// Snapshot is the full observability state, as returned by
// Service.MetricsSnapshot.
type Snapshot struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Requests      RequestsSnapshot           `json:"requests"`
	Batch         BatchSnapshot              `json:"batch"`
	Cache         CacheSnapshot              `json:"cache"`
	Backends      map[string]BackendSnapshot `json:"backends"`
}

// CacheSnapshot is CacheStats plus the derived hit rate.
type CacheSnapshot struct {
	CacheStats
	HitRate float64 `json:"hit_rate"`
}

// Snapshot captures the current counters; cache may be nil.
func (m *Metrics) Snapshot(cache *EncodingCache) Snapshot {
	s := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests: RequestsSnapshot{
			Total:    m.requests.Load(),
			Errors:   m.errors.Load(),
			InFlight: m.inFlight.Load(),
			Shed:     m.sheds.Load(),
			Degraded: m.degrades.Load(),
			Panics:   m.panics.Load(),
		},
		Batch: BatchSnapshot{
			Envelopes: m.batchEnvelopes.Load(),
			Items:     m.batchItems.Load(),
			Unique:    m.batchUnique.Load(),
		},
		Backends: make(map[string]BackendSnapshot),
	}
	if cache != nil {
		st := cache.Stats()
		s.Cache = CacheSnapshot{CacheStats: st, HitRate: st.HitRate()}
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for name, b := range m.backends {
		s.Backends[name] = BackendSnapshot{
			Requests: b.requests.Load(),
			Errors:   b.errors.Load(),
			Wins:     b.wins.Load(),
			Losses:   b.losses.Load(),
			Degraded: b.degraded.Load(),
			Retries:  b.retries.Load(),
			Faults:   b.faults.Load(),
			Latency:  b.lat.snapshot(),
		}
	}
	return s
}
