package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
)

// EncodeSpec pins down every encoding-relevant request option; together
// with the canonical query form it determines the cache key.
type EncodeSpec struct {
	// Thresholds is the number of cardinality thresholds (DefaultThresholds
	// spread); default 3.
	Thresholds int
	// Omega is the slack discretisation precision ω; default 1.
	Omega float64
	// LogObjective selects the log-cost ablation of the objective.
	LogObjective bool
	// Compact selects the reduced-variable encoding (core.Options.Compact):
	// tio[t][j>0] eliminated by prefix substitution over tii, dropping
	// T·(J−1) decision qubits per instance.
	Compact bool
}

func (s EncodeSpec) withDefaults() EncodeSpec {
	if s.Thresholds <= 0 {
		s.Thresholds = 3
	}
	if s.Omega == 0 {
		s.Omega = 1
	}
	return s
}

// mix64 combines two words with a splitmix64-style finaliser; used for the
// order-insensitive colour refinement below (not cryptographic — the cache
// key itself is a SHA-256 over the full canonical serialisation, so colour
// collisions can only cause cache misses, never wrong results).
func mix64(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fpEdge is one predicate endpoint in the fingerprinter's flat adjacency.
type fpEdge struct {
	sel uint64
	to  int32
}

// fingerprinter computes cache fingerprints with reusable scratch: all
// working storage (colour refinement buffers, canonical predicate list,
// serialisation bytes) lives on the struct and is grown once, so a warm
// fingerprint of a familiar query shape allocates nothing. Not safe for
// concurrent use; pool instances (see fpPool) instead of sharing one.
type fingerprinter struct {
	edgeOff []int32
	edges   []fpEdge
	colors  []uint64
	next    []uint64
	sig     []uint64
	idx     []int
	perm    []int
	preds   []join.Predicate
	buf     []byte
}

// fpPool backs the exported Fingerprint helper and any caller without a
// request-scoped fingerprinter.
var fpPool = sync.Pool{New: func() any { return new(fingerprinter) }}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// canonicalPerm computes a relabelling of the query's relations that is
// invariant under permutations of the relation list, via Weisfeiler-Leman
// colour refinement: a relation's colour starts from its cardinality and
// is repeatedly refined with the sorted multiset of (selectivity,
// neighbour colour) pairs. Relations left indistinguishable after n rounds
// (automorphic twins) are tie-broken by original index, which still
// serialises to the same canonical form. perm[original] = canonical index.
// The returned slice aliases fp.perm and is valid until the next call.
func (fp *fingerprinter) canonicalPerm(q *join.Query) []int {
	n := q.NumRelations()
	// Flat CSR adjacency of the predicate graph, counting-sort style.
	if cap(fp.edgeOff) < n+1 {
		fp.edgeOff = make([]int32, n+1)
	}
	fp.edgeOff = fp.edgeOff[:n+1]
	for i := range fp.edgeOff {
		fp.edgeOff[i] = 0
	}
	for _, p := range q.Predicates {
		fp.edgeOff[p.R1+1]++
		fp.edgeOff[p.R2+1]++
	}
	for i := 0; i < n; i++ {
		fp.edgeOff[i+1] += fp.edgeOff[i]
	}
	ne := int(fp.edgeOff[n])
	if cap(fp.edges) < ne {
		fp.edges = make([]fpEdge, ne)
	}
	fp.edges = fp.edges[:ne]
	if cap(fp.next) < n {
		fp.next = make([]uint64, n)
	}
	fill := fp.next[:n] // reuse as the insertion cursor before refinement
	for i := 0; i < n; i++ {
		fill[i] = uint64(fp.edgeOff[i])
	}
	for _, p := range q.Predicates {
		sb := math.Float64bits(p.Sel)
		fp.edges[fill[p.R1]] = fpEdge{sb, int32(p.R2)}
		fill[p.R1]++
		fp.edges[fill[p.R2]] = fpEdge{sb, int32(p.R1)}
		fill[p.R2]++
	}

	fp.colors = growU64(fp.colors, n)
	for i := range fp.colors {
		fp.colors[i] = mix64(0x517cc1b727220a95, math.Float64bits(q.Relations[i].Card))
	}
	fp.next = growU64(fp.next, n)
	for round := 0; round < n; round++ {
		for i := range fp.colors {
			fp.sig = fp.sig[:0]
			for _, e := range fp.edges[fp.edgeOff[i]:fp.edgeOff[i+1]] {
				fp.sig = append(fp.sig, mix64(e.sel, fp.colors[e.to]))
			}
			slices.Sort(fp.sig)
			h := fp.colors[i]
			for _, v := range fp.sig {
				h = mix64(h, v)
			}
			fp.next[i] = h
		}
		copy(fp.colors, fp.next)
	}
	fp.idx = growInts(fp.idx, n)
	for i := range fp.idx {
		fp.idx[i] = i
	}
	colors := fp.colors
	// slices.SortFunc (generic) instead of sort.Slice: the latter boxes the
	// slice into an interface and heap-allocates its closure on every call,
	// which would break the zero-alloc warm path.
	slices.SortFunc(fp.idx, func(ia, ib int) int {
		if colors[ia] != colors[ib] {
			if colors[ia] < colors[ib] {
				return -1
			}
			return 1
		}
		ca, cb := math.Float64bits(q.Relations[ia].Card), math.Float64bits(q.Relations[ib].Card)
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		return ia - ib
	})
	fp.perm = growInts(fp.perm, n)
	for rank, orig := range fp.idx {
		fp.perm[orig] = rank
	}
	return fp.perm
}

// sum computes the cache fingerprint of (query shape, spec), returning
// the raw SHA-256 and the canonicalising permutation (aliasing fp.perm).
// The serialisation matches what canonicalize would produce, built
// directly from the original query plus the permutation so no canonical
// query is materialised on this path.
func (fp *fingerprinter) sum(q *join.Query, spec EncodeSpec) (sum [32]byte, perm []int) {
	spec = spec.withDefaults()
	perm = fp.canonicalPerm(q)

	if cap(fp.preds) < len(q.Predicates) {
		fp.preds = make([]join.Predicate, len(q.Predicates))
	}
	fp.preds = fp.preds[:len(q.Predicates)]
	for k, p := range q.Predicates {
		a, b := perm[p.R1], perm[p.R2]
		if a > b {
			a, b = b, a
		}
		fp.preds[k] = join.Predicate{R1: a, R2: b, Sel: p.Sel}
	}
	preds := fp.preds
	slices.SortFunc(preds, cmpPredicates)

	fp.buf = fp.buf[:0]
	w := func(v uint64) {
		fp.buf = binary.LittleEndian.AppendUint64(fp.buf, v)
	}
	w(uint64(len(q.Relations)))
	// Cards in canonical order: relation at canonical rank r is idx[r].
	for _, orig := range fp.idx {
		w(math.Float64bits(q.Relations[orig].Card))
	}
	w(uint64(len(preds)))
	for _, p := range preds {
		w(uint64(p.R1))
		w(uint64(p.R2))
		w(math.Float64bits(p.Sel))
	}
	w(uint64(spec.Thresholds))
	w(math.Float64bits(spec.Omega))
	var flags uint64
	if spec.LogObjective {
		flags |= 1
	}
	if spec.Compact {
		flags |= 2
	}
	w(flags)
	return sha256.Sum256(fp.buf), perm
}

// canonicalize relabels the query so that original relation i sits at
// canonical position perm[i], with positional names and a sorted predicate
// list — a fully deterministic instance to encode and hash.
func canonicalize(q *join.Query, perm []int) *join.Query {
	cq := &join.Query{Relations: make([]join.Relation, len(perm))}
	for i, r := range q.Relations {
		cq.Relations[perm[i]] = join.Relation{Name: fmt.Sprintf("R%d", perm[i]), Card: r.Card}
	}
	preds := make([]join.Predicate, len(q.Predicates))
	for k, p := range q.Predicates {
		a, b := perm[p.R1], perm[p.R2]
		if a > b {
			a, b = b, a
		}
		preds[k] = join.Predicate{R1: a, R2: b, Sel: p.Sel}
	}
	slices.SortFunc(preds, cmpPredicates)
	cq.Predicates = preds
	return cq
}

// cmpPredicates is the canonical predicate order: by endpoints, then by the
// raw bit pattern of the selectivity (a total order even for NaNs). Shared
// by the fingerprint serialisation and canonicalize so the hashed and the
// encoded predicate lists always agree.
func cmpPredicates(a, b join.Predicate) int {
	if a.R1 != b.R1 {
		return a.R1 - b.R1
	}
	if a.R2 != b.R2 {
		return a.R2 - b.R2
	}
	sa, sb := math.Float64bits(a.Sel), math.Float64bits(b.Sel)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	return 0
}

// Fingerprint returns the cache key for (query shape, encoding options)
// and the canonicalising relation permutation. Queries differing only by a
// permutation of their relation list map to the same key; equal keys imply
// (up to SHA-256 collisions) identical canonical instances, so a cached
// encoding is always valid for every query that hits it.
func Fingerprint(q *join.Query, spec EncodeSpec) (key string, perm []int) {
	fp := fpPool.Get().(*fingerprinter)
	sum, p := fp.sum(q, spec)
	perm = append([]int(nil), p...)
	fpPool.Put(fp)
	return hex.EncodeToString(sum[:]), perm
}

// EncodingCache is a thread-safe LRU cache of encodings keyed by
// Fingerprint. An entry is a prepared core.Encoding of the canonical
// instance: the canonical query, the encoding options, the exact logical-
// qubit count and the per-encoding memos (classical optimum, minor
// embedding). Its MILP → BILP → QUBO model is built on first use by a
// backend that reads it (BuildQUBO: anneal, tabu, qaoa, milp, and hybrid
// when its stage 2 launches), so an entry that only classical backends
// ever touch holds no model at all, and repeated query shapes pay for a
// build at most once.
type EncodingCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[[32]byte]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

// cacheEntry stores the raw fingerprint alongside its hex form: lookups
// key on the raw sum (no per-request hex encoding), and a hit hands back
// the one hex string allocated at insert time.
type cacheEntry struct {
	sum    [32]byte
	hexKey string
	enc    *core.Encoding
}

// NewEncodingCache returns a cache holding up to capacity encodings
// (default 256 when capacity <= 0).
func NewEncodingCache(capacity int) *EncodingCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &EncodingCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[[32]byte]*list.Element),
	}
}

// Encoding returns the prepared encoding of the canonical form of q under
// spec, preparing and inserting it on a miss, along with the cache key
// (the WL-hash fingerprint, also the cluster routing key), the relation
// permutation (perm[original] = canonical) needed to map decoded orders
// back, and whether the call was a cache hit. Concurrent misses on the
// same key may both prepare; the first insert wins and every caller gets
// the resident encoding, so a key's QUBO is built at most once and its
// memos are not split across copies.
//
// Neither a hit nor a miss opens a span: a miss only validates and counts
// qubits, in microseconds, and the "encode" span opens where a backend's
// first use builds the QUBO. The outcome is visible as the root span's
// cache_hit attribute.
func (c *EncodingCache) Encoding(q *join.Query, spec EncodeSpec) (enc *core.Encoding, key string, perm []int, hit bool, err error) {
	fp := fpPool.Get().(*fingerprinter)
	enc, key, p, hit, err := c.encodingScratch(q, spec, fp)
	if p != nil {
		perm = append([]int(nil), p...)
	}
	fpPool.Put(fp)
	return enc, key, perm, hit, err
}

// encodingScratch is the allocation-free core of Encoding: the
// fingerprint runs in fp's reusable buffers, the lookup keys on the raw
// SHA-256 (no hex encoding), and a hit returns the entry's interned hex
// key. The returned perm aliases fp.perm — valid only until fp's next
// use, so request-scoped callers must hold their own fingerprinter.
func (c *EncodingCache) encodingScratch(q *join.Query, spec EncodeSpec, fp *fingerprinter) (enc *core.Encoding, key string, perm []int, hit bool, err error) {
	spec = spec.withDefaults()
	sum, perm := fp.sum(q, spec)
	if enc, key, ok := c.get(sum); ok {
		c.hits.Add(1)
		return enc, key, perm, true, nil
	}
	c.misses.Add(1)
	key = hex.EncodeToString(sum[:])
	if enc, err = c.prepare(sum, key, q, perm, spec); err != nil {
		return nil, key, nil, false, err
	}
	return enc, key, perm, false, nil
}

// prepare prepares the canonical form of q (perm from its fingerprint,
// spec with defaults applied) and inserts it under sum, returning the
// resident encoding.
func (c *EncodingCache) prepare(sum [32]byte, key string, q *join.Query, perm []int, spec EncodeSpec) (*core.Encoding, error) {
	cq := canonicalize(q, perm)
	enc, err := core.Prepare(cq, core.Options{
		Thresholds:   core.DefaultThresholds(cq, spec.Thresholds),
		Omega:        spec.Omega,
		LogObjective: spec.LogObjective,
		Compact:      spec.Compact,
	})
	if err != nil {
		return nil, err
	}
	return c.put(sum, key, enc), nil
}

func (c *EncodingCache) get(sum [32]byte) (*core.Encoding, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[sum]
	if !ok {
		return nil, "", false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.enc, e.hexKey, true
}

// put inserts enc under sum unless a concurrent miss got there first,
// and returns the resident encoding.
func (c *EncodingCache) put(sum [32]byte, hexKey string, enc *core.Encoding) *core.Encoding {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[sum]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).enc
	}
	c.items[sum] = c.ll.PushFront(&cacheEntry{sum: sum, hexKey: hexKey, enc: enc})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).sum)
	}
	return enc
}

// Len returns the number of cached encodings.
func (c *EncodingCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time view of the cache counters.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Stats returns the current cache counters.
func (c *EncodingCache) Stats() CacheStats {
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Size:     c.Len(),
		Capacity: c.capacity,
	}
}

// Purge drops every cached encoding (counters are kept).
func (c *EncodingCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[[32]byte]*list.Element)
}
