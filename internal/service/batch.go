package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"quantumjoin/internal/core"
	"quantumjoin/internal/obs"
)

// BatchStats summarises one batch envelope: how many items it carried and
// how many deduplicated canonical instances were actually solved.
type BatchStats struct {
	Items  int `json:"items"`
	Unique int `json:"unique"`
}

// batchGroup is one deduplicated canonical instance: every member request
// shares the same cache key, backend, and solver params, so one solve
// serves them all. Members keep their own relation permutation — two
// queries that are relabellings of each other share the canonical solve
// but decode back into their own indexing.
type batchGroup struct {
	name    string
	backend Backend
	enc     *core.Encoding
	key     string
	params  Params
	members []batchMember

	d   *core.Decoded
	err error
}

// batchMember references its permutation as an offset into the batch
// scratch's shared perm arena (a direct slice would be invalidated when
// the arena grows).
type batchMember struct {
	idx     int
	permOff int
	permLen int
	hit     bool
}

// groupKey is the comparable dedup key of one batch item: cache key (an
// interned string from the encoding cache), backend, and the params that
// change a solve's output (decomp's part budget among them). solo is 0
// for dedupable items and index+1 for items that must solve alone (warm
// starts, hybrid tuning), making their keys unique. A struct key replaces
// the fmt.Sprintf string the dedup map used to allocate per item.
type groupKey struct {
	key        string
	name       string
	reads      int
	seed       int64
	partBudget int
	solo       int
}

// batchScratch is the reusable working set of one solveBatch call,
// cycled through Service.batchScratch.
type batchScratch struct {
	sc        reqScratch
	groups    []batchGroup
	byKey     map[groupKey]int
	permArena []int
	done      []bool
	gidx      []int
	encs      []*core.Encoding
	ps        []Params
}

func (b *batchScratch) reset() {
	b.groups = b.groups[:0]
	if b.byKey == nil {
		b.byKey = make(map[groupKey]int)
	} else {
		clear(b.byKey)
	}
	b.permArena = b.permArena[:0]
}

// addGroup appends a group slot, recycling the backing entry (and its
// members capacity) when one exists from an earlier batch.
func (b *batchScratch) addGroup(name string, backend Backend, enc *core.Encoding, key string, p Params) int {
	if len(b.groups) < cap(b.groups) {
		b.groups = b.groups[:len(b.groups)+1]
	} else {
		b.groups = append(b.groups, batchGroup{})
	}
	g := &b.groups[len(b.groups)-1]
	g.name, g.backend, g.enc, g.key, g.params = name, backend, enc, key, p
	g.members = g.members[:0]
	g.d, g.err = nil, nil
	return len(b.groups) - 1
}

// OptimizeBatch runs a whole envelope of requests as one unit of work:
// one envelope-level deadline (per-item timeouts are ignored), one worker
// pool slot, identical items deduplicated into a single solve, and
// backends with a BatchSolver fast path invoked once for all their
// instances. Items fail independently — the returned slices are
// index-aligned with reqs, and exactly one of resps[i]/errs[i] is non-nil
// per item. The whole envelope is rejected (every item erroring
// identically) only when the pool itself refuses the slot.
func (s *Service) OptimizeBatch(ctx context.Context, reqs []*Request, timeout time.Duration) ([]*Response, []error, BatchStats) {
	start := time.Now()
	stats := BatchStats{Items: len(reqs)}
	resps := make([]*Response, len(reqs))
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return resps, errs, stats
	}
	// Each item counts as a request in the service-wide counters so the
	// sequential and batch paths are comparable on /metrics.
	s.metrics.batchEnvelopes.Add(1)
	s.metrics.batchItems.Add(int64(len(reqs)))
	s.metrics.requests.Add(int64(len(reqs)))
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	ctx, span := s.cfg.Tracer.Start(ctx, "optimize.batch")
	span.SetAttr("items", len(reqs))

	ctx, cancel := context.WithTimeout(ctx, s.timeout(timeout))
	defer cancel()

	if err := s.run(ctx, func(ctx context.Context) {
		stats.Unique = s.solveBatch(ctx, reqs, resps, errs)
	}); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.sheds.Add(1)
			span.SetAttr("shed", true)
		}
		if errors.Is(err, ErrPanic) {
			s.metrics.panics.Add(1)
		}
		for i := range errs {
			if errs[i] == nil && resps[i] == nil {
				errs[i] = err
			}
		}
	}

	nerr := 0
	var firstErr error
	for _, e := range errs {
		if e != nil {
			nerr++
			if firstErr == nil {
				firstErr = e
			}
		}
	}
	s.metrics.errors.Add(int64(nerr))
	s.metrics.batchUnique.Add(int64(stats.Unique))
	elapsed := time.Since(start)
	for _, r := range resps {
		if r != nil {
			r.Elapsed = elapsed
		}
	}
	span.SetAttr("unique", stats.Unique)
	span.SetAttr("item_errors", nerr)
	if nerr == len(reqs) {
		// A fully failed envelope is an error trace; partial failures are
		// kept visible via the item_errors attribute instead.
		span.End(firstErr)
	} else {
		span.End(nil)
	}
	return resps, errs, stats
}

// solveBatch runs on a pool worker: per-item validation and (cached)
// encoding, deduplication into canonical groups, grouped solving with the
// BatchSolver fast path where available, and per-member finishing. It
// returns the number of deduplicated groups solved. All working storage
// comes from the service's batchScratch pool, and entries of resps that
// already hold a Response are filled in place — a warm batch of familiar
// shapes allocates nothing in this scaffolding.
func (s *Service) solveBatch(ctx context.Context, reqs []*Request, resps []*Response, errs []error) int {
	b := s.batch.Get().(*batchScratch)
	defer s.batch.Put(b)
	b.reset()

	for i, req := range reqs {
		backend, err := s.resolve(req)
		if err != nil {
			errs[i] = fmt.Errorf("service: batch item %d: %w", i, err)
			continue
		}
		name := backend.Name()
		enc, key, perm, hit, err := s.cache.encodingScratch(req.Query, req.Spec, &b.sc.fp)
		if err != nil {
			errs[i] = fmt.Errorf("service: batch item %d: encoding failed: %v: %w", i, err, ErrBadRequest)
			continue
		}
		// perm aliases the fingerprinter's buffer, which the next item
		// overwrites; park it in the shared arena (members store offsets —
		// arena growth would invalidate direct slices).
		permOff := len(b.permArena)
		b.permArena = append(b.permArena, perm...)
		// Warm-started and hybrid-tuned items are never deduplicated:
		// their extra inputs are not part of the group key.
		p := req.Params
		gk := groupKey{key: key, name: name, reads: p.Reads, seed: p.Seed, partBudget: p.Decomp.PartBudget}
		if len(p.InitialState) != 0 || len(p.Hybrid.Portfolio) != 0 || p.Hybrid.HedgeDelay != 0 {
			gk = groupKey{solo: i + 1}
		}
		gi, ok := b.byKey[gk]
		if !ok {
			gi = b.addGroup(name, backend, enc, key, p)
			b.byKey[gk] = gi
		}
		g := &b.groups[gi]
		g.members = append(g.members, batchMember{idx: i, permOff: permOff, permLen: len(perm), hit: hit})
	}

	// Process groups backend by backend in first-appearance order, so a
	// batch spanning several backends still makes one fast-path call each.
	if cap(b.done) < len(b.groups) {
		b.done = make([]bool, len(b.groups))
	}
	b.done = b.done[:len(b.groups)]
	for i := range b.done {
		b.done[i] = false
	}
	for first := range b.groups {
		if b.done[first] {
			continue
		}
		name := b.groups[first].name
		b.gidx = b.gidx[:0]
		for gj := first; gj < len(b.groups); gj++ {
			if !b.done[gj] && b.groups[gj].name == name {
				b.done[gj] = true
				b.gidx = append(b.gidx, gj)
			}
		}
		bm := s.metrics.Backend(name)
		if bsv, ok := b.groups[first].backend.(BatchSolver); ok {
			b.encs = b.encs[:0]
			b.ps = b.ps[:0]
			for _, gj := range b.gidx {
				b.encs = append(b.encs, b.groups[gj].enc)
				b.ps = append(b.ps, b.groups[gj].params)
			}
			solveCtx, span := obs.StartSpan(ctx, "solve.batch")
			span.SetAttrStr("backend", name)
			span.SetAttrInt("instances", len(b.gidx))
			solveStart := time.Now()
			ds, berrs := s.safeSolveBatch(solveCtx, bsv, b.encs, b.ps)
			// Per-instance latency is the amortised share of the batched
			// call — the histogram then reflects per-query service rate.
			per := time.Since(solveStart) / time.Duration(len(b.gidx))
			for k, gj := range b.gidx {
				g := &b.groups[gj]
				err := berrs[k]
				if err == nil {
					err = vetDecoded(g.enc.Query.NumRelations(), name, ds[k])
				}
				bm.Observe(per, err)
				g.d, g.err = ds[k], err
			}
			span.End(nil)
		} else {
			for _, gj := range b.gidx {
				g := &b.groups[gj]
				solveCtx, span := obs.StartSpan(ctx, "solve")
				span.SetAttrStr("backend", name)
				solveStart := time.Now()
				d, err := s.safeSolve(solveCtx, g.backend, g.enc, g.params)
				if err == nil {
					err = vetDecoded(g.enc.Query.NumRelations(), name, d)
				}
				bm.Observe(time.Since(solveStart), err)
				span.End(err)
				g.d, g.err = d, err
			}
		}
	}

	for gi := range b.groups {
		g := &b.groups[gi]
		for _, m := range g.members {
			perm := b.permArena[m.permOff : m.permOff+m.permLen]
			resp := resps[m.idx]
			if resp == nil {
				resp = &Response{}
			}
			if err := s.finishInto(ctx, reqs[m.idx], g.name, g.enc, g.key, perm, m.hit, g.d, g.err, &b.sc, resp); err != nil {
				errs[m.idx] = err
				resps[m.idx] = nil
			} else {
				resps[m.idx] = resp
			}
		}
	}
	return len(b.groups)
}

// safeSolveBatch invokes a BatchSolver with the same panic containment as
// safeSolve, and normalises a misbehaving implementation's slice lengths.
func (s *Service) safeSolveBatch(ctx context.Context, bs BatchSolver, encs []*core.Encoding, ps []Params) (ds []*core.Decoded, errs []error) {
	defer func() {
		if r := recover(); r != nil {
			ds = make([]*core.Decoded, len(encs))
			errs = make([]error, len(encs))
			for i := range errs {
				errs[i] = fmt.Errorf("service: backend %q panicked in batch: %v: %w", bs.Name(), r, ErrPanic)
			}
		}
	}()
	ds, errs = bs.SolveBatch(ctx, encs, ps)
	if len(ds) != len(encs) || len(errs) != len(encs) {
		err := fmt.Errorf("service: backend %q returned %d results / %d errors for %d batch instances",
			bs.Name(), len(ds), len(errs), len(encs))
		ds = make([]*core.Decoded, len(encs))
		errs = make([]error, len(encs))
		for i := range errs {
			errs[i] = err
		}
	}
	return ds, errs
}
