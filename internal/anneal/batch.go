package anneal

import (
	"context"
	"fmt"

	"quantumjoin/internal/minorembed"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/qubo"
)

// BatchJob is one QUBO sampling job in a batch: the logical problem plus
// the per-job sampling knobs SampleContext would take as arguments.
// Non-positive Reads or AnnealTimeMicros are rejected per job, mirroring
// SampleContext.
type BatchJob struct {
	Q                *qubo.QUBO
	Reads            int
	AnnealTimeMicros float64
	Seed             int64
	// InitialState, when non-nil, warm-starts the job (see
	// Device.InitialState); other jobs in the batch are unaffected.
	InitialState []bool
	// Embedding, when non-nil, is a precomputed minor embedding of Q into
	// the device graph, used as SampleEmbeddedContext would; nil embeds
	// the job with EmbedOnlyContext at Seed.
	Embedding *minorembed.Embedding
}

// scratchPool hands out a reusable perturbation buffer per physical
// problem: the first request for a problem allocates a structural copy,
// every later request (the remaining reads of the job) refreshes it with
// CopyInto instead of allocating. Sampling is single-threaded per job, so
// no locking is needed.
type scratchPool struct {
	source *IsingProblem
	buf    *IsingProblem
}

func (s *scratchPool) perturbCopy(p *IsingProblem) *IsingProblem {
	if s.source != p {
		s.source = p
		s.buf = p.Copy()
		return s.buf
	}
	p.CopyInto(s.buf)
	return s.buf
}

// SampleBatchContext sweeps many QUBO instances through the annealer in
// one array pass: each job without a precomputed embedding is embedded
// once, and the read loops run with a shared per-job perturbation
// scratch, so the ICE-noise copy that the standalone path allocates on
// every read is replaced by an in-place refresh. Results are bit-identical
// to calling SampleContext per job with the same seed, or
// SampleEmbeddedContext when the job carries its embedding (the RNG
// streams are per job).
//
// Returned slices are index-aligned with jobs. A job error (embedding
// failure, invalid knobs, interruption) fails that job only; once the
// context expires, remaining jobs fail fast with the context error and the
// interrupted job keeps its partial reads, as in SampleContext.
func (d *Device) SampleBatchContext(ctx context.Context, jobs []BatchJob) ([]*Result, []error) {
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	ctx, span := obs.StartSpan(ctx, "anneal.sample_batch")
	span.SetAttr("jobs", len(jobs))
	scratch := &scratchPool{}
	for i, job := range jobs {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("anneal: batch interrupted before job %d/%d: %w", i, len(jobs), err)
			continue
		}
		if err := checkBudget(job.Reads, job.AnnealTimeMicros); err != nil {
			errs[i] = err
			continue
		}
		dev := d
		if job.InitialState != nil {
			warm := *d
			warm.InitialState = job.InitialState
			dev = &warm
		}
		emb := job.Embedding
		if emb == nil {
			var err error
			if emb, err = dev.EmbedOnlyContext(ctx, job.Q, job.Seed); err != nil {
				errs[i] = err
				continue
			}
		}
		results[i], errs[i] = dev.sampleEmbeddedContext(ctx, job.Q, emb, job.Reads, job.AnnealTimeMicros, job.Seed, scratch)
	}
	span.End(nil)
	return results, errs
}
