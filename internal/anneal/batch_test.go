package anneal

import (
	"context"
	"math/rand"
	"testing"

	"quantumjoin/internal/qubo"
	"quantumjoin/internal/topology"
)

func batchTestQUBO(n int, rng *rand.Rand) *qubo.QUBO {
	q := qubo.New(n)
	for i := 0; i < n; i++ {
		q.AddLinear(i, rng.NormFloat64())
		if i > 0 {
			q.AddQuad(i-1, i, rng.NormFloat64())
		}
	}
	return q
}

// TestSampleBatchMatchesSingle pins the batch read loop (shared
// perturbation scratch via CopyInto) to the standalone SampleContext path:
// with equal seeds the RNG streams are identical, so the assignments and
// energies must match bit for bit. Jobs that carry a precomputed
// embedding (a memo hit in the service) must match too.
func TestSampleBatchMatchesSingle(t *testing.T) {
	g, _ := topology.Pegasus(3)
	dev := NewDevice(g)
	rng := rand.New(rand.NewSource(11))
	jobs := make([]BatchJob, 0, 4)
	for i := 0; i < 4; i++ {
		jobs = append(jobs, BatchJob{
			Q:                batchTestQUBO(4+i, rng),
			Reads:            10,
			AnnealTimeMicros: 20,
			Seed:             int64(100 + i),
		})
	}
	embedded := make([]BatchJob, len(jobs))
	for i, job := range jobs {
		emb, err := dev.EmbedOnly(job.Q, job.Seed)
		if err != nil {
			t.Fatalf("job %d embed: %v", i, err)
		}
		embedded[i] = job
		embedded[i].Embedding = emb
	}
	for _, batch := range []struct {
		name string
		jobs []BatchJob
	}{{"embedded by the batch", jobs}, {"precomputed embedding", embedded}} {
		results, errs := dev.SampleBatchContext(context.Background(), batch.jobs)
		for i, job := range batch.jobs {
			if errs[i] != nil {
				t.Fatalf("%s: job %d: %v", batch.name, i, errs[i])
			}
			want, err := dev.SampleContext(context.Background(), job.Q, job.Reads, job.AnnealTimeMicros, job.Seed)
			if err != nil {
				t.Fatalf("job %d single: %v", i, err)
			}
			if len(results[i].Assignments) != len(want.Assignments) {
				t.Fatalf("%s: job %d: %d reads != %d", batch.name, i, len(results[i].Assignments), len(want.Assignments))
			}
			for r := range want.Assignments {
				if results[i].Energies[r] != want.Energies[r] {
					t.Fatalf("%s: job %d read %d: batch energy %v != single %v", batch.name, i, r, results[i].Energies[r], want.Energies[r])
				}
				for v := range want.Assignments[r] {
					if results[i].Assignments[r][v] != want.Assignments[r][v] {
						t.Fatalf("%s: job %d read %d: assignment differs at %d", batch.name, i, r, v)
					}
				}
			}
		}
	}
}

// TestSampleBatchBadJob: a job with invalid knobs fails alone without
// sinking its batch.
func TestSampleBatchBadJob(t *testing.T) {
	g, _ := topology.Pegasus(3)
	dev := NewDevice(g)
	rng := rand.New(rand.NewSource(5))
	jobs := []BatchJob{
		{Q: batchTestQUBO(4, rng), Reads: 0, AnnealTimeMicros: 20, Seed: 1},
		{Q: batchTestQUBO(4, rng), Reads: 5, AnnealTimeMicros: 20, Seed: 2},
	}
	results, errs := dev.SampleBatchContext(context.Background(), jobs)
	if errs[0] == nil {
		t.Fatal("job 0 with zero reads should fail")
	}
	if errs[1] != nil || results[1] == nil || len(results[1].Assignments) != 5 {
		t.Fatalf("job 1 should succeed with 5 reads, got err=%v", errs[1])
	}
}

// TestCopyInto pins the scratch-refresh primitive: after a perturbation,
// CopyInto must restore the original coefficients exactly.
func TestCopyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewIsingProblem(6)
	for i := 0; i < 6; i++ {
		p.H[i] = rng.NormFloat64()
	}
	p.AddCoupling(0, 1, 0.5)
	p.AddCoupling(1, 2, -0.25)
	p.Const = 3
	scratch := p.Copy()
	scratch.Perturb(0.1, 0.1, rng)
	p.CopyInto(scratch)
	s := []int8{1, -1, 1, -1, 1, -1}
	if got, want := scratch.Energy(s), p.Energy(s); got != want {
		t.Fatalf("CopyInto did not restore coefficients: %v != %v", got, want)
	}
}
