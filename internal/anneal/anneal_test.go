package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quantumjoin/internal/qubo"
	"quantumjoin/internal/topology"
)

func TestIsingProblemEnergy(t *testing.T) {
	p := NewIsingProblem(2)
	p.H[0] = 1
	p.H[1] = -0.5
	p.AddCoupling(0, 1, 2)
	p.Const = 3
	// s = (+1, +1): 3 + 1 - 0.5 + 2 = 5.5
	if e := p.Energy([]int8{1, 1}); e != 5.5 {
		t.Fatalf("energy = %v, want 5.5", e)
	}
	// s = (+1, -1): 3 + 1 + 0.5 - 2 = 2.5
	if e := p.Energy([]int8{1, -1}); e != 2.5 {
		t.Fatalf("energy = %v, want 2.5", e)
	}
}

func TestIsingScaleAndMaxAbs(t *testing.T) {
	p := NewIsingProblem(2)
	p.H[0] = -3
	p.AddCoupling(0, 1, 2)
	if p.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v", p.MaxAbs())
	}
	p.Scale(0.5)
	if p.H[0] != -1.5 || p.MaxAbs() != 1.5 {
		t.Fatal("Scale wrong")
	}
}

func TestSelfCouplingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on self-coupling")
		}
	}()
	NewIsingProblem(2).AddCoupling(1, 1, 1)
}

func TestPerturbKeepsSymmetry(t *testing.T) {
	p := NewIsingProblem(3)
	p.AddCoupling(0, 1, 1)
	p.AddCoupling(1, 2, -1)
	rng := rand.New(rand.NewSource(1))
	p.Perturb(0.1, 0.1, rng)
	// Mirrored adjacency entries must stay equal.
	find := func(a, b int) float64 {
		for _, c := range p.Adj[a] {
			if c.To == b {
				return c.J
			}
		}
		t.Fatalf("missing coupling (%d,%d)", a, b)
		return 0
	}
	if find(0, 1) != find(1, 0) || find(1, 2) != find(2, 1) {
		t.Fatal("perturbation broke coupling symmetry")
	}
}

func TestSAFindsFerromagneticGroundState(t *testing.T) {
	// A ferromagnetic ring with a field: unique ground state all -1...
	// H = sum s_i + sum -2 s_i s_j: ground state everyone -1.
	p := NewIsingProblem(8)
	for i := range p.H {
		p.H[i] = 1
	}
	for i := 0; i < 8; i++ {
		p.AddCoupling(i, (i+1)%8, -2)
	}
	rng := rand.New(rand.NewSource(2))
	sa := SimulatedAnnealer{Sweeps: 200}
	hits := 0
	for r := 0; r < 20; r++ {
		s := sa.Anneal(p, rng)
		allDown := true
		for _, v := range s {
			if v != -1 {
				allDown = false
			}
		}
		if allDown {
			hits++
		}
	}
	if hits < 15 {
		t.Fatalf("SA found the ferromagnetic ground state only %d/20 times", hits)
	}
}

// testDevice returns a small noiseless device on Pegasus P2 for fast tests.
func testDevice() *Device {
	g, _ := topology.Pegasus(2)
	d := NewDevice(g)
	d.SigmaH, d.SigmaJ = 0, 0
	return d
}

func smallQUBO() *qubo.QUBO {
	// Minimum -2 at x = (0,1,1).
	q := qubo.New(3)
	q.AddLinear(0, 2)
	q.AddLinear(1, -1)
	q.AddLinear(2, -1)
	q.AddQuad(0, 1, 1)
	q.AddQuad(0, 2, 1)
	return q
}

func TestDeviceSampleFindsOptimum(t *testing.T) {
	d := testDevice()
	q := smallQUBO()
	res, err := d.Sample(q, 50, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 50 || len(res.Energies) != 50 {
		t.Fatalf("result sizes wrong: %d/%d", len(res.Assignments), len(res.Energies))
	}
	best := math.Inf(1)
	for i, x := range res.Assignments {
		if v := q.Value(x); math.Abs(v-res.Energies[i]) > 1e-9 {
			t.Fatal("energy mismatch with assignment")
		} else if v < best {
			best = v
		}
	}
	if best > -2+1e-9 {
		t.Fatalf("noiseless annealer best energy %v, want -2", best)
	}
	if res.PhysicalQubits < 3 {
		t.Fatal("embedding impossibly small")
	}
}

func TestDeviceNoiseDegradesQuality(t *testing.T) {
	q := smallQUBO()
	clean := testDevice()
	noisy := testDevice()
	noisy.SigmaH, noisy.SigmaJ = 0.5, 0.5 // extreme ICE noise
	rc, err := clean.Sample(q, 60, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := noisy.Sample(q, 60, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	optClean, optNoisy := 0, 0
	for i := range rc.Energies {
		if rc.Energies[i] <= -2+1e-9 {
			optClean++
		}
		if rn.Energies[i] <= -2+1e-9 {
			optNoisy++
		}
	}
	if optNoisy >= optClean {
		t.Fatalf("extreme noise did not reduce optimal rate: %d vs %d", optNoisy, optClean)
	}
}

// TestSampleValidation: every sampling entry point — Sample, the
// precomputed-embedding SampleEmbedded and the batch path — rejects a
// non-positive read count or annealing time, in sequential and batched
// read modes alike, and accepts a valid budget.
func TestSampleValidation(t *testing.T) {
	q := smallQUBO()
	emb, err := testDevice().EmbedOnly(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name   string
		sample func(d *Device, reads int, at float64) (*Result, error)
	}{
		{"Sample", func(d *Device, reads int, at float64) (*Result, error) {
			return d.Sample(q, reads, at, 1)
		}},
		{"SampleEmbedded", func(d *Device, reads int, at float64) (*Result, error) {
			return d.SampleEmbedded(q, emb, reads, at, 1)
		}},
		{"SampleBatch", func(d *Device, reads int, at float64) (*Result, error) {
			res, errs := d.SampleBatchContext(context.Background(), []BatchJob{{Q: q, Reads: reads, AnnealTimeMicros: at, Seed: 1, Embedding: emb}})
			return res[0], errs[0]
		}},
	}
	cases := []struct {
		reads int
		at    float64
		ok    bool
	}{
		{0, 20, false},
		{-3, 20, false},
		{5, 0, false},
		{5, -1, false},
		{5, 20, true},
	}
	for _, batchReads := range []int{0, 32} {
		for _, e := range entries {
			for _, c := range cases {
				t.Run(fmt.Sprintf("batch%d/%s/reads%d/at%v", batchReads, e.name, c.reads, c.at), func(t *testing.T) {
					d := testDevice()
					d.BatchReads = batchReads
					res, err := e.sample(d, c.reads, c.at)
					if !c.ok {
						if err == nil {
							t.Fatalf("accepted reads=%d, annealing time %v (%d samples)", c.reads, c.at, len(res.Assignments))
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Assignments) != c.reads {
						t.Fatalf("%d samples, want %d", len(res.Assignments), c.reads)
					}
				})
			}
		}
	}
}

func TestEmbedOnlyMatchesSampleFootprint(t *testing.T) {
	d := testDevice()
	q := smallQUBO()
	emb, err := d.EmbedOnly(q, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.SampleEmbedded(q, emb, 5, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.PhysicalQubits != emb.PhysicalQubits() {
		t.Fatal("footprint mismatch")
	}
}

func TestChainBreakFractionBounded(t *testing.T) {
	d := testDevice()
	d.SigmaH, d.SigmaJ = 0.3, 0.3
	d.RelativeChainStrength = 0.2 // weak chains break often
	q := qubo.New(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			q.AddQuad(i, j, float64((i+j)%3)-1)
		}
	}
	res, err := d.Sample(q, 30, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChainBreakFraction < 0 || res.ChainBreakFraction > 1 {
		t.Fatalf("chain break fraction %v outside [0,1]", res.ChainBreakFraction)
	}
}

func TestTimingModel(t *testing.T) {
	m := DefaultTimingModel()
	total := m.QPUAccessMicros(1000, 20)
	// 15 ms programming + 1000 × 160 µs = 175 ms.
	if math.Abs(total-175000) > 1e-6 {
		t.Fatalf("access time = %v µs", total)
	}
	// Annealing time is a small share of access time (paper's t_s vs
	// t_qpu observation carries over to annealers).
	if 1000*20 > total/2 {
		t.Fatal("annealing dominates access time; model wrong")
	}
}

func TestAnnealTimeMapsToSweeps(t *testing.T) {
	d := testDevice()
	q := smallQUBO()
	// Longer annealing time should never hurt on a noiseless device;
	// just verify both run and record their time.
	for _, at := range []float64{20, 100} {
		res, err := d.Sample(q, 10, at, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.AnnealTimeMicros != at {
			t.Fatal("annealing time not recorded")
		}
	}
}
