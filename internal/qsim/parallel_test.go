package qsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"quantumjoin/internal/circuit"
)

// randomCircuit builds a circuit of depth gates drawn uniformly from the
// full gate set, with random qubits and angles.
func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	kinds := []circuit.Kind{
		circuit.H, circuit.X, circuit.SX, circuit.RX, circuit.RY, circuit.RZ,
		circuit.CX, circuit.CZ, circuit.SWAP, circuit.RZZ, circuit.XX,
	}
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		theta := rng.Float64() * 2 * math.Pi
		if k.IsTwoQubit() {
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			c.Append(circuit.G2(k, a, b, theta))
		} else {
			c.Append(circuit.G1(k, rng.Intn(n), theta))
		}
	}
	return c
}

// randomizeState overwrites both states with the same normalised random
// amplitudes, so kernels are compared on dense input.
func randomizeState(rng *rand.Rand, states ...*State) {
	n := len(states[0].amps)
	norm := 0.0
	raw := make([]complex128, n)
	for i := range raw {
		raw[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(raw[i])*real(raw[i]) + imag(raw[i])*imag(raw[i])
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range raw {
		raw[i] *= scale
	}
	for _, s := range states {
		copy(s.amps, raw)
	}
}

func maxDelta(a, b *State) float64 {
	d := 0.0
	for i := range a.amps {
		if e := cmplx.Abs(a.amps[i] - b.amps[i]); e > d {
			d = e
		}
	}
	return d
}

// TestKernelsMatchReference checks that the strided (and, when forced,
// sharded) kernels agree with the original full-sweep serial kernels to
// 1e-12 on randomized circuits over randomized states.
func TestKernelsMatchReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		prev := SetWorkers(workers)
		rng := rand.New(rand.NewSource(int64(101 + workers)))
		for trial := 0; trial < 8; trial++ {
			n := 2 + rng.Intn(9) // 2..10 qubits
			c := randomCircuit(rng, n, 40)
			got, _ := NewState(n)
			want, _ := NewState(n)
			randomizeState(rng, got, want)
			for _, g := range c.Gates {
				if err := got.ApplyGate(g); err != nil {
					t.Fatal(err)
				}
				if err := want.ApplyGateRef(g); err != nil {
					t.Fatal(err)
				}
			}
			if d := maxDelta(got, want); d > 1e-12 {
				t.Fatalf("workers=%d trial=%d n=%d: kernels diverge from reference by %g", workers, trial, n, d)
			}
		}
		SetWorkers(prev)
	}
}

// TestKernelsMatchReferenceSharded forces sharding even below parMinWork
// is impossible (threshold is fixed), so use enough qubits that parRange
// actually fans out, and run under -race to catch data races.
func TestKernelsMatchReferenceSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("16-qubit equivalence sweep skipped in -short mode")
	}
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	rng := rand.New(rand.NewSource(202))
	n := 16 // 2^15 pair-indices > parMinWork: kernels genuinely shard
	c := randomCircuit(rng, n, 30)
	got, _ := NewState(n)
	want, _ := NewState(n)
	randomizeState(rng, got, want)
	if err := got.Run(c); err != nil {
		t.Fatal(err)
	}
	if err := want.runRef(c); err != nil {
		t.Fatal(err)
	}
	if d := maxDelta(got, want); d > 1e-12 {
		t.Fatalf("sharded kernels diverge from reference by %g", d)
	}
}

// TestPhaseTableMatchesDiagonalGates checks PhaseTable against the
// reference RZ/RZZ kernels: a run of diagonal gates multiplies basis state i
// by exp(-i·t[i]) with t[i] = Σ θ/2·z, where z = ±1 is the Z eigenvalue (or
// product of two) on i, so PhaseTable(t, 1) must reproduce it exactly.
func TestPhaseTableMatchesDiagonalGates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		prev := SetWorkers(workers)
		rng := rand.New(rand.NewSource(int64(303 + workers)))
		for trial := 0; trial < 6; trial++ {
			n := 3 + rng.Intn(8)
			if trial == 0 {
				n = 15 // large enough that parRange shards
			}
			c := circuit.New(n)
			table := make([]float64, 1<<uint(n))
			z := func(i uint64, q int) float64 {
				if i&(1<<uint(q)) != 0 {
					return -1
				}
				return 1
			}
			for k := 0; k < 2*n; k++ {
				theta := rng.Float64() * 2 * math.Pi
				a := rng.Intn(n)
				if k%2 == 0 {
					c.Append(circuit.G1(circuit.RZ, a, theta))
					for i := range table {
						table[i] += theta / 2 * z(uint64(i), a)
					}
					continue
				}
				b := (a + 1 + rng.Intn(n-1)) % n
				c.Append(circuit.G2(circuit.RZZ, a, b, theta))
				for i := range table {
					table[i] += theta / 2 * z(uint64(i), a) * z(uint64(i), b)
				}
			}
			got, _ := NewState(n)
			want, _ := NewState(n)
			randomizeState(rng, got, want)
			got.PhaseTable(table, 1)
			if err := want.runRef(c); err != nil {
				t.Fatal(err)
			}
			if d := maxDelta(got, want); d > 1e-12 {
				t.Fatalf("workers=%d trial=%d n=%d: PhaseTable diverges from the reference gates by %g", workers, trial, n, d)
			}
		}
		SetWorkers(prev)
	}
}

// TestSetUniformMatchesHadamards checks SetUniform against n reference
// Hadamards on |0...0⟩, starting from a dirty state.
func TestSetUniformMatchesHadamards(t *testing.T) {
	for _, n := range []int{1, 6, 15} {
		got, _ := NewState(n)
		randomizeState(rand.New(rand.NewSource(int64(n))), got)
		got.SetUniform()
		want, _ := NewState(n)
		for q := 0; q < n; q++ {
			if err := want.ApplyGateRef(circuit.G1(circuit.H, q, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if d := maxDelta(got, want); d > 1e-12 {
			t.Fatalf("n=%d: SetUniform diverges from H^n|0⟩ by %g", n, d)
		}
	}
}

// TestExpectationTableMatchesDiag checks the table fast path against the
// closure-based expectation, including under forced sharding.
func TestExpectationTableMatchesDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, workers := range []int{1, 4} {
		prev := SetWorkers(workers)
		n := 15
		s, _ := NewState(n)
		randomizeState(rng, s)
		table := make([]float64, 1<<uint(n))
		for i := range table {
			table[i] = rng.NormFloat64()
		}
		want := s.ExpectationDiag(func(b uint64) float64 { return table[b] })
		got := s.ExpectationTable(table)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("workers=%d: ExpectationTable %v != ExpectationDiag %v", workers, got, want)
		}
		SetWorkers(prev)
	}
}

// TestExpectationTableDeterministic checks the fixed-chunk reduction gives
// bit-identical results regardless of the worker count.
func TestExpectationTableDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	n := 15
	s, _ := NewState(n)
	randomizeState(rng, s)
	table := make([]float64, 1<<uint(n))
	for i := range table {
		table[i] = rng.NormFloat64()
	}
	var ref float64
	for i, workers := range []int{1, 2, 3, 8} {
		prev := SetWorkers(workers)
		got := s.ExpectationTable(table)
		SetWorkers(prev)
		if i == 0 {
			ref = got
		} else if got != ref {
			t.Fatalf("workers=%d: expectation %v != workers=1 result %v (must be bit-identical)", workers, got, ref)
		}
	}
}

// TestSampleTailGoesToArgmax pins the rounding-tail fix: when accumulated
// probability falls short of the last uniform draw, leftover shots must go
// to the most probable state, not the arbitrary final basis index.
func TestSampleTailGoesToArgmax(t *testing.T) {
	n := 3
	s, _ := NewState(n)
	// Deliberately unnormalised state: total probability 0.5, peak at
	// basis 2. Draws above 0.5 cannot be assigned in the sweep.
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[1] = complex(math.Sqrt(0.1), 0)
	s.amps[2] = complex(math.Sqrt(0.3), 0)
	s.amps[5] = complex(math.Sqrt(0.1), 0)
	rng := rand.New(rand.NewSource(606))
	shots := 2000
	out := s.Sample(rng, shots)
	if len(out) != shots {
		t.Fatalf("got %d shots, want %d", len(out), shots)
	}
	last := uint64(len(s.amps) - 1)
	counts := map[uint64]int{}
	for _, b := range out {
		counts[b]++
	}
	if counts[last] != 0 {
		t.Fatalf("%d leftover shots assigned to last basis index %d", counts[last], last)
	}
	// Roughly half the draws exceed total probability 0.5 and must land on
	// the argmax state 2 on top of its own ~0.3 share.
	if counts[2] < shots/2 {
		t.Fatalf("argmax state got %d/%d shots, want > %d", counts[2], shots, shots/2)
	}
	if counts[1]+counts[2]+counts[5] != shots {
		t.Fatalf("shots landed outside support: %v", counts)
	}
}

// TestSampleBatchMatchesSample pins the batched scan's bit-identity
// contract: SampleBatch over k seeds must emit exactly the sequences k solo
// Sample calls would, including the rounding-tail argmax snapshot and the
// per-rng shuffle.
func TestSampleBatchMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7202))
	n := 9
	s, _ := NewState(n)
	randomizeState(rng, s)
	seeds := []int64{1, 42, 7, 1e9}
	shots := 64
	batchRngs := make([]*rand.Rand, len(seeds))
	for i, seed := range seeds {
		batchRngs[i] = rand.New(rand.NewSource(seed))
	}
	got := s.SampleBatch(batchRngs, shots)
	for i, seed := range seeds {
		want := s.Sample(rand.New(rand.NewSource(seed)), shots)
		if len(got[i]) != len(want) {
			t.Fatalf("seed=%d: batch emitted %d shots, solo %d", seed, len(got[i]), len(want))
		}
		for k := range want {
			if got[i][k] != want[k] {
				t.Fatalf("seed=%d shot=%d: batch %d != solo %d", seed, k, got[i][k], want[k])
			}
		}
	}
}

// TestSampleBatchTailArgmax extends the rounding-tail golden to the batched
// scan: on a deliberately unnormalised state, every stream's leftover shots
// must land on the argmax state seen up to where that stream stopped.
func TestSampleBatchTailArgmax(t *testing.T) {
	n := 3
	s, _ := NewState(n)
	s.amps[0] = 0
	s.amps[1] = complex(math.Sqrt(0.1), 0)
	s.amps[2] = complex(math.Sqrt(0.3), 0)
	s.amps[5] = complex(math.Sqrt(0.1), 0)
	shots := 2000
	rngs := []*rand.Rand{rand.New(rand.NewSource(606)), rand.New(rand.NewSource(607))}
	outs := s.SampleBatch(rngs, shots)
	last := s.size() - 1
	for r, out := range outs {
		counts := map[uint64]int{}
		for _, b := range out {
			counts[b]++
		}
		if counts[last] != 0 {
			t.Fatalf("stream=%d: %d leftover shots on last basis index", r, counts[last])
		}
		if counts[2] < shots/2 {
			t.Fatalf("stream=%d: argmax state got %d/%d shots", r, counts[2], shots)
		}
		if counts[1]+counts[2]+counts[5] != shots {
			t.Fatalf("stream=%d: shots outside support: %v", r, counts)
		}
	}
}

// TestAcquireRelease exercises the pooled-state API.
func TestAcquireRelease(t *testing.T) {
	s, err := Acquire(6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Probability(0) != 1 {
		t.Fatal("acquired state not |0...0⟩")
	}
	c := circuit.New(6)
	c.Append(circuit.G1(circuit.H, 0, 0), circuit.G2(circuit.CX, 0, 3, 0))
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	s.Release()
	s2, err := Acquire(6)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Release()
	if s2.Probability(0) != 1 || s2.Probability(1<<3|1) != 0 {
		t.Fatal("recycled state not reset to |0...0⟩")
	}
	if _, err := Acquire(0); err == nil {
		t.Fatal("Acquire(0) must fail")
	}
	if _, err := Acquire(MaxQubits + 1); err == nil {
		t.Fatal("Acquire above MaxQubits must fail")
	}
}

// TestExpandBit pins the index-expansion helpers.
func TestExpandBit(t *testing.T) {
	for _, q := range []uint{0, 1, 3, 7} {
		mask := uint64(1) << q
		seen := map[uint64]bool{}
		for k := uint64(0); k < 64; k++ {
			i := expandBit(k, mask)
			if i&mask != 0 {
				t.Fatalf("expandBit(%d, 1<<%d) = %d has bit set", k, q, i)
			}
			if seen[i] {
				t.Fatalf("expandBit(%d, 1<<%d) duplicates index %d", k, q, i)
			}
			seen[i] = true
		}
	}
	lo, hi := sortMasks(1<<4, 1<<2)
	if lo != 1<<2 || hi != 1<<4 {
		t.Fatal("sortMasks order wrong")
	}
	seen := map[uint64]bool{}
	for k := uint64(0); k < 64; k++ {
		i := expandBits2(k, lo, hi)
		if i&lo != 0 || i&hi != 0 {
			t.Fatalf("expandBits2(%d) = %d has an inserted bit set", k, i)
		}
		if seen[i] {
			t.Fatalf("expandBits2(%d) duplicates index %d", k, i)
		}
		seen[i] = true
	}
}
