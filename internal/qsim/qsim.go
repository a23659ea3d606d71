// Package qsim is a dense statevector simulator for the gate set defined
// in package circuit. It substitutes for the real IBM Q devices used in
// the paper's §4.2.1 experiments: circuits up to ~27 qubits (the size of
// IBM Q Auckland) can be executed exactly; hardware noise is modelled on
// top of the ideal output distribution by package noise.
package qsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"

	"quantumjoin/internal/circuit"
)

// MaxQubits caps simulator size; 2^27 amplitudes of complex128 are ~2 GiB.
const MaxQubits = 27

// State is an n-qubit statevector. Basis state indices use qubit 0 as the
// least significant bit.
type State struct {
	n    int
	amps []complex128
}

func errQubitCount(n int) error {
	return fmt.Errorf("qsim: qubit count %d outside [1, %d]", n, MaxQubits)
}

// NewState allocates |0...0⟩ over n qubits.
func NewState(n int) (*State, error) {
	if n < 1 || n > MaxQubits {
		return nil, errQubitCount(n)
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s, nil
}

// NumQubits returns the number of qubits.
func (s *State) NumQubits() int { return s.n }

// size returns the number of amplitudes.
func (s *State) size() uint64 { return uint64(1) << uint(s.n) }

// Amplitude returns the amplitude of a basis state.
func (s *State) Amplitude(basis uint64) complex128 { return s.amps[basis] }

// SetUniform overwrites the state with |+⟩^n: every amplitude 2^(-n/2).
// It is what n Hadamards do to |0...0⟩, in one sweep.
func (s *State) SetUniform() {
	a := complex(math.Pow(2, -float64(s.n)/2), 0)
	amps := s.amps
	parRange(uint64(len(amps)), func(lo, hi uint64) {
		for i := lo; i < hi; i++ {
			amps[i] = a
		}
	})
}

// PhaseTable applies the diagonal operator exp(-iγ·diag(table)): amplitude
// i is multiplied by exp(-iγ·table[i]). With table = qubo.CostTable this is
// the QAOA cost layer exp(-iγH_C), exact up to a global phase.
func (s *State) PhaseTable(table []float64, gamma float64) {
	if uint64(len(table)) != s.size() {
		panic(fmt.Sprintf("qsim: table length %d != state size %d", len(table), s.size()))
	}
	amps := s.amps
	parRange(uint64(len(amps)), func(lo, hi uint64) {
		for i := lo; i < hi; i++ {
			sin, cos := math.Sincos(-gamma * table[i])
			amps[i] *= complex(cos, sin)
		}
	})
}

// apply1Q applies a 2x2 unitary to qubit q. The sweep enumerates only the
// 2^(n-1) indices whose q-th bit is clear (each visit updates the |0⟩/|1⟩
// amplitude pair at once) and shards the range across worker goroutines;
// chunks touch disjoint pairs, so no synchronisation is needed inside.
func (s *State) apply1Q(q int, u [2][2]complex128) {
	bit := uint64(1) << uint(q)
	amps := s.amps
	parRange(uint64(len(amps))>>1, func(lo, hi uint64) {
		for k := lo; k < hi; k++ {
			i := expandBit(k, bit)
			j := i | bit
			a0, a1 := amps[i], amps[j]
			amps[i] = u[0][0]*a0 + u[0][1]*a1
			amps[j] = u[1][0]*a0 + u[1][1]*a1
		}
	})
}

// phase2Q multiplies amplitudes by basis-dependent phases for a diagonal
// two-qubit gate: d[b] where b = (bit of q1)<<1 | (bit of q0). The sweep
// enumerates the quarter of the index space with both bits clear and
// updates all four bit combinations per visit, branch-free.
func (s *State) phase2Q(q0, q1 int, d [4]complex128) {
	b0 := uint64(1) << uint(q0)
	b1 := uint64(1) << uint(q1)
	loM, hiM := sortMasks(b0, b1)
	amps := s.amps
	parRange(uint64(len(amps))>>2, func(lo, hi uint64) {
		for k := lo; k < hi; k++ {
			i00 := expandBits2(k, loM, hiM)
			amps[i00] *= d[0]
			amps[i00|b0] *= d[1]
			amps[i00|b1] *= d[2]
			amps[i00|b0|b1] *= d[3]
		}
	})
}

// ApplyGate applies one gate.
func (s *State) ApplyGate(g circuit.Gate) error {
	switch g.Kind {
	case circuit.H:
		h := complex(1/math.Sqrt2, 0)
		s.apply1Q(g.Q0, [2][2]complex128{{h, h}, {h, -h}})
	case circuit.X:
		s.apply1Q(g.Q0, [2][2]complex128{{0, 1}, {1, 0}})
	case circuit.SX:
		// sqrt(X) = 1/2 [[1+i, 1-i], [1-i, 1+i]]
		p := complex(0.5, 0.5)
		m := complex(0.5, -0.5)
		s.apply1Q(g.Q0, [2][2]complex128{{p, m}, {m, p}})
	case circuit.RX:
		c := complex(math.Cos(g.Param/2), 0)
		si := complex(0, -math.Sin(g.Param/2))
		s.apply1Q(g.Q0, [2][2]complex128{{c, si}, {si, c}})
	case circuit.RY:
		c := complex(math.Cos(g.Param/2), 0)
		si := complex(math.Sin(g.Param/2), 0)
		s.apply1Q(g.Q0, [2][2]complex128{{c, -si}, {si, c}})
	case circuit.RZ:
		em := cmplx.Exp(complex(0, -g.Param/2))
		ep := cmplx.Exp(complex(0, g.Param/2))
		s.apply1Q(g.Q0, [2][2]complex128{{em, 0}, {0, ep}})
	case circuit.CX:
		// Enumerate the quarter with {ctrl set, tgt clear}: exactly the
		// index pairs the gate exchanges.
		ctrl := uint64(1) << uint(g.Q0)
		tgt := uint64(1) << uint(g.Q1)
		loM, hiM := sortMasks(ctrl, tgt)
		amps := s.amps
		parRange(uint64(len(amps))>>2, func(lo, hi uint64) {
			for k := lo; k < hi; k++ {
				i := expandBits2(k, loM, hiM) | ctrl
				j := i | tgt
				amps[i], amps[j] = amps[j], amps[i]
			}
		})
	case circuit.CZ:
		s.phase2Q(g.Q0, g.Q1, [4]complex128{1, 1, 1, -1})
	case circuit.SWAP:
		// Enumerate the quarter with both bits clear; each visit exchanges
		// the |01⟩/|10⟩ pair above it.
		a := uint64(1) << uint(g.Q0)
		b := uint64(1) << uint(g.Q1)
		loM, hiM := sortMasks(a, b)
		amps := s.amps
		parRange(uint64(len(amps))>>2, func(lo, hi uint64) {
			for k := lo; k < hi; k++ {
				base := expandBits2(k, loM, hiM)
				i := base | a
				j := base | b
				amps[i], amps[j] = amps[j], amps[i]
			}
		})
	case circuit.RZZ:
		em := cmplx.Exp(complex(0, -g.Param/2))
		ep := cmplx.Exp(complex(0, g.Param/2))
		s.phase2Q(g.Q0, g.Q1, [4]complex128{em, ep, ep, em})
	case circuit.XX:
		// exp(-i θ/2 X⊗X): mixes |00⟩↔|11⟩ and |01⟩↔|10⟩; enumerate the
		// both-clear quarter and update all four amplitudes per visit.
		c := complex(math.Cos(g.Param/2), 0)
		si := complex(0, -math.Sin(g.Param/2))
		b0 := uint64(1) << uint(g.Q0)
		b1 := uint64(1) << uint(g.Q1)
		loM, hiM := sortMasks(b0, b1)
		amps := s.amps
		parRange(uint64(len(amps))>>2, func(lo, hi uint64) {
			for k := lo; k < hi; k++ {
				i00 := expandBits2(k, loM, hiM)
				i01, i10, i11 := i00|b0, i00|b1, i00|b0|b1
				a00, a01, a10, a11 := amps[i00], amps[i01], amps[i10], amps[i11]
				amps[i00] = c*a00 + si*a11
				amps[i11] = c*a11 + si*a00
				amps[i01] = c*a01 + si*a10
				amps[i10] = c*a10 + si*a01
			}
		})
	default:
		return errUnsupported(g)
	}
	return nil
}

// errUnsupported reports a gate kind the simulator cannot execute.
func errUnsupported(g circuit.Gate) error {
	return fmt.Errorf("qsim: unsupported gate kind %v", g.Kind)
}

// Run executes all gates of a circuit in order.
func (s *State) Run(c *circuit.Circuit) error {
	if c.NumQubits != s.n {
		return fmt.Errorf("qsim: circuit has %d qubits, state has %d", c.NumQubits, s.n)
	}
	for _, g := range c.Gates {
		if err := s.ApplyGate(g); err != nil {
			return err
		}
	}
	return nil
}

// Norm returns the state norm (should remain 1 up to rounding).
func (s *State) Norm() float64 {
	t := 0.0
	for _, a := range s.amps {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(t)
}

// Probability returns |⟨basis|ψ⟩|².
func (s *State) Probability(basis uint64) float64 {
	a := s.amps[basis]
	return real(a)*real(a) + imag(a)*imag(a)
}

// ExpectationDiag computes ⟨ψ| f |ψ⟩ for a diagonal observable given as a
// function of the basis state — exactly what QAOA needs for QUBO cost
// Hamiltonians.
func (s *State) ExpectationDiag(f func(basis uint64) float64) float64 {
	e := 0.0
	for i, a := range s.amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > 0 {
			e += p * f(uint64(i))
		}
	}
	return e
}

// expectationChunkBits fixes the reduction granularity of ExpectationTable
// so its result does not depend on the worker count: partial sums are
// always taken over the same aligned 2^expectationChunkBits blocks and
// combined in index order.
const expectationChunkBits = 14

// ExpectationTable computes ⟨ψ| diag(table) |ψ⟩ with table indexed by basis
// state. It is the fast path for QAOA energy evaluation: the cost of every
// basis state is a precomputed table lookup (qubo.CostTable) instead of a
// per-amplitude Hamiltonian evaluation. Deterministic regardless of the
// kernel worker setting.
func (s *State) ExpectationTable(table []float64) float64 {
	total := s.size()
	if uint64(len(table)) != total {
		panic(fmt.Sprintf("qsim: table length %d != state size %d", len(table), total))
	}
	nChunks := (total + (1 << expectationChunkBits) - 1) >> expectationChunkBits
	partial := make([]float64, nChunks)
	amps := s.amps
	parRangeMin(nChunks, 2, func(clo, chi uint64) {
		for c := clo; c < chi; c++ {
			lo := c << expectationChunkBits
			hi := lo + (1 << expectationChunkBits)
			if hi > total {
				hi = total
			}
			e := 0.0
			for i := lo; i < hi; i++ {
				a := amps[i]
				p := real(a)*real(a) + imag(a)*imag(a)
				e += p * table[i]
			}
			partial[c] = e
		}
	})
	e := 0.0
	for _, p := range partial {
		e += p
	}
	return e
}

// Sample draws shots basis states from the measurement distribution using
// sorted uniforms and a single pass over the amplitudes, avoiding a
// cumulative array (important at 2^27 amplitudes).
func (s *State) Sample(rng *rand.Rand, shots int) []uint64 {
	rngs := [1]*rand.Rand{rng}
	return s.sampleStreams(rngs[:], shots)[0]
}

// SampleBatch draws shots basis states for every rng in one shared pass
// over the amplitudes — the multi-seed fast path for batched solves, where
// per-restart re-walks of the state would otherwise dominate. Stream k's
// output is bit-identical to s.Sample(rngs[k], shots) run on its own: each
// rng's draw order (shots uniforms, then the shuffle) is unchanged, the
// cumulative scan sums probabilities in the same index order, and the
// rounding-tail argmax is snapshotted at the index where that stream's
// scan would have stopped.
func (s *State) SampleBatch(rngs []*rand.Rand, shots int) [][]uint64 {
	return s.sampleStreams(rngs, shots)
}

// sampleStreams is the shared cumulative scan behind Sample/SampleBatch.
func (s *State) sampleStreams(rngs []*rand.Rand, shots int) [][]uint64 {
	nStreams := len(rngs)
	us := make([][]float64, nStreams)
	outs := make([][]uint64, nStreams)
	for r, rng := range rngs {
		u := make([]float64, shots)
		for i := range u {
			u[i] = rng.Float64()
		}
		sort.Float64s(u)
		us[r] = u
		outs[r] = make([]uint64, 0, shots)
	}
	// tails[r] records the running argmax at the moment stream r consumed
	// its last uniform — exactly the value a solo Sample would have seen at
	// its early break.
	tails := make([]uint64, nStreams)
	live := make([]bool, nStreams)
	for r := range live {
		live[r] = true
	}
	remaining := nStreams
	acc := 0.0
	maxI, maxP := uint64(0), -1.0
	scan := func(i uint64, p float64) bool {
		if p > maxP {
			maxI, maxP = i, p
		}
		acc += p
		for r := 0; r < nStreams; r++ {
			if !live[r] {
				continue
			}
			u := us[r]
			k := len(outs[r])
			for k < shots && u[k] <= acc {
				outs[r] = append(outs[r], i)
				k++
			}
			if k == shots {
				live[r] = false
				tails[r] = maxI
				remaining--
			}
		}
		return remaining == 0
	}
	for i, a := range s.amps {
		if scan(uint64(i), real(a)*real(a)+imag(a)*imag(a)) {
			break
		}
	}
	for r, out := range outs {
		// Rounding may leave a few shots unassigned; give them the most
		// likely state seen so far rather than the arbitrary last index.
		tail := tails[r]
		if live[r] {
			tail = maxI
		}
		for len(out) < shots {
			out = append(out, tail)
		}
		// Restore randomness of order (callers may subsample).
		rngs[r].Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		outs[r] = out
	}
	return outs
}

// BitsOf unpacks a sampled basis state into a boolean assignment of n
// variables (bit i → variable i).
func BitsOf(basis uint64, n int) []bool {
	x := make([]bool, n)
	for i := 0; i < n; i++ {
		x[i] = basis&(1<<uint(i)) != 0
	}
	return x
}
