package qsim

import (
	"fmt"
	"math/rand"
	"testing"

	"quantumjoin/internal/circuit"
)

// benchQubits are the statevector sizes the kernel benchmarks sweep. 24
// qubits is 256 MiB of amplitudes — skipped under -short.
func benchQubits(b *testing.B) []int {
	if testing.Short() {
		return []int{16}
	}
	return []int{16, 20, 24}
}

func benchState(b *testing.B, n int) *State {
	s, err := NewState(n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	norm := 0.0
	for i := range s.amps {
		s.amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(s.amps[i])*real(s.amps[i]) + imag(s.amps[i])*imag(s.amps[i])
	}
	// Leave unnormalised: kernels don't care and the fill dominates setup.
	_ = norm
	return s
}

// BenchmarkQsimH measures a Hadamard sweep over every qubit, comparing the
// reference full-sweep kernel against the strided kernel serial and with
// full fan-out.
func BenchmarkQsimH(b *testing.B) {
	h := complex(0.7071067811865476, 0)
	u := [2][2]complex128{{h, h}, {h, -h}}
	for _, n := range benchQubits(b) {
		s := benchState(b, n)
		b.Run(fmt.Sprintf("n=%d/ref", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.apply1QRef(i%n, u)
			}
		})
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			prev := SetWorkers(1)
			defer SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				s.apply1Q(i%n, u)
			}
		})
		b.Run(fmt.Sprintf("n=%d/parallel", n), func(b *testing.B) {
			prev := SetWorkers(0)
			defer SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				s.apply1Q(i%n, u)
			}
		})
	}
}

// BenchmarkQsimCXChain measures a chain of CXs across adjacent qubits.
func BenchmarkQsimCXChain(b *testing.B) {
	for _, n := range benchQubits(b) {
		s := benchState(b, n)
		chain := circuit.New(n)
		for q := 0; q+1 < n; q++ {
			chain.Append(circuit.G2(circuit.CX, q, q+1, 0))
		}
		b.Run(fmt.Sprintf("n=%d/ref", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.runRef(chain); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			prev := SetWorkers(1)
			defer SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				if err := s.Run(chain); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/parallel", n), func(b *testing.B) {
			prev := SetWorkers(0)
			defer SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				if err := s.Run(chain); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQsimPhaseTable measures one QAOA cost layer applied from a
// dense cost table, serial and with full fan-out.
func BenchmarkQsimPhaseTable(b *testing.B) {
	for _, n := range benchQubits(b) {
		s := benchState(b, n)
		rng := rand.New(rand.NewSource(2))
		table := make([]float64, 1<<uint(n))
		for i := range table {
			table[i] = rng.NormFloat64()
		}
		for _, w := range []int{1, 0} {
			name := "serial"
			if w == 0 {
				name = "parallel"
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				prev := SetWorkers(w)
				defer SetWorkers(prev)
				for i := 0; i < b.N; i++ {
					s.PhaseTable(table, 0.37)
				}
			})
		}
	}
}
