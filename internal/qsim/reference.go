package qsim

// Reference kernels: the original single-threaded full-sweep gate
// implementations, retained verbatim as the ground truth for the
// equivalence tests and the serial baseline for the kernel benchmarks.
// The production kernels in qsim.go visit only the bit-clear half (or
// quarter) of the index space and shard across worker goroutines; these
// sweep all 2^n amplitudes with per-index branching.

import (
	"math"
	"math/cmplx"

	"quantumjoin/internal/circuit"
)

// apply1QRef applies a 2x2 unitary to qubit q with a full index sweep.
func (s *State) apply1QRef(q int, u [2][2]complex128) {
	bit := uint64(1) << uint(q)
	for i := uint64(0); i < uint64(len(s.amps)); i++ {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		a0, a1 := s.amps[i], s.amps[j]
		s.amps[i] = u[0][0]*a0 + u[0][1]*a1
		s.amps[j] = u[1][0]*a0 + u[1][1]*a1
	}
}

// phase2QRef multiplies amplitudes by basis-dependent phases for a
// diagonal two-qubit gate with a full index sweep.
func (s *State) phase2QRef(q0, q1 int, d [4]complex128) {
	b0 := uint64(1) << uint(q0)
	b1 := uint64(1) << uint(q1)
	for i := uint64(0); i < uint64(len(s.amps)); i++ {
		idx := 0
		if i&b0 != 0 {
			idx |= 1
		}
		if i&b1 != 0 {
			idx |= 2
		}
		if d[idx] != 1 {
			s.amps[i] *= d[idx]
		}
	}
}

// ApplyGateRef applies one gate through the reference kernels.
func (s *State) ApplyGateRef(g circuit.Gate) error {
	switch g.Kind {
	case circuit.H:
		h := complex(1/math.Sqrt2, 0)
		s.apply1QRef(g.Q0, [2][2]complex128{{h, h}, {h, -h}})
	case circuit.X:
		s.apply1QRef(g.Q0, [2][2]complex128{{0, 1}, {1, 0}})
	case circuit.SX:
		p := complex(0.5, 0.5)
		m := complex(0.5, -0.5)
		s.apply1QRef(g.Q0, [2][2]complex128{{p, m}, {m, p}})
	case circuit.RX:
		c := complex(math.Cos(g.Param/2), 0)
		si := complex(0, -math.Sin(g.Param/2))
		s.apply1QRef(g.Q0, [2][2]complex128{{c, si}, {si, c}})
	case circuit.RY:
		c := complex(math.Cos(g.Param/2), 0)
		si := complex(math.Sin(g.Param/2), 0)
		s.apply1QRef(g.Q0, [2][2]complex128{{c, -si}, {si, c}})
	case circuit.RZ:
		em := cmplx.Exp(complex(0, -g.Param/2))
		ep := cmplx.Exp(complex(0, g.Param/2))
		s.apply1QRef(g.Q0, [2][2]complex128{{em, 0}, {0, ep}})
	case circuit.CX:
		ctrl := uint64(1) << uint(g.Q0)
		tgt := uint64(1) << uint(g.Q1)
		for i := uint64(0); i < uint64(len(s.amps)); i++ {
			if i&ctrl != 0 && i&tgt == 0 {
				j := i | tgt
				s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
			}
		}
	case circuit.CZ:
		s.phase2QRef(g.Q0, g.Q1, [4]complex128{1, 1, 1, -1})
	case circuit.SWAP:
		a := uint64(1) << uint(g.Q0)
		b := uint64(1) << uint(g.Q1)
		for i := uint64(0); i < uint64(len(s.amps)); i++ {
			if i&a != 0 && i&b == 0 {
				j := (i &^ a) | b
				s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
			}
		}
	case circuit.RZZ:
		em := cmplx.Exp(complex(0, -g.Param/2))
		ep := cmplx.Exp(complex(0, g.Param/2))
		s.phase2QRef(g.Q0, g.Q1, [4]complex128{em, ep, ep, em})
	case circuit.XX:
		c := complex(math.Cos(g.Param/2), 0)
		si := complex(0, -math.Sin(g.Param/2))
		b0 := uint64(1) << uint(g.Q0)
		b1 := uint64(1) << uint(g.Q1)
		for i := uint64(0); i < uint64(len(s.amps)); i++ {
			if i&b0 != 0 || i&b1 != 0 {
				continue
			}
			i00, i01, i10, i11 := i, i|b0, i|b1, i|b0|b1
			a00, a01, a10, a11 := s.amps[i00], s.amps[i01], s.amps[i10], s.amps[i11]
			s.amps[i00] = c*a00 + si*a11
			s.amps[i11] = c*a11 + si*a00
			s.amps[i01] = c*a01 + si*a10
			s.amps[i10] = c*a10 + si*a01
		}
	default:
		return errUnsupported(g)
	}
	return nil
}

// runRef executes a circuit gate by gate through the reference kernels.
func (s *State) runRef(c *circuit.Circuit) error {
	for _, g := range c.Gates {
		if err := s.ApplyGateRef(g); err != nil {
			return err
		}
	}
	return nil
}
