package qsim

import "sync"

// Per-size amplitude buffer pools. Variational loops (QAOA optimisers)
// allocate a fresh 2^n statevector per energy evaluation; at 20+ qubits
// that is tens of MiB per call, all garbage. Acquire/Release recycle the
// backing arrays through a sync.Pool per qubit count.
var ampPools [MaxQubits + 1]sync.Pool

// Acquire returns a |0...0⟩ state over n qubits, reusing a previously
// Released amplitude buffer when one is available. Call Release when done.
func Acquire(n int) (*State, error) {
	if n < 1 || n > MaxQubits {
		return nil, errQubitCount(n)
	}
	if v := ampPools[n].Get(); v != nil {
		s := v.(*State)
		s.Reset()
		return s, nil
	}
	return NewState(n)
}

// Release returns the state's amplitude buffer to the pool for its size.
// The state must not be used afterwards.
func (s *State) Release() {
	if s == nil || s.n < 1 || s.n > MaxQubits || len(s.amps) != 1<<uint(s.n) {
		return
	}
	ampPools[s.n].Put(s)
}

// Reset reinitialises the state to |0...0⟩ in place.
func (s *State) Reset() {
	amps := s.amps
	parRange(uint64(len(amps)), func(lo, hi uint64) {
		for i := lo; i < hi; i++ {
			amps[i] = 0
		}
	})
	amps[0] = 1
}
