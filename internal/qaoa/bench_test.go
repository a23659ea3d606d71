package qaoa

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkQAOAExpectation measures one optimiser energy evaluation (state
// preparation from the cost table plus the expectation) and the
// expectation sweep alone. The table is built once outside the timed loop,
// as it is in a real run (cached across optimiser iterations).
func BenchmarkQAOAExpectation(b *testing.B) {
	sizes := []int{12, 16, 20}
	if testing.Short() {
		sizes = []int{16}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		q := denseQUBO(rng, n)
		params := NewParams(1)
		params.Gammas[0] = 0.37
		params.Betas[0] = 0.41

		b.Run(fmt.Sprintf("n=%d/table", n), func(b *testing.B) {
			ex := &Executor{QUBO: q}
			defer ex.Close()
			if _, err := ex.Expectation(params); err != nil {
				b.Fatal(err) // warm: builds table and pooled state
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Expectation(params); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Isolate the expectation sweep itself (no state preparation).
		b.Run(fmt.Sprintf("n=%d/sweep-table", n), func(b *testing.B) {
			ex := &Executor{QUBO: q}
			defer ex.Close()
			s, err := ex.run(params)
			if err != nil {
				b.Fatal(err)
			}
			tab := ex.table()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.ExpectationTable(tab)
			}
		})
	}
}
