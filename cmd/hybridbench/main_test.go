package main

import (
	"reflect"
	"testing"

	"quantumjoin/internal/querygen"
)

// TestToIsingProblemDeterministic: two conversions of the same QUBO give
// the same coupling lists, so energies and annealing runs are
// reproducible — seed 3 is the case whose warm-start energies once
// differed between runs.
func TestToIsingProblemDeterministic(t *testing.T) {
	q, enc, _ := instance(querygen.Clique, 8, 3)
	warm := warmIncumbent(q, enc)
	a, sa := toIsingProblem(enc.QUBO, warm)
	b, sb := toIsingProblem(enc.QUBO, warm)
	if !reflect.DeepEqual(a.Adj, b.Adj) {
		t.Fatal("two conversions produced different coupling lists")
	}
	if ea, eb := a.Energy(sa), b.Energy(sb); ea != eb {
		t.Fatalf("incumbent energy %v vs %v", ea, eb)
	}
	if x, y := warmSACase("clique", 8, 3), warmSACase("clique", 8, 3); x != y {
		t.Fatalf("warm-start sa case differs between runs:\n%+v\n%+v", x, y)
	}
}
