package core

import (
	"quantumjoin/internal/join"
	"quantumjoin/internal/linprog"
)

// QubitBound is the breakdown of the logical-qubit upper bound of
// Theorem 5.3 for a concrete query.
type QubitBound struct {
	// TIOTII counts the 2TJ table-in-operand variables.
	TIOTII int
	// PAO counts the P(J-1) predicate-applicability variables.
	PAO int
	// CTO counts the R(J-1) threshold variables (upper bound, no pruning).
	CTO int
	// DisjointSlack counts the T binary slacks of Eq. 4.
	DisjointSlack int
	// PAOSlack counts the 2P(J-1) binary slacks of Eq. 5.
	PAOSlack int
	// ThresholdSlack counts the R·Σ_j (⌊log2(c_jmax/ω)⌋+1) discretised
	// slack bits of Eq. 7 (Lemma 5.1 bound).
	ThresholdSlack int
}

// Total is the overall upper bound n on binary variables / logical qubits.
func (b QubitBound) Total() int {
	return b.TIOTII + b.PAO + b.CTO + b.DisjointSlack + b.PAOSlack + b.ThresholdSlack
}

// UpperBound evaluates the Theorem 5.3 upper bound
//
//	n <= 2TJ + (3P+R)(J−1) + T + R Σ_{j=1}^{J−1} (⌊log2(c_jmax/ω)⌋ + 1)
//
// for a query with R threshold values at discretisation precision omega.
func UpperBound(q *join.Query, r int, omega float64) QubitBound {
	t := q.NumRelations()
	j := q.NumJoins()
	p := q.NumPredicates()
	b := QubitBound{
		TIOTII:        2 * t * j,
		PAO:           p * (j - 1),
		CTO:           r * (j - 1),
		DisjointSlack: t,
		PAOSlack:      2 * p * (j - 1),
	}
	cj := cjMaxes(q)
	for jj := 1; jj < j; jj++ {
		b.ThresholdSlack += r * linprog.SlackBits(cj[jj], omega)
	}
	return b
}

// ModelCounts summarises variable and constraint counts per type for the
// Table 1 comparison of the original and pruned models.
type ModelCounts struct {
	// Constraint counts.
	DisjointCons  int // tio + tii <= 1
	PAOCons       int // pao <= tio (both endpoints combined count)
	ThresholdCons int // Eq. 7
	// Variable counts.
	PAOVars int
	CTOVars int
}

// ExpectedCounts returns the closed-form Table 1 counts for a query with R
// thresholds: the original model versus the pruned model. The pruned
// threshold rows are upper bounds (<=) because instance-specific pruning
// of cto variables may remove more (§3.2).
func ExpectedCounts(t, j, p, r int, original bool) ModelCounts {
	if original {
		return ModelCounts{
			DisjointCons:  t * j,
			PAOCons:       2 * p * j,
			ThresholdCons: r * j,
			PAOVars:       p * j,
			CTOVars:       r * j,
		}
	}
	return ModelCounts{
		DisjointCons:  t,
		PAOCons:       2 * p * (j - 1),
		ThresholdCons: r * (j - 1),
		PAOVars:       p * (j - 1),
		CTOVars:       r * (j - 1),
	}
}

// Counts tallies the actual per-type variable and constraint counts of a
// built encoding, for verifying the Table 1 formulas.
func (e *Encoding) Counts() ModelCounts {
	var c ModelCounts
	for _, info := range e.Infos {
		switch info.Kind {
		case PAO:
			c.PAOVars++
		case CTO:
			c.CTOVars++
		}
	}
	for _, con := range e.MILP.Cons {
		switch {
		case len(con.Name) >= 8 && con.Name[:8] == "disjoint":
			c.DisjointCons++
		case len(con.Name) >= 3 && con.Name[:3] == "pao":
			c.PAOCons++
		case len(con.Name) >= 9 && con.Name[:9] == "threshold":
			c.ThresholdCons++
		}
	}
	return c
}
