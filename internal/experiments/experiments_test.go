package experiments

import (
	"bytes"
	"strings"
	"testing"

	"quantumjoin/internal/transpile"
)

// tiny returns a configuration small enough for unit tests (seconds).
func tiny() Config {
	return Config{
		Seed:                3,
		TranspileRuns:       3,
		QAOAShots:           256,
		QAOAIterations:      []int{2},
		MaxQAOAQubits:       18,
		EmbedRelations:      []int{3, 4, 5},
		EmbedFixedRelations: 4,
		EmbedMaxThresholds:  3,
		PegasusM:            4,
		AnnealReads:         60,
		AnnealInstances:     2,
		AnnealTimes:         []float64{20},
		AnnealRelations:     []int{3, 4},
		BoundMaxRelations:   20,
		CoDesignRelations:   []int{2, 3},
		CoDesignDensities:   []float64{0, 0.5},
	}
}

func TestRunTable1(t *testing.T) {
	res, err := RunTable1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.CountP > row.CountO {
			t.Errorf("%s %s: pruned %d > original %d", row.Kind, row.Type, row.CountP, row.CountO)
		}
	}
	if res.QubitsPruned >= res.QubitsOriginal {
		t.Error("pruning saved no qubits")
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "pruned") {
		t.Error("render missing content")
	}
}

func TestRunFigure2(t *testing.T) {
	cfg := tiny()
	res, err := RunFigure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 precision + 4 predicates + 8 device rows.
	if len(res.Rows) != 16 {
		t.Fatalf("%d rows, want 16", len(res.Rows))
	}
	// Shape 1: depth grows with precision.
	d0, _ := res.MedianFor("precision", "ω=1e-0")
	d3, _ := res.MedianFor("precision", "ω=1e-3")
	if d3 <= d0 {
		t.Errorf("precision did not increase depth: %v vs %v", d0, d3)
	}
	// Shape 2: precision grows depth at least as fast as predicates at
	// equal qubit count (27): compare the two 27-qubit scenarios.
	p3, _ := res.MedianFor("predicates", "3 predicates")
	if d3 < p3*0.5 {
		t.Errorf("precision series unexpectedly shallow: %v vs predicates %v", d3, p3)
	}
	// Shape 3 (the paper's §4.2.1 conclusion): the larger Washington
	// machine is NOT more capable — its coherence budget is lower and
	// none of its runs fit it, while Auckland can still run the smallest
	// scenario.
	var aucklandFits, washingtonFits int
	var aucklandBudget, washingtonBudget int
	for _, row := range res.Rows {
		if row.Panel != "device" {
			continue
		}
		if strings.HasPrefix(row.Label, "auckland") {
			aucklandBudget = row.Budget
			if row.Feasible {
				aucklandFits++
			}
		} else {
			washingtonBudget = row.Budget
			if row.Feasible {
				washingtonFits++
			}
		}
	}
	if washingtonBudget >= aucklandBudget {
		t.Errorf("Washington budget %d should be below Auckland's %d", washingtonBudget, aucklandBudget)
	}
	if aucklandFits == 0 {
		t.Error("no scenario fits Auckland's coherence budget")
	}
	if washingtonFits > aucklandFits {
		t.Errorf("Washington fits more scenarios (%d) than Auckland (%d)", washingtonFits, aucklandFits)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("render missing header")
	}
}

func TestRunTable2(t *testing.T) {
	cfg := tiny()
	res, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 4 predicate scenarios × 1 iteration count
		t.Fatalf("%d rows", len(res.Rows))
	}
	ran := 0
	for _, row := range res.Rows {
		if row.Skipped {
			if row.Qubits <= cfg.MaxQAOAQubits {
				t.Error("skipped a runnable size")
			}
			continue
		}
		ran++
		if row.Valid < 0 || row.Valid > 1 || row.Optimal > row.Valid {
			t.Errorf("implausible fractions: %+v", row)
		}
		// Deep NISQ circuits: λ must be essentially 1, and the valid rate
		// near the combinatorial noise floor (~9% for 3 relations),
		// matching the paper's 7–13%.
		if row.Lambda < 0.9 {
			t.Errorf("λ = %v unexpectedly small", row.Lambda)
		}
		if row.Valid < 0.02 || row.Valid > 0.25 {
			t.Errorf("valid rate %v outside the noise-floor band", row.Valid)
		}
	}
	if ran == 0 {
		t.Fatal("no scenario actually ran")
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Error("render missing header")
	}
}

func TestRunTiming(t *testing.T) {
	res, err := RunTiming(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Ratio < 10 {
			t.Errorf("t_qpu/t_s ratio %v too small; paper reports orders of magnitude", row.Ratio)
		}
	}
	// Problem size has negligible impact on total QPU time.
	small, large := res.Rows[0], res.Rows[1]
	if large.TotalQPUs > small.TotalQPUs*1.5 {
		t.Errorf("t_qpu grew strongly with size: %v -> %v", small.TotalQPUs, large.TotalQPUs)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "t_qpu") {
		t.Error("render missing content")
	}
}

func TestRunFigure3(t *testing.T) {
	cfg := tiny()
	res, err := RunFigure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Physical qubits grow with relations within each graph type.
	last := map[string]int{}
	for _, row := range res.Rows {
		if row.Panel != "relations" || !row.OK {
			continue
		}
		key := row.Graph.String()
		if prev, ok := last[key]; ok && row.PhysicalQubits < prev/2 {
			t.Errorf("%s: physical qubits dropped sharply: %d after %d", key, row.PhysicalQubits, prev)
		}
		last[key] = row.PhysicalQubits
	}
	if len(last) != 3 {
		t.Fatalf("missing graph types: %v", last)
	}
	// Embedding overhead stays a modest multiple of the logical size.
	for _, f := range res.OverheadFactor() {
		if f < 1 || f > 12 {
			t.Errorf("embedding overhead factor %v implausible", f)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("render missing header")
	}
	// Discretisation frontier: higher precision (smaller ω) must not allow
	// more thresholds.
	front := res.MaxFeasibleThresholds()
	if front[0.0001] > front[1] {
		t.Errorf("frontier inverted: %v", front)
	}
}

func TestRunTable3(t *testing.T) {
	cfg := tiny()
	res, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// chain{3,4} + star{3(n/a),4} + cycle{3,4} = 6 cells × 1 time.
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	na := 0
	for _, row := range res.Rows {
		if !row.Applicable {
			na++
			continue
		}
		if row.Optimal > row.Valid+1e-9 {
			t.Errorf("optimal %v exceeds valid %v", row.Optimal, row.Valid)
		}
	}
	if na != 1 {
		t.Errorf("%d not-applicable cells, want 1 (star/3)", na)
	}
	// Quality declines with relations (the paper's steep decline).
	if res.ValidFor(4) > res.ValidFor(3)+0.05 {
		t.Errorf("valid rate did not decline: 3rel=%v 4rel=%v", res.ValidFor(3), res.ValidFor(4))
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Error("render missing header")
	}
}

func TestRunFigure4(t *testing.T) {
	cfg := tiny()
	res, err := RunFigure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Quadratic-ish growth: bound(2n) >= 3*bound(n) for fixed settings.
	b10, ok1 := res.BoundFor(10, 2, 0)
	b20, ok2 := res.BoundFor(20, 2, 0)
	if !ok1 || !ok2 {
		t.Fatal("missing bound points")
	}
	if b20 < 3*b10 {
		t.Errorf("bound not superlinear: %d vs %d", b10, b20)
	}
	// More thresholds and precision increase the bound.
	b1, _ := res.BoundFor(16, 1, 0)
	b5, _ := res.BoundFor(16, 5, 0)
	bPrec, _ := res.BoundFor(16, 1, 4)
	if b5 <= b1 || bPrec <= b1 {
		t.Errorf("bound ordering wrong: R1d0=%d R5d0=%d R1d4=%d", b1, b5, bPrec)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("render missing header")
	}
}

func TestRunFigure5(t *testing.T) {
	cfg := tiny()
	res, err := RunFigure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Shape: density reduces depth on IBM for the largest instance.
	n := cfg.CoDesignRelations[len(cfg.CoDesignRelations)-1]
	base, ok1 := res.MedianFor("ibm", n, 0, transpile.IBMNative, transpile.RouterLookahead)
	dense, ok2 := res.MedianFor("ibm", n, 0.5, transpile.IBMNative, transpile.RouterLookahead)
	if !ok1 || !ok2 {
		t.Fatal("missing IBM rows")
	}
	if dense >= base {
		t.Errorf("density 0.5 did not reduce depth: %v vs %v", dense, base)
	}
	// Shape: IonQ (complete mesh) is the shallowest platform at native
	// gates.
	ionq, ok := res.MedianFor("ionq", n, 0, transpile.IonQNative, transpile.RouterLookahead)
	if !ok {
		t.Fatal("missing IonQ row")
	}
	if ionq > base {
		t.Errorf("IonQ depth %v above IBM baseline %v", ionq, base)
	}
	// Shape: the weaker router is never substantially better.
	lb, _ := res.MedianFor("ibm", n, 0, transpile.IBMNative, transpile.RouterLookahead)
	bb, _ := res.MedianFor("ibm", n, 0, transpile.IBMNative, transpile.RouterBasic)
	if bb < lb*0.8 {
		t.Errorf("basic router substantially beat lookahead: %v vs %v", bb, lb)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("render missing header")
	}
}

func TestRunGenerations(t *testing.T) {
	cfg := tiny()
	res, err := RunGenerations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	betterOrEqual := 0
	comparable := 0
	for _, row := range res.Rows {
		if row.ChimeraOK && row.PegasusOK {
			comparable++
			if row.PegasusQubits <= row.ChimeraQubits {
				betterOrEqual++
			}
		}
	}
	if comparable == 0 {
		t.Fatal("no instance embedded on both generations")
	}
	if betterOrEqual*2 < comparable {
		t.Errorf("Pegasus smaller in only %d/%d comparable rows", betterOrEqual, comparable)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "generations") {
		t.Error("render missing header")
	}
}

func TestRunAblation(t *testing.T) {
	cfg := tiny()
	res, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(res.Rows))
	}
	// The log-objective variant must shrink the coefficient range.
	byName := map[string]AblationRow{}
	for _, row := range res.Rows {
		if row.Relations == 3 {
			byName[row.Variant] = row
		}
	}
	lin := byName["linear-objective (paper)"]
	logv := byName["log-objective"]
	if logv.MaxCoeff >= lin.MaxCoeff {
		t.Errorf("log objective did not shrink coefficients: %v vs %v", logv.MaxCoeff, lin.MaxCoeff)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "Ablation") {
		t.Error("render missing header")
	}
}
