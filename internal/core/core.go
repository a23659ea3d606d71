// Package core implements the paper's primary contribution: the first QUBO
// formulation of the join ordering problem (§3), obtained in three steps:
//
//  1. a mixed-integer linear program for left-deep join trees with cross
//     products, after Trummer & Koch, manually pruned of redundant
//     variables and constraints (§3.1–3.2, Table 1),
//  2. a binary integer linear program (BILP) obtained by converting
//     inequalities to equalities with binary-discretised slack variables
//     at precision ω (§3.3),
//  3. the penalty-form QUBO H = A·H_constraints + B·H_cost (§3.4).
//
// It also implements the solution post-processing of §3.5 (decoding a join
// order from the tii variables and judging validity/optimality) and the
// formal qubit-demand analysis of §5 (Lemma 5.1, Lemma 5.2, Theorem 5.3).
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/join"
	"quantumjoin/internal/linprog"
	"quantumjoin/internal/minorembed"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/qubo"
	"quantumjoin/internal/topology"
)

// VarKind labels the semantic role of a model variable.
type VarKind int

const (
	// TIO marks a "table in outer operand" variable tio[t][j].
	TIO VarKind = iota
	// TII marks a "table in inner operand" variable tii[t][j].
	TII
	// PAO marks a "predicate applicable in outer operand" variable pao[p][j].
	PAO
	// CTO marks a "cardinality threshold reached by outer operand" variable
	// cto[r][j].
	CTO
)

// String implements fmt.Stringer.
func (k VarKind) String() string {
	switch k {
	case TIO:
		return "tio"
	case TII:
		return "tii"
	case PAO:
		return "pao"
	case CTO:
		return "cto"
	default:
		return fmt.Sprintf("VarKind(%d)", int(k))
	}
}

// VarInfo describes one decision variable of the MILP/BILP model. Exactly
// one of T/P/R is meaningful depending on Kind; J is the join index.
type VarInfo struct {
	Kind VarKind
	T    int // relation index (TIO, TII)
	P    int // predicate index (PAO)
	R    int // threshold index (CTO)
	J    int // join index
}

// Options configure the encoding.
type Options struct {
	// Thresholds are the cardinality threshold values θ_r used to
	// approximate intermediate result cardinalities (§3.2). Must be
	// positive and non-empty; use DefaultThresholds for a sensible spread.
	Thresholds []float64
	// Omega is the discretisation precision ω for continuous slack
	// variables (1 = integer precision, 0.1 = one decimal digit, ...).
	// Defaults to 1.
	Omega float64
	// Original disables the paper's manual pruning (§3.2, Table 1) and
	// builds the unpruned Trummer/Koch-style model instead; used for the
	// Table 1 comparison.
	Original bool
	// LogObjective uses log10(θ_r) instead of θ_r as the objective weight
	// of cto variables. The paper adds the plain threshold value; the log
	// variant is provided as an ablation because it dramatically shrinks
	// the coefficient range that annealers must represent.
	LogObjective bool
	// PenaltyEps is the ε added to the minimal penalty weight A (§3.4).
	// Defaults to 0.5.
	PenaltyEps float64
	// PenaltyA and PenaltyB override the automatically derived penalty
	// weights when non-zero.
	PenaltyA, PenaltyB float64
	// Compact selects the reduced-variable encoding after Nayak et al.:
	// the outer-operand variables tio[t][j] for j > 0 are eliminated by
	// substituting the recursion tio[t][j] = tio[t][0] + Σ_{j'<j} tii[t][j'],
	// which drops T·(J−1) decision variables and all J·T recursion equality
	// constraints. Operand disjointness collapses to one constraint per
	// relation (tio[t][0] + Σ_j tii[t][j] <= 1). Decoding is unchanged (it
	// reads only tii), and valid orders reach exactly zero penalty residual
	// just like the standard encoding. Incompatible with Original.
	Compact bool
}

func (o Options) withDefaults() Options {
	if o.Omega == 0 {
		o.Omega = 1
	}
	if o.PenaltyEps == 0 {
		o.PenaltyEps = 0.5
	}
	return o
}

// Encoding is the QUBO encoding of a join ordering problem along with the
// intermediate models and the variable metadata needed to decode QPU
// samples back into join orders. Encode returns it fully built. Prepare
// returns it validated but unbuilt: Query, Opts and NumQubits are set, and
// the model fields (MILP, BILP, QUBO, Infos, the penalties) stay zero
// until Build fills them. A backend that reads only Query and the optimum
// memo can therefore plan on a prepared encoding without paying for the
// MILP → BILP → QUBO build.
type Encoding struct {
	Query *join.Query
	Opts  Options

	// MILP is the (possibly pruned) model with inequality constraints.
	MILP *linprog.Model
	// BILP is the equality-only model after slack discretisation.
	BILP *linprog.Model
	// QUBO is the final penalty-form objective.
	QUBO *qubo.QUBO

	// Infos describes the decision variables (indices < len(Infos));
	// variables beyond are slack bits.
	Infos []VarInfo

	// PenaltyA and PenaltyB are the weights actually used.
	PenaltyA, PenaltyB float64

	tii [][]int // tii[t][j] -> variable index
	tio [][]int // tio[t][j] -> variable index

	// cjmax[j] is c_jmax of join j (Lemma 5.2), computed once per query;
	// qubits is the exact binary-variable count of the built QUBO.
	cjmax  []float64
	qubits int

	// Build runs the MILP → BILP → QUBO build until one run ends without
	// being cut short by its context, and keeps that run's error; built
	// turns true then. building is non-nil while a run is in progress
	// and is closed when it ends.
	buildMu  sync.Mutex
	building chan struct{}
	buildErr error
	built    atomic.Bool

	// Memoised classical optimum of Query (see OptimalContext in
	// decode.go) and minor embedding of QUBO (see Embedding).
	optPtr atomic.Pointer[classical.Result]
	embPtr atomic.Pointer[embeddingMemo]
}

// embeddingMemo is one stored minor embedding together with the inputs
// the embedder was run with.
type embeddingMemo struct {
	graph *topology.Graph
	tries int
	seed  int64
	emb   *minorembed.Embedding
}

// Embedding returns the minor embedding of QUBO into graph that
// SetEmbedding stored for the same embedder restart budget and seed, or
// nil. An encoding held in the service's LRU cache thereby embeds once
// per seed instead of once per request, and an evicted encoding drops
// its embedding with it. The returned embedding is shared and read-only.
func (e *Encoding) Embedding(graph *topology.Graph, tries int, seed int64) *minorembed.Embedding {
	if m := e.embPtr.Load(); m != nil && m.graph == graph && m.tries == tries && m.seed == seed {
		return m.emb
	}
	return nil
}

// SetEmbedding stores emb as the embedding of QUBO into graph for the
// given restart budget and seed, replacing any earlier one: the slot
// holds a single key. Store only embeddings the embedder computed with
// its full budget — one cut short by a cancelled context would make every
// later request with this seed depend on the first request's deadline.
func (e *Encoding) SetEmbedding(graph *topology.Graph, tries int, seed int64, emb *minorembed.Embedding) {
	e.embPtr.Store(&embeddingMemo{graph: graph, tries: tries, seed: seed, emb: emb})
}

// NumQubits returns the number of logical qubits the encoding needs (one
// per binary variable, §3.4). Prepare computes it exactly, so it never
// builds the QUBO.
func (e *Encoding) NumQubits() int { return e.qubits }

// NumDecisionVars returns the number of problem-encoding variables
// (excluding slack bits).
func (e *Encoding) NumDecisionVars() int { return len(e.Infos) }

// TIIVar returns the BILP variable index of tii[t][j].
func (e *Encoding) TIIVar(t, j int) int { return e.tii[t][j] }

// TIOVar returns the BILP variable index of tio[t][j]. The compact
// encoding only materialises tio[t][0] (later outer memberships are prefix
// sums over tii); asking for j > 0 there panics.
func (e *Encoding) TIOVar(t, j int) int { return e.tio[t][j] }

// MaxMonolithicRelations caps the relation count of a built QUBO
// encoding. Constraint lengths grow linearly and the squared penalty
// terms quadratically with the relation count (Theorem 5.3), so beyond
// this point one giant QUBO is slower to build than it is useful to
// solve. Build refuses larger queries; Prepare accepts them, so backends
// that read only the query (dp, greedy, decomp) still plan them. The
// decomp backend partitions such a query into bounded parts, plans each
// part classically and stitches the per-part orders.
const MaxMonolithicRelations = 32

// CheckMonolithic returns Build's refusal of q when q has more than
// MaxMonolithicRelations relations, or nil. A caller can check it before
// anything else it would do for a build.
func CheckMonolithic(q *join.Query) error {
	if n := q.NumRelations(); n > MaxMonolithicRelations {
		return fmt.Errorf("core: %d relations exceeds the %d-relation monolithic encoding limit; use the decomp backend, which partitions the join graph into parts, plans each part by exact DP and stitches the per-part orders", n, MaxMonolithicRelations)
	}
	return nil
}

// Encode builds the QUBO encoding for the query under the given options.
// Invalid instances — selectivities outside (0, 1], cardinalities below 1,
// NaN/Inf statistics — are rejected with a descriptive error rather than
// silently producing degenerate or NaN QUBO coefficients.
func Encode(q *join.Query, opts Options) (*Encoding, error) {
	return EncodeContext(context.Background(), q, opts)
}

// EncodeContext is Encode with per-stage tracing: Prepare followed by
// Build, so when ctx carries an active obs span the build runs under an
// "encode" span whose children record the model size each stage produced.
// Like Build, it fails with ctx's error when ctx ends before a stage.
func EncodeContext(ctx context.Context, q *join.Query, opts Options) (*Encoding, error) {
	e, err := Prepare(q, opts)
	if err != nil {
		return nil, err
	}
	if err := e.Build(ctx); err != nil {
		return nil, err
	}
	return e, nil
}

// Prepare validates q and opts exactly as Encode does, with the same
// errors, and returns an unbuilt Encoding: Query, Opts (defaults applied)
// and the exact logical-qubit count are set, no model is built. Call Build
// before reading MILP, BILP, QUBO or Infos, or decoding a sample. The
// monolithic size limit is Build's, not Prepare's: every valid query up
// to join.MaxRelations is prepared, and its qubit count is the demand a
// monolithic QUBO would have.
func Prepare(q *join.Query, opts Options) (*Encoding, error) {
	if q == nil {
		return nil, fmt.Errorf("core: cannot encode nil query")
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: cannot encode invalid query: %w", err)
	}
	opts = opts.withDefaults()
	if opts.Compact && opts.Original {
		return nil, fmt.Errorf("core: Compact and Original encodings are mutually exclusive (the compact substitution presumes the pruned model)")
	}
	if len(opts.Thresholds) == 0 {
		return nil, fmt.Errorf("core: at least one threshold value is required")
	}
	for _, th := range opts.Thresholds {
		if th <= 0 || math.IsNaN(th) || math.IsInf(th, 0) {
			return nil, fmt.Errorf("core: invalid threshold value %v", th)
		}
	}
	if opts.Omega <= 0 {
		return nil, fmt.Errorf("core: discretisation precision ω must be positive, got %v", opts.Omega)
	}
	e := &Encoding{Query: q, Opts: opts, cjmax: cjMaxes(q)}
	e.qubits = e.countQubits()
	return e, nil
}

// Build fills MILP, BILP, QUBO, Infos and the penalties. The first call
// that runs to the end builds; every later call returns that build's
// error, and concurrent callers wait for the running build. The build
// opens an "encode" span in the trace ctx carries, with encode.milp,
// encode.bilp and encode.qubo children.
//
// A build is not cheap: at 20 relations it takes 6–13 ms for ~2,000
// qubits and 0.24–0.32 s for an ~11,250-qubit clique, almost all of it in
// the QUBO stage (DESIGN.md, "Encoding cache"). So Build polls ctx before
// each stage, and a waiter gives up when its ctx ends. A build cut short
// by ctx returns the ctx error wrapped, keeps no partial model and latches
// nothing, so the next caller with a live ctx builds again; an encoding
// error is kept and returned to every caller. The QUBO stage itself does
// not poll, so callers under a deadline should not start a build they
// cannot afford (service.BuildQUBO predicts its cost from NumQubits).
// A query above MaxMonolithicRelations is refused before the first stage,
// with no span and nothing latched.
func (e *Encoding) Build(ctx context.Context) error {
	if err := CheckMonolithic(e.Query); err != nil {
		return err
	}
	for {
		if e.built.Load() {
			return e.buildErr
		}
		e.buildMu.Lock()
		if e.built.Load() {
			e.buildMu.Unlock()
			return e.buildErr
		}
		if wait := e.building; wait != nil {
			e.buildMu.Unlock()
			select {
			case <-wait:
				// Built, or that run was cut short: look again.
			case <-ctx.Done():
				return fmt.Errorf("core: gave up waiting for the QUBO build: %w", ctx.Err())
			}
			continue
		}
		done := make(chan struct{})
		e.building = done
		e.buildMu.Unlock()
		return e.run(ctx, done)
	}
}

// run is one build under ctx. It latches the outcome unless ctx cut the
// build short, and then wakes the callers waiting on done. A build that
// panics latches nothing either, so its waiters never hang on it.
func (e *Encoding) run(ctx context.Context, done chan struct{}) (err error) {
	finished := false
	defer func() {
		e.buildMu.Lock()
		if finished && (err == nil || ctx.Err() == nil) {
			e.buildErr = err
			e.built.Store(true)
		} else {
			e.dropModel()
		}
		e.building = nil
		close(done)
		e.buildMu.Unlock()
	}()
	err = e.buildTraced(ctx)
	finished = true
	return err
}

// buildTraced runs build under the "encode" span.
func (e *Encoding) buildTraced(ctx context.Context) error {
	ctx, span := obs.StartSpan(ctx, "encode")
	err := e.build(ctx)
	if err == nil {
		span.SetAttr("qubits", e.QUBO.N())
	}
	span.End(err)
	return err
}

// dropModel clears what a build cut short had filled in, so the next
// build starts from a prepared encoding again.
func (e *Encoding) dropModel() {
	e.MILP, e.BILP, e.QUBO = nil, nil, nil
	e.Infos, e.tii, e.tio = nil, nil, nil
	e.PenaltyA, e.PenaltyB = 0, 0
}

// buildPoll returns ctx's error, wrapped with the stage it stops the
// build before, or nil while ctx is live.
func buildPoll(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: QUBO build stopped before its %s stage: %w", stage, err)
	}
	return nil
}

// Built reports whether a Build has run to the end, successfully or not.
// A build cut short by its context does not count.
func (e *Encoding) Built() bool { return e.built.Load() }

// build runs the three encoding stages of §3 under per-stage spans,
// polling ctx before each.
func (e *Encoding) build(ctx context.Context) error {
	opts := e.Opts
	if err := buildPoll(ctx, "MILP"); err != nil {
		return err
	}
	_, milpSpan := obs.StartSpan(ctx, "encode.milp")
	err := e.buildMILP()
	if err == nil {
		milpSpan.SetAttr("vars", e.MILP.NumVars())
		milpSpan.SetAttr("constraints", len(e.MILP.Cons))
	}
	milpSpan.End(err)
	if err != nil {
		return err
	}

	if err := buildPoll(ctx, "BILP"); err != nil {
		return err
	}
	_, bilpSpan := obs.StartSpan(ctx, "encode.bilp")
	eq, err := e.MILP.ToEquality(opts.Omega)
	if err == nil {
		bilpSpan.SetAttr("vars", eq.NumVars())
	}
	bilpSpan.End(err)
	if err != nil {
		return err
	}
	e.BILP = eq
	a, b := opts.PenaltyA, opts.PenaltyB
	if b == 0 {
		b = 1
	}
	if a == 0 {
		a = eq.PenaltyWeight(opts.Omega, opts.PenaltyEps) * b
	}
	e.PenaltyA, e.PenaltyB = a, b

	if err := buildPoll(ctx, "QUBO"); err != nil {
		return err
	}
	_, quboSpan := obs.StartSpan(ctx, "encode.qubo")
	qb, err := eq.ToQUBO(a, b, opts.Omega)
	if err == nil {
		quboSpan.SetAttr("qubits", qb.N())
	}
	quboSpan.End(err)
	if err != nil {
		return err
	}
	if qb.N() != e.qubits {
		return fmt.Errorf("core: built QUBO has %d variables, Prepare counted %d", qb.N(), e.qubits)
	}
	e.QUBO = qb
	return nil
}

// countQubits returns the number of binary variables the built QUBO will
// have: the decision variables buildMILP adds plus the slack bits
// ToEquality appends, one per disjointness and applicability constraint
// (integral, slack bound 1) and ⌊log2(bound/ω)⌋+1 per threshold
// constraint (Lemma 5.1). It follows buildMILP's pruning exactly, so it
// is the instance's true count, not the Theorem 5.3 upper bound.
func (e *Encoding) countQubits() int {
	q := e.Query
	T, J, P := q.NumRelations(), q.NumJoins(), q.NumPredicates()
	outerJoins, disjointJoins, paoJoins := J, 1, J-1
	if e.Opts.Compact {
		outerJoins = 1
	}
	if e.Opts.Original {
		disjointJoins, paoJoins = J, J
	}
	n := T*(outerJoins+J) + T*disjointJoins + 3*P*paoJoins
	for _, lt := range e.snappedLogThresholds() {
		for j := e.ctoStart(); j < J; j++ {
			if _, slackBound, ok := e.threshold(j, lt); ok {
				n += 1 + linprog.SlackBits(slackBound, e.Opts.Omega)
			}
		}
	}
	return n
}

// ctoStart is the first join with cto variables: the pruned model drops
// cto[r][0], since the cost counts intermediate results only (§3.2).
func (e *Encoding) ctoStart() int {
	if e.Opts.Original {
		return 0
	}
	return 1
}

// threshold returns the activation coefficient ∞_rj and the slack bound
// of the threshold constraint of join j at snapped log-threshold lt, and
// whether cto[r][j] exists at all: the pruned model drops it when c_jmax
// can never exceed the threshold (§3.2). ∞_rj sits at its lower bound
// c_jmax − lt and the slack is bounded by c_jmax (Lemma 5.1).
func (e *Encoding) threshold(j int, lt float64) (inf, slackBound float64, ok bool) {
	cjmax := e.cjmax[j]
	if !e.Opts.Original && cjmax <= lt+1e-12 {
		return 0, 0, false
	}
	inf, slackBound = cjmax-lt, cjmax
	if inf < 0 { // only possible in the unpruned model
		inf, slackBound = 0, lt
	}
	return inf, slackBound, true
}

// buildMILP constructs the (pruned or original) MILP model of §3.2.
func (e *Encoding) buildMILP() error {
	q := e.Query
	T := q.NumRelations()
	J := q.NumJoins()
	P := q.NumPredicates()
	R := len(e.Opts.Thresholds)
	m := &linprog.Model{}

	addVar := func(info VarInfo, name string) int {
		v := m.AddVar(name)
		e.Infos = append(e.Infos, info)
		return v
	}

	// The compact encoding keeps only tio[t][0] and substitutes
	// tio[t][j] = tio[t][0] + Σ_{j'<j} tii[t][j'] everywhere else; see
	// outerTerms below and the Options.Compact doc.
	outerJoins := J
	if e.Opts.Compact {
		outerJoins = 1
	}
	e.tio = make([][]int, T)
	e.tii = make([][]int, T)
	for t := 0; t < T; t++ {
		e.tio[t] = make([]int, outerJoins)
		e.tii[t] = make([]int, J)
		for j := 0; j < J; j++ {
			// Keep the standard model's interleaved variable order exactly
			// as before the compact variant existed: seeded stochastic
			// solvers are sensitive to variable indexing.
			if j < outerJoins {
				e.tio[t][j] = addVar(VarInfo{Kind: TIO, T: t, J: j}, fmt.Sprintf("tio[%d][%d]", t, j))
			}
			e.tii[t][j] = addVar(VarInfo{Kind: TII, T: t, J: j}, fmt.Sprintf("tii[%d][%d]", t, j))
		}
	}
	// outerTerms appends coef·tio[t][j] to dst: one variable in the
	// standard model, the prefix expansion in the compact model.
	outerTerms := func(dst []linprog.Term, t, j int, coef float64) []linprog.Term {
		if !e.Opts.Compact {
			return append(dst, linprog.Term{Var: e.tio[t][j], Coef: coef})
		}
		dst = append(dst, linprog.Term{Var: e.tio[t][0], Coef: coef})
		for jj := 0; jj < j; jj++ {
			dst = append(dst, linprog.Term{Var: e.tii[t][jj], Coef: coef})
		}
		return dst
	}
	logTheta := e.snappedLogThresholds()

	paoStart := 0
	if !e.Opts.Original {
		paoStart = 1 // pao[p][0] pruned: join 0's outer operand is one relation
	}
	pao := make([][]int, P)
	for p := 0; p < P; p++ {
		pao[p] = make([]int, J)
		for j := range pao[p] {
			pao[p][j] = -1
		}
		for j := paoStart; j < J; j++ {
			pao[p][j] = addVar(VarInfo{Kind: PAO, P: p, J: j}, fmt.Sprintf("pao[%d][%d]", p, j))
		}
	}
	ctoStart := e.ctoStart()
	cto := make([][]int, R)
	for r := 0; r < R; r++ {
		cto[r] = make([]int, J)
		for j := range cto[r] {
			cto[r][j] = -1
		}
		for j := ctoStart; j < J; j++ {
			if _, _, ok := e.threshold(j, logTheta[r]); !ok {
				continue // prunable: the threshold can never be exceeded (§3.2)
			}
			cto[r][j] = addVar(VarInfo{Kind: CTO, R: r, J: j}, fmt.Sprintf("cto[%d][%d]", r, j))
		}
	}

	// One relation per inner leaf: Σ_t tii[t][j] = 1 for every join.
	for j := 0; j < J; j++ {
		c := linprog.Constraint{Name: fmt.Sprintf("one-inner[%d]", j), Sense: linprog.EQ, RHS: 1}
		for t := 0; t < T; t++ {
			c.Terms = append(c.Terms, linprog.Term{Var: e.tii[t][j], Coef: 1})
		}
		m.AddConstraint(c)
	}
	// Exactly one relation is the first outer leaf: Σ_t tio[t][0] = 1.
	{
		c := linprog.Constraint{Name: "one-outer[0]", Sense: linprog.EQ, RHS: 1}
		for t := 0; t < T; t++ {
			c.Terms = append(c.Terms, linprog.Term{Var: e.tio[t][0], Coef: 1})
		}
		m.AddConstraint(c)
	}
	if !e.Opts.Compact {
		// Outer operand recursion (Eq. 3): tio[t][j] = tii[t][j-1] + tio[t][j-1].
		// The compact encoding has no recursion constraints: the recursion
		// is substituted into every tio[t][j] occurrence instead.
		for j := 1; j < J; j++ {
			for t := 0; t < T; t++ {
				m.AddConstraint(linprog.Constraint{
					Name:  fmt.Sprintf("recur[%d][%d]", t, j),
					Sense: linprog.EQ, RHS: 0,
					Terms: []linprog.Term{
						{Var: e.tio[t][j], Coef: 1},
						{Var: e.tii[t][j-1], Coef: -1},
						{Var: e.tio[t][j-1], Coef: -1},
					},
				})
			}
		}
	}
	// Operand disjointness (Eq. 4): pruned model needs it only for the final
	// join; the original model carries it for every join. Under the compact
	// substitution the final-join form expands to
	// tio[t][0] + Σ_j tii[t][j] <= 1 — each relation appears at most once
	// across the first outer leaf and all inner leaves, which together with
	// one-inner/one-outer forces exactly once (a permutation).
	disjointJoins := []int{J - 1}
	if e.Opts.Original {
		disjointJoins = disjointJoins[:0]
		for j := 0; j < J; j++ {
			disjointJoins = append(disjointJoins, j)
		}
	}
	for _, j := range disjointJoins {
		for t := 0; t < T; t++ {
			c := linprog.Constraint{
				Name:  fmt.Sprintf("disjoint[%d][%d]", t, j),
				Sense: linprog.LE, RHS: 1, SlackBound: 1, Integral: true,
			}
			c.Terms = outerTerms(c.Terms, t, j, 1)
			c.Terms = append(c.Terms, linprog.Term{Var: e.tii[t][j], Coef: 1})
			m.AddConstraint(c)
		}
	}
	// Predicate applicability (Eq. 5): pao[p][j] <= tio of both endpoints.
	// (Compact: the slack bound 1 covers every feasible assignment — the
	// expanded tio value is 0 or 1 there by disjointness; infeasible
	// assignments just accrue extra penalty.)
	for p := 0; p < P; p++ {
		for j := paoStart; j < J; j++ {
			for _, endpoint := range []int{q.Predicates[p].R1, q.Predicates[p].R2} {
				c := linprog.Constraint{
					Name:  fmt.Sprintf("pao[%d][%d]<=tio[%d]", p, j, endpoint),
					Sense: linprog.LE, RHS: 0, SlackBound: 1, Integral: true,
					Terms: []linprog.Term{{Var: pao[p][j], Coef: 1}},
				}
				c.Terms = outerTerms(c.Terms, endpoint, j, -1)
				m.AddConstraint(c)
			}
		}
	}
	// Cardinality threshold activation (Eq. 7):
	// c_j − cto[r][j]·∞_rj <= log10 θ_r, with
	// c_j = Σ_t log10(Card t)·tio[t][j] + Σ_p log10(Sel p)·pao[p][j]
	// (∞_rj and the slack bound from threshold).
	for r := 0; r < R; r++ {
		lt := logTheta[r]
		for j := ctoStart; j < J; j++ {
			if cto[r][j] < 0 {
				continue
			}
			inf, slackBound, _ := e.threshold(j, lt)
			c := linprog.Constraint{
				Name:  fmt.Sprintf("threshold[%d][%d]", r, j),
				Sense: linprog.LE, RHS: lt, SlackBound: slackBound,
			}
			for t := 0; t < T; t++ {
				if lc := q.LogCard(t); lc != 0 {
					c.Terms = outerTerms(c.Terms, t, j, lc)
				}
			}
			for p := 0; p < P; p++ {
				if pao[p][j] < 0 {
					continue
				}
				if ls := q.LogSel(p); ls != 0 {
					c.Terms = append(c.Terms, linprog.Term{Var: pao[p][j], Coef: ls})
				}
			}
			c.Terms = append(c.Terms, linprog.Term{Var: cto[r][j], Coef: -inf})
			m.AddConstraint(c)
			// Objective: pay θ_r whenever the threshold is exceeded.
			w := e.Opts.Thresholds[r]
			if e.Opts.LogObjective {
				w = lt
			}
			m.AddObjectiveTerm(cto[r][j], w)
		}
	}
	if err := m.Validate(); err != nil {
		return err
	}
	e.MILP = m
	return nil
}

// snappedLogThreshold returns log10 θ_r rounded to the ω grid, matching
// the value used when the constraints were built.
func (e *Encoding) snappedLogThreshold(r int) float64 {
	return math.Round(math.Log10(e.Opts.Thresholds[r])/e.Opts.Omega) * e.Opts.Omega
}

// snappedLogThresholds returns every snappedLogThreshold. Threshold
// constraints are discretised at precision ω, so log10 θ_r is snapped onto
// the ω grid up front and valid solutions reach exactly zero residual (the
// paper's §3.4 coefficient rounding, applied at model construction).
func (e *Encoding) snappedLogThresholds() []float64 {
	lt := make([]float64, len(e.Opts.Thresholds))
	for r := range lt {
		lt[r] = e.snappedLogThreshold(r)
	}
	return lt
}

// DefaultThresholds returns R threshold values spread geometrically (evenly
// in log10 space) between the smallest base-relation cardinality and the
// largest possible intermediate cardinality of the query. The choice of
// thresholds governs the cost-approximation accuracy (§3.2, Example 3.3).
func DefaultThresholds(q *join.Query, r int) []float64 {
	if r <= 0 {
		return nil
	}
	cj := cjMaxes(q)
	maxLog := cj[q.NumJoins()-1]
	minLog := math.Inf(1)
	for t := 0; t < q.NumRelations(); t++ {
		if lc := q.LogCard(t); lc < minLog {
			minLog = lc
		}
	}
	if minLog >= maxLog {
		minLog = maxLog / 2
	}
	out := make([]float64, r)
	for i := 0; i < r; i++ {
		frac := float64(i+1) / float64(r+1)
		out[i] = math.Pow(10, minLog+frac*(maxLog-minLog))
	}
	return out
}

// cjMaxes returns CJMax(q, j) for j = 0..T−1 from one descending sort of
// the log-cardinalities: entry j is the running sum of the j+1 largest,
// added largest first as CJMax always summed them, so the values are
// bit-identical to a sort and sum per join.
func cjMaxes(q *join.Query) []float64 {
	ls := make([]float64, q.NumRelations())
	for t := range ls {
		ls[t] = q.LogCard(t)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ls)))
	s := 0.0
	for i, l := range ls {
		s += l
		ls[i] = s
	}
	return ls
}

// CJMax returns the maximum logarithmic (base 10) cardinality of the outer
// operand of join j (Lemma 5.2): the sum of the j+1 largest logarithmic
// relation cardinalities, since the outer operand of join j contains
// exactly j+1 relations and predicates can only shrink it. It sorts on
// every call; loops over joins should index cjMaxes instead.
func CJMax(q *join.Query, j int) float64 {
	if j < 0 || q.NumRelations() == 0 {
		return 0
	}
	cj := cjMaxes(q)
	return cj[min(j, len(cj)-1)]
}
