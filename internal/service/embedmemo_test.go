package service

import (
	"context"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"quantumjoin/internal/core"
	"quantumjoin/internal/join"
	"quantumjoin/internal/minorembed"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/querygen"
)

// memoReads keeps the anneal solves of the memo tests short; the memo
// does not depend on the read budget.
const memoReads = 40

// memoBackend is a fresh anneal backend on a small Pegasus graph.
func memoBackend() *annealBackend {
	return NewAnnealBackend(3).(*annealBackend)
}

// memoEncoding encodes the paper's 3-relation chain instance (2
// predicates, 3 thresholds, compact) afresh, so every call has an empty
// embedding memo.
func memoEncoding(t *testing.T) *core.Encoding {
	t.Helper()
	q, err := querygen.PaperInstance(2)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.Encode(q, core.Options{Thresholds: core.DefaultThresholds(q, 3), Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// stored is the embedding b's memo slot holds on enc for seed, or nil.
func (b *annealBackend) stored(enc *core.Encoding, seed int64) *minorembed.Embedding {
	return enc.Embedding(b.dev.Graph, b.dev.EmbeddingTries, seed)
}

// solveTraced runs one anneal Solve under a sampled root span and returns
// the plan together with the span's embedding attribute.
func solveTraced(t *testing.T, b Backend, enc *core.Encoding, p Params) (*core.Decoded, any, error) {
	t.Helper()
	tracer := obs.NewTracer(obs.Options{Capacity: 4, SampleRate: 1})
	ctx, root := tracer.Start(obs.NewContext(context.Background(), tracer), "test-root")
	d, err := b.Solve(ctx, enc, p)
	root.End(nil)
	trace, ok := tracer.Find(root.TraceID())
	if !ok {
		t.Fatal("trace was not stored despite SampleRate 1")
	}
	return d, trace.Root.Attrs["embedding"], err
}

// coldSolve is the reference answer: a fresh backend on a fresh encoding.
func coldSolve(t *testing.T, p Params) *core.Decoded {
	t.Helper()
	d, err := memoBackend().Solve(context.Background(), memoEncoding(t), p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// coldEmbedding is the full-budget embedding a cold call computes.
func coldEmbedding(t *testing.T, seed int64) *minorembed.Embedding {
	t.Helper()
	emb, err := memoBackend().dev.EmbedOnly(memoEncoding(t).QUBO, seed)
	if err != nil {
		t.Fatal(err)
	}
	return emb
}

func sameDecoded(t *testing.T, what string, got, want *core.Decoded) {
	t.Helper()
	if got.Valid != want.Valid || !reflect.DeepEqual(got.Order, want.Order) || got.Cost != want.Cost || got.Energy != want.Energy {
		t.Fatalf("%s: got %+v, want the cold call's %+v", what, *got, *want)
	}
}

// TestAnnealEmbeddingMemoHit: the first Solve on an encoding runs the
// embedder and stores its embedding (span embedding=computed); a repeat
// with the same seed reuses it (embedding=reused) and answers exactly as
// a fresh backend on a fresh encoding does.
func TestAnnealEmbeddingMemoHit(t *testing.T) {
	b, enc := memoBackend(), memoEncoding(t)
	p := Params{Reads: memoReads, Seed: 7}
	first, attr, err := solveTraced(t, b, enc, p)
	if err != nil {
		t.Fatal(err)
	}
	if attr != "computed" {
		t.Errorf("first solve: embedding = %v, want computed", attr)
	}
	emb := b.stored(enc, p.Seed)
	if emb == nil {
		t.Fatal("first solve stored no embedding")
	}
	if want := coldEmbedding(t, p.Seed); !reflect.DeepEqual(emb.Chains, want.Chains) {
		t.Fatalf("stored embedding %v differs from the cold embedding %v", emb.Chains, want.Chains)
	}
	second, attr, err := solveTraced(t, b, enc, p)
	if err != nil {
		t.Fatal(err)
	}
	if attr != "reused" {
		t.Errorf("repeat solve: embedding = %v, want reused", attr)
	}
	if b.stored(enc, p.Seed) != emb {
		t.Error("a hit replaced the stored embedding")
	}
	cold := coldSolve(t, p)
	sameDecoded(t, "first solve", first, cold)
	sameDecoded(t, "memo hit", second, cold)
}

// TestAnnealEmbeddingMemoSecondSeed: the memo is keyed by the request
// seed. Another seed re-embeds, answers as a cold call with that seed
// does, and takes over the single slot.
func TestAnnealEmbeddingMemoSecondSeed(t *testing.T) {
	b, enc := memoBackend(), memoEncoding(t)
	if _, err := b.Solve(context.Background(), enc, Params{Reads: memoReads, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	p := Params{Reads: memoReads, Seed: 8}
	d, attr, err := solveTraced(t, b, enc, p)
	if err != nil {
		t.Fatal(err)
	}
	if attr != "computed" {
		t.Errorf("new seed: embedding = %v, want computed", attr)
	}
	sameDecoded(t, "second seed", d, coldSolve(t, p))
	emb := b.stored(enc, p.Seed)
	if emb == nil {
		t.Fatal("second seed stored no embedding")
	}
	if want := coldEmbedding(t, p.Seed); !reflect.DeepEqual(emb.Chains, want.Chains) {
		t.Fatalf("stored embedding %v differs from the cold embedding %v", emb.Chains, want.Chains)
	}
	if b.stored(enc, 7) != nil {
		t.Error("the slot still answers for the first seed")
	}
}

// deadlineAfter is a context whose deadline passes at its n-th Err poll
// and stays passed, so a test can cut the embedder off at a reproducible
// point of its search.
type deadlineAfter struct {
	context.Context
	n     int64
	polls atomic.Int64
}

func newDeadlineAfter(n int64) *deadlineAfter {
	return &deadlineAfter{Context: context.Background(), n: n}
}

func (c *deadlineAfter) Err() error {
	if c.polls.Add(1) >= c.n {
		return context.DeadlineExceeded
	}
	return nil
}

// TestAnnealEmbeddingMemoSkipsCutOffEmbed: an embedder cut off by the
// deadline returns its best-so-far with a nil error. That embedding
// serves its own request only: it is not stored, and the next request
// with a live context runs the full budget and stores its result.
func TestAnnealEmbeddingMemoSkipsCutOffEmbed(t *testing.T) {
	b, enc := memoBackend(), memoEncoding(t)
	const seed = 7
	full := newDeadlineAfter(math.MaxInt64)
	if _, err := b.dev.EmbedOnlyContext(full, enc.QUBO, seed); err != nil {
		t.Fatal(err)
	}
	// Find the latest cut that still leaves a best-so-far embedding.
	cut := int64(0)
	for n := full.polls.Load() - 1; n > 0; n-- {
		emb, err := b.dev.EmbedOnlyContext(newDeadlineAfter(n), enc.QUBO, seed)
		if err == nil && emb != nil {
			cut = n
			break
		}
	}
	if cut == 0 {
		t.Fatalf("no cut in %d polls leaves a best-so-far embedding", full.polls.Load())
	}
	if b.stored(enc, seed) != nil {
		t.Fatal("probing the embedder stored an embedding")
	}

	if _, err := b.Solve(newDeadlineAfter(cut), enc, Params{Reads: memoReads, Seed: seed}); err == nil {
		t.Fatal("a solve past its deadline succeeded")
	}
	if emb := b.stored(enc, seed); emb != nil {
		t.Fatalf("the cut-off embedding %v was stored", emb.Chains)
	}

	p := Params{Reads: memoReads, Seed: seed}
	d, attr, err := solveTraced(t, b, enc, p)
	if err != nil {
		t.Fatal(err)
	}
	if attr != "computed" {
		t.Errorf("live solve after the cut: embedding = %v, want computed", attr)
	}
	emb := b.stored(enc, seed)
	if emb == nil {
		t.Fatal("the live solve stored no embedding")
	}
	if want := coldEmbedding(t, seed); !reflect.DeepEqual(emb.Chains, want.Chains) {
		t.Fatalf("stored embedding %v is not the full-budget embedding %v", emb.Chains, want.Chains)
	}
	sameDecoded(t, "live solve after the cut", d, coldSolve(t, p))
}

// TestAnnealEmbeddingMemoConcurrent: concurrent Solves on one encoding —
// racing misses on a cold memo, then hits on a warm one — all answer as
// the cold call does and leave the shared embedding untouched.
func TestAnnealEmbeddingMemoConcurrent(t *testing.T) {
	b, enc := memoBackend(), memoEncoding(t)
	p := Params{Reads: memoReads, Seed: 7}
	cold := coldSolve(t, p)
	run := func(what string) {
		const callers = 4
		var wg sync.WaitGroup
		ds := make([]*core.Decoded, callers)
		errs := make([]error, callers)
		for i := range ds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ds[i], errs[i] = b.Solve(context.Background(), enc, p)
			}()
		}
		wg.Wait()
		for i := range ds {
			if errs[i] != nil {
				t.Fatalf("%s caller %d: %v", what, i, errs[i])
			}
			sameDecoded(t, what, ds[i], cold)
		}
	}
	run("racing misses")
	emb := b.stored(enc, p.Seed)
	if emb == nil {
		t.Fatal("no embedding stored after the racing misses")
	}
	want := coldEmbedding(t, p.Seed)
	run("concurrent hits")
	if b.stored(enc, p.Seed) != emb {
		t.Error("hits replaced the stored embedding")
	}
	if !reflect.DeepEqual(emb.Chains, want.Chains) {
		t.Fatalf("shared embedding %v changed from %v", emb.Chains, want.Chains)
	}
}

// TestAnnealEmbeddingMemoWarmStart: a warm-started request samples the
// memoised embedding from its incumbent, answers as a cold warm-started
// call does, and leaves the shared device without an initial state.
func TestAnnealEmbeddingMemoWarmStart(t *testing.T) {
	b, enc := memoBackend(), memoEncoding(t)
	const seed = 5
	if _, err := b.Solve(context.Background(), enc, Params{Reads: memoReads, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	dec, err := enc.EncodeOrder(join.Order{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := enc.CompleteSlacks(dec)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Reads: memoReads, Seed: seed, InitialState: warm}
	d, attr, err := solveTraced(t, b, enc, p)
	if err != nil {
		t.Fatal(err)
	}
	if attr != "reused" {
		t.Errorf("warm start: embedding = %v, want reused", attr)
	}
	if b.dev.InitialState != nil {
		t.Error("the warm start was left on the shared device")
	}
	sameDecoded(t, "warm start", d, coldSolve(t, p))
}

// TestAnnealEmbeddingMemoSolveBatch: SolveBatch takes its embeddings from the
// same memo as Solve — a hit and a miss in one batch — and answers
// bit-identically to cold per-instance Solves; the batch span records
// embedding=computed when any instance embedded and reused when none did.
func TestAnnealEmbeddingMemoSolveBatch(t *testing.T) {
	b := memoBackend()
	warmEnc, coldEnc := memoEncoding(t), memoEncoding(t)
	ps := []Params{{Reads: memoReads, Seed: 7}, {Reads: memoReads, Seed: 9}}
	if _, err := b.Solve(context.Background(), warmEnc, ps[0]); err != nil {
		t.Fatal(err)
	}
	batch := func() ([]*core.Decoded, []error, any) {
		tracer := obs.NewTracer(obs.Options{Capacity: 4, SampleRate: 1})
		ctx, root := tracer.Start(obs.NewContext(context.Background(), tracer), "test-root")
		ds, errs := b.SolveBatch(ctx, []*core.Encoding{warmEnc, coldEnc}, ps)
		root.End(nil)
		trace, ok := tracer.Find(root.TraceID())
		if !ok {
			t.Fatal("trace was not stored despite SampleRate 1")
		}
		return ds, errs, trace.Root.Attrs["embedding"]
	}
	for _, want := range []string{"computed", "reused"} {
		ds, errs, attr := batch()
		if attr != want {
			t.Errorf("batch span: embedding = %v, want %s", attr, want)
		}
		for i, p := range ps {
			if errs[i] != nil {
				t.Fatalf("instance %d: %v", i, errs[i])
			}
			sameDecoded(t, "batch instance", ds[i], coldSolve(t, p))
		}
	}
	if b.stored(coldEnc, ps[1].Seed) == nil {
		t.Error("the batch stored no embedding for its miss")
	}
}
