package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"quantumjoin/internal/classical"
	"quantumjoin/internal/join"
	"quantumjoin/internal/querygen"
)

func stream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := buildWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range w.cycle {
		buf.WriteString(r.path())
		buf.Write(r.body)
	}
	return buf.Bytes()
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"plan-serve", "quantum-solve"} {
		a, b := stream(t, name, 7), stream(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		if c := stream(t, name, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 100)
	v, err := percentile(xs, 0.9)
	if err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{parent: -1, layer: "service", name: "optimize", start: at(0), end: at(100)},
		{parent: 0, layer: "hybrid", start: at(10), end: at(90)},
		{parent: 1, layer: "classical", start: at(12), end: at(20)},
		// Two concurrent racers, one outliving the hybrid span.
		{parent: 1, layer: "anneal", start: at(30), end: at(80)},
		{parent: 1, layer: "qaoa", start: at(40), end: at(95)},
		// A straggler that never finished before the analysis.
		{parent: 1, layer: "qubo", start: at(50)},
		// A replay: a root of its own.
		{parent: -1, layer: "core", name: "encode", start: at(120), end: at(130)},
	}
	self := selfTimes(spans)
	var sum time.Duration
	for i := 0; i < 6; i++ {
		sum += self[i]
	}
	if sum != 100*time.Millisecond {
		t.Errorf("self times of the request tree sum to %v, want the root's 100ms", sum)
	}
	if self[0] != 20*time.Millisecond {
		t.Errorf("root self (unattributed) = %v, want 20ms", self[0])
	}
	if self[2] != 8*time.Millisecond {
		t.Errorf("classical self = %v, want 8ms", self[2])
	}
	if self[6] != 10*time.Millisecond {
		t.Errorf("replay self = %v, want its own 10ms", self[6])
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	q, err := querygen.PaperInstance(2)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := classical.Optimal(q)
	if err != nil {
		t.Fatal(err)
	}
	names := func(o join.Order) []string {
		out := make([]string, len(o))
		for i, t := range o {
			out[i] = relName(q, t)
		}
		return out
	}
	it := &item{query: q, backend: "dp", optimum: opt.Cost, greedy: classical.Greedy(q).Cost}
	if _, err := checkAnswer(it, names(opt.Order), opt.Cost, false); err != nil {
		t.Fatalf("optimal dp answer rejected: %v", err)
	}
	worst := opt
	for _, o := range []join.Order{{0, 1, 2}, {0, 2, 1}, {1, 2, 0}} {
		if c := q.Cost(o); c > worst.Cost {
			worst = classical.Result{Order: o, Cost: c}
		}
	}
	cases := []struct {
		name  string
		it    *item
		order []string
		cost  float64
		want  string
	}{
		{"repeated relation", it, []string{"R", "R", "S"}, opt.Cost, "not a permutation"},
		{"unknown relation", it, []string{"R", "S", "X"}, opt.Cost, "unknown relation"},
		{"missing relation", it, []string{"R", "S"}, opt.Cost, "has 2 relations"},
		{"misreported cost", it, names(opt.Order), opt.Cost * 1.5, "reported cost"},
		{"below optimum", &item{query: q, backend: "anneal", optimum: opt.Cost * 2}, names(opt.Order), opt.Cost, "below the DP optimum"},
		{"suboptimal dp", it, names(worst.Order), worst.Cost, "dp answer"},
		{"hybrid worse than greedy", &item{query: q, backend: "hybrid", optimum: opt.Cost, greedy: opt.Cost}, names(worst.Order), worst.Cost, "worse than greedy"},
	}
	for _, c := range cases {
		if _, err := checkAnswer(c.it, c.order, c.cost, false); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	rec := newRecorder()
	ctx, endRoot := rec.start(context.Background(), "service", "optimize")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, end := rec.start(ctx, "anneal", "anneal")
				end(nil)
			}
		}()
	}
	wg.Wait()
	endRoot(nil)
	if len(rec.spans) != 1+8*50 {
		t.Fatalf("recorded %d spans, want %d", len(rec.spans), 1+8*50)
	}
	self := selfTimes(rec.spans)
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if root := rec.spans[0].end.Sub(rec.spans[0].start); sum != root {
		t.Errorf("self times sum to %v, root took %v", sum, root)
	}
}
