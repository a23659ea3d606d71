package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"quantumjoin/internal/join"
	"quantumjoin/internal/service"
)

// namedCatalog is a 3-relation chain whose relations, in list order, carry
// the given names and the cardinalities 40, 500 and 2000.
func namedCatalog(names [3]string, extra string) string {
	return fmt.Sprintf(`{"query": {
		"relations": [
			{"name": %q, "cardinality": 40},
			{"name": %q, "cardinality": 500},
			{"name": %q, "cardinality": 2000}
		],
		"predicates": [
			{"left": %q, "right": %q, "selectivity": 0.05},
			{"left": %q, "right": %q, "selectivity": 0.01}
		]
	}%s}`, names[0], names[1], names[2], names[0], names[1], names[1], names[2], extra)
}

// TestCoalesceKeyCoversResponseInputs: every request input that changes
// the response body changes the coalescing key, while listing the same
// named relations in another order does not.
func TestCoalesceKeyCoversResponseInputs(t *testing.T) {
	q := &join.Query{
		Relations: []join.Relation{{Name: "a", Card: 40}, {Name: "b", Card: 500}, {Name: "c", Card: 2000}},
		Predicates: []join.Predicate{
			{R1: 0, R2: 1, Sel: 0.05},
			{R1: 1, R2: 2, Sel: 0.01},
		},
	}
	key := func(q *join.Query, opt service.OptimizeRequest) string {
		fp, perm := service.Fingerprint(q, service.EncodeSpec{Compact: opt.Compact})
		return coalesceKey(fp, q, perm, &opt)
	}
	base := key(q, service.OptimizeRequest{})

	// The same relations listed in reverse order: same body.
	reordered := &join.Query{
		Relations: []join.Relation{q.Relations[2], q.Relations[1], q.Relations[0]},
		Predicates: []join.Predicate{
			{R1: 2, R2: 1, Sel: 0.05},
			{R1: 1, R2: 0, Sel: 0.01},
		},
	}
	if got := key(reordered, service.OptimizeRequest{}); got != base {
		t.Errorf("reordered relation list changed the key:\n%s\n%s", got, base)
	}

	swapped := &join.Query{
		Relations:  []join.Relation{{Name: "c", Card: 40}, {Name: "b", Card: 500}, {Name: "a", Card: 2000}},
		Predicates: q.Predicates,
	}
	variants := map[string]string{
		"swapped names": key(swapped, service.OptimizeRequest{}),
		"lean":          key(q, service.OptimizeRequest{Lean: true}),
		"compact":       key(q, service.OptimizeRequest{Compact: true}),
		"part_budget":   key(q, service.OptimizeRequest{PartBudget: 4}),
		"seed":          key(q, service.OptimizeRequest{Seed: 1}),
	}
	for what, k := range variants {
		if k == base {
			t.Errorf("%s: key unchanged", what)
		}
	}
}

// TestCoalesceSwappedNamesConcurrent: two concurrent requests for one
// query shape, with the relation names swapped, are solved separately,
// and each answers in its own names, exactly as when sent alone.
func TestCoalesceSwappedNamesConcurrent(t *testing.T) {
	release := make(chan struct{})
	tc := startCluster(t, 1, func(i int, nc *NodeConfig, b *testBackend) {
		b.block = release
	})
	bodies := []string{
		namedCatalog([3]string{"a", "b", "c"}, ""),
		namedCatalog([3]string{"c", "b", "a"}, ""),
	}
	orders := make([][]string, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			orders[i] = postOrder(t, tc.urls[0], body)
		}(i, body)
	}

	// Wait until both requests have reached the node's flight group, as
	// two leaders or as a leader and a waiter, then release the solves.
	g := tc.nodes[0].flights
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		arrived := len(g.inflight)
		for _, f := range g.inflight {
			arrived += int(f.waiters.Load())
		}
		g.mu.Unlock()
		if arrived >= len(bodies) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests reached the flight group", arrived, len(bodies))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := tc.backends[0].calls.Load(); got != int64(len(bodies)) {
		t.Errorf("backend solved %d times for %d requests with different names, want one solve each", got, len(bodies))
	}
	for i, body := range bodies {
		if alone := postOrder(t, tc.urls[0], body); !slices.Equal(orders[i], alone) {
			t.Errorf("request %d: concurrent order %v, alone %v", i, orders[i], alone)
		}
	}
	if slices.Equal(orders[0], orders[1]) {
		t.Errorf("swapped names answered with the same order %v", orders[0])
	}
}

// postOrder posts one optimize body and returns the plan's relation names.
func postOrder(t *testing.T, url, body string) []string {
	resp, raw := postJSON(t, url+"/v1/optimize", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d: %s", resp.StatusCode, raw)
		return nil
	}
	var out service.OptimizeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Error(err)
	}
	return out.Order
}
