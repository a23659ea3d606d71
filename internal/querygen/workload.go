package querygen

import (
	"fmt"
	"math/rand"
	"time"

	"quantumjoin/internal/join"
)

// Deadline classes of the stratified workload. The budgets are chosen
// against the repo's backend latencies at the default 8-relation size:
// tight admits only the instant classical arms, medium admits one
// simulated-quantum solve, loose admits the full portfolio — so a router
// that reads the deadline feature has a real decision to make.
const (
	ClassTight  = "tight"
	ClassMedium = "medium"
	ClassLoose  = "loose"
)

// WorkloadItem is one request of a deadline-stratified workload: a
// generated query plus the deadline budget the caller should impose.
type WorkloadItem struct {
	// Name identifies the cell and replica, e.g. "star/skew0.5/tight/2".
	Name string
	// Class is the deadline class: ClassTight, ClassMedium or ClassLoose.
	Class string
	// Graph is the query-graph shape the item was drawn from.
	Graph GraphType
	// Skew is the cardinality skew the item was drawn with.
	Skew float64
	// Deadline is the per-request budget for this item.
	Deadline time.Duration
	// Seed is the deterministic per-item seed; callers reuse it to seed
	// backend randomness so runs are reproducible end to end.
	Seed int64
	// Query is the generated instance.
	Query *join.Query
}

// WorkloadConfig controls DeadlineStratified.
type WorkloadConfig struct {
	// Relations per query. Default 8.
	Relations int
	// PerCell is the number of instances per (shape, skew, class) cell.
	// Default 2.
	PerCell int
	// Seed is the base seed; per-item seeds are derived from it, so the
	// whole workload is a pure function of the config.
	Seed int64
	// Tight, Medium, Loose override the class budgets.
	// Defaults 25ms, 100ms, 400ms.
	Tight, Medium, Loose time.Duration
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Relations == 0 {
		c.Relations = 8
	}
	if c.PerCell == 0 {
		c.PerCell = 2
	}
	if c.Tight == 0 {
		c.Tight = 25 * time.Millisecond
	}
	if c.Medium == 0 {
		c.Medium = 100 * time.Millisecond
	}
	if c.Loose == 0 {
		c.Loose = 400 * time.Millisecond
	}
	return c
}

// DeadlineStratified generates the mixed-deadline workload shared by
// hybridbench and qjbench: every combination of graph shape
// (chain, star, clique, tree), cardinality skew (uniform and 0.5) and
// deadline class (tight, medium, loose), PerCell instances each, using
// the paper-style integer-log parameters (§4.1) so instances match the
// other benches. The result is deterministic for a given config:
// per-item seeds are derived from cfg.Seed and the item's position.
func DeadlineStratified(cfg WorkloadConfig) ([]WorkloadItem, error) {
	cfg = cfg.withDefaults()
	shapes := []GraphType{Chain, Star, Clique, Tree}
	skews := []float64{0, 0.5}
	classes := []struct {
		name   string
		budget time.Duration
	}{
		{ClassTight, cfg.Tight},
		{ClassMedium, cfg.Medium},
		{ClassLoose, cfg.Loose},
	}
	var items []WorkloadItem
	idx := int64(0)
	for _, g := range shapes {
		for _, skew := range skews {
			for _, cl := range classes {
				for rep := 0; rep < cfg.PerCell; rep++ {
					idx++
					// Splitmix-style odd-constant spread keeps per-item
					// streams decorrelated while staying a pure function
					// of (cfg.Seed, position).
					seed := cfg.Seed*1_000_003 + idx*2_654_435_761
					q, err := Generate(Config{
						Relations:  cfg.Relations,
						Graph:      g,
						IntegerLog: true,
						MinLogCard: 1, MaxLogCard: 3,
						MinLogSel: 1, MaxLogSel: 2,
						Skew: skew,
					}, rand.New(rand.NewSource(seed)))
					if err != nil {
						return nil, fmt.Errorf("querygen: workload cell %v/skew%v/%s: %w",
							g, skew, cl.name, err)
					}
					items = append(items, WorkloadItem{
						Name:     fmt.Sprintf("%v/skew%v/%s/%d", g, skew, cl.name, rep),
						Class:    cl.name,
						Graph:    g,
						Skew:     skew,
						Deadline: cl.budget,
						Seed:     seed,
						Query:    q,
					})
				}
			}
		}
	}
	return items, nil
}
