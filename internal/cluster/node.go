package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quantumjoin/internal/faults"
	"quantumjoin/internal/join"
	"quantumjoin/internal/obs"
	"quantumjoin/internal/service"
)

// Cluster routing headers.
const (
	// HeaderForwardedNode names the node that forwarded the request.
	HeaderForwardedNode = "X-Forwarded-Node"
	// HeaderForwardHops counts how many times the request has been
	// forwarded; at or beyond NodeConfig.MaxHops the receiver must serve
	// locally, which bounds any routing loop a ring disagreement could
	// otherwise create.
	HeaderForwardHops = "X-Forward-Hops"
	// HeaderServedBy names the node that actually solved the request.
	HeaderServedBy = "X-Served-By"
	// HeaderCoalesced marks a response that was copied from a concurrent
	// identical request's solve rather than solved separately.
	HeaderCoalesced = "X-Coalesced"
	// HeaderHedged names the replica whose hedged (non-first) attempt won
	// the forwarding race; absent when the primary answered first.
	HeaderHedged = "X-Hedged"
)

const (
	maxOptimizeBody = 1 << 20
	maxBatchBody    = 1 << 24
)

// DefaultHedgeAfter is the default hedge delay: long enough that a warm
// primary (sub-millisecond cache hit plus a LAN round trip) never triggers
// it, short enough that a dropped packet costs tens of milliseconds of
// tail latency instead of a client timeout.
const DefaultHedgeAfter = 50 * time.Millisecond

// NodeConfig configures one cluster member.
type NodeConfig struct {
	// Self is this node's base URL as it appears in Peers (required).
	Self string
	// Peers is the static list of all cluster members' base URLs,
	// including Self (required, and identical on every node).
	Peers []string
	// VirtualNodes per peer on the ring (0 selects DefaultVirtualNodes).
	VirtualNodes int
	// MaxHops bounds forwarding: a request with X-Forward-Hops >= MaxHops
	// is served locally (0 selects 1 — at most one forward, which is all a
	// consistent ring ever needs).
	MaxHops int
	// Replicas is the replica ownership factor R: every fingerprint is
	// owned by R successive ring nodes, the primary plus R-1 warm
	// secondaries that hedged forwards and warm pushes target (0 selects
	// DefaultReplicas; clamped to the peer count; 1 disables replication).
	Replicas int
	// HedgeAfter is how long a forward waits on one replica before racing
	// the next (0 selects DefaultHedgeAfter; negative disables timed
	// hedging — a transport failure still fails over immediately).
	HedgeAfter time.Duration
	// Gossip tunes peer health polling.
	Gossip GossipConfig
	// Client issues forwards (default: a fresh client; the request's own
	// context bounds each forward). Wrap its Transport with
	// faults.NewFaultyTransport to chaos-test the interconnect.
	Client *http.Client
	// Tracer, when set, records a cluster.route root span per routed
	// request; pass the same tracer as the wrapped service so the
	// service's optimize span nests inside it.
	Tracer *obs.Tracer
	// Logger, when set, receives forward-failure warnings.
	Logger *slog.Logger
}

// Counters is a point-in-time snapshot of a node's routing counters.
type Counters struct {
	// RoutedLocal counts optimize requests served by this node (as owner,
	// by hop limit, or by peer-failure fallback).
	RoutedLocal int64 `json:"routed_local"`
	// Forwards counts optimize requests forwarded to a replica (the
	// winning attempt; failed attempts are ForwardErrors).
	Forwards int64 `json:"forwards"`
	// ForwardErrors counts forward attempts that failed at the transport.
	ForwardErrors int64 `json:"forward_errors"`
	// ForcedLocal counts requests served locally because the hop limit
	// was reached even though another node owned the key.
	ForcedLocal int64 `json:"forced_local"`
	// Hedges counts extra forward attempts launched beyond the first —
	// whether by the hedge timer or immediately on a transport failure.
	Hedges int64 `json:"hedges"`
	// HedgeWins counts responses won by a hedged (non-first) attempt.
	HedgeWins int64 `json:"hedge_wins"`
	// WarmPushes counts encodings this node pushed to a replica after a
	// primary-owner cache miss.
	WarmPushes int64 `json:"warm_pushes"`
	// WarmsReceived counts warm-only requests this node accepted from a
	// primary owner.
	WarmsReceived int64 `json:"warms_received"`
	// CoalesceLeaders counts local solves that led a singleflight.
	CoalesceLeaders int64 `json:"coalesce_leaders"`
	// CoalesceJoined counts requests answered from a concurrent identical
	// request's solve — each is one solve the fleet did not repeat.
	CoalesceJoined int64 `json:"coalesce_joined"`
	// BatchSplits counts batch envelopes split across owners.
	BatchSplits int64 `json:"batch_splits"`
	// BatchForwards counts sub-batches forwarded to peers.
	BatchForwards int64 `json:"batch_forwards"`
	// BatchFallbacks counts sub-batches solved locally after their
	// owner's forward failed.
	BatchFallbacks int64 `json:"batch_fallbacks"`
}

type nodeCounters struct {
	routedLocal     atomic.Int64
	forwards        atomic.Int64
	forwardErrors   atomic.Int64
	forcedLocal     atomic.Int64
	hedges          atomic.Int64
	hedgeWins       atomic.Int64
	warmPushes      atomic.Int64
	warmsReceived   atomic.Int64
	coalesceLeaders atomic.Int64
	coalesceJoined  atomic.Int64
	batchSplits     atomic.Int64
	batchForwards   atomic.Int64
	batchFallbacks  atomic.Int64
}

func (c *nodeCounters) snapshot() Counters {
	return Counters{
		RoutedLocal:     c.routedLocal.Load(),
		Forwards:        c.forwards.Load(),
		ForwardErrors:   c.forwardErrors.Load(),
		ForcedLocal:     c.forcedLocal.Load(),
		Hedges:          c.hedges.Load(),
		HedgeWins:       c.hedgeWins.Load(),
		WarmPushes:      c.warmPushes.Load(),
		WarmsReceived:   c.warmsReceived.Load(),
		CoalesceLeaders: c.coalesceLeaders.Load(),
		CoalesceJoined:  c.coalesceJoined.Load(),
		BatchSplits:     c.batchSplits.Load(),
		BatchForwards:   c.batchForwards.Load(),
		BatchFallbacks:  c.batchFallbacks.Load(),
	}
}

// StatusResponse is the GET /v1/cluster body.
type StatusResponse struct {
	Self         string       `json:"self"`
	Nodes        []string     `json:"nodes"`
	VirtualNodes int          `json:"virtual_nodes"`
	MaxHops      int          `json:"max_hops"`
	Replicas     int          `json:"replicas"`
	Draining     bool         `json:"draining"`
	Peers        []PeerHealth `json:"peers"`
	Counters     Counters     `json:"counters"`
}

// Node is the cluster HTTP layer wrapped around one qjoind handler. It
// owns the routing decision for POST /v1/optimize (forward to the key's
// replica set with hedging, or solve locally under singleflight
// coalescing), splits POST /v1/optimize/batch envelopes by owner, serves
// GET /v1/cluster, handles the drain protocol (POST /v1/drain, POST
// /v1/cluster/leave, the "draining" /healthz status), and appends cluster
// counter families to GET /metrics. Every other route passes straight
// through to the inner handler.
type Node struct {
	cfg      NodeConfig
	inner    http.Handler
	ring     *Ring
	gossip   *Gossip
	flights  *Group
	client   *http.Client
	vnodes   int
	counters nodeCounters

	// draining is the drain state machine: once set (SIGTERM or POST
	// /v1/drain) it never clears; peers learn via the leave announcement
	// and the patched /healthz, new work routes away, and Drain waits for
	// inflight to reach zero before the caller closes the listener.
	draining  atomic.Bool
	inflight  atomic.Int64
	drainOnce sync.Once
	drainCh   chan struct{}
}

// NewNode wraps inner (a service handler from service.NewHandler) with
// cluster routing. Call Start to begin peer health polling and Stop on
// shutdown.
func NewNode(inner http.Handler, cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: NodeConfig.Self is required")
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list", cfg.Self)
	}
	vnodes := cfg.VirtualNodes
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	ring, err := NewRing(cfg.Peers, vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 1
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(ring.Nodes()) {
		cfg.Replicas = len(ring.Nodes())
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Node{
		cfg:     cfg,
		inner:   inner,
		ring:    ring,
		gossip:  NewGossip(cfg.Self, cfg.Peers, cfg.Gossip),
		flights: NewGroup(),
		client:  client,
		vnodes:  vnodes,
		drainCh: make(chan struct{}),
	}, nil
}

// Start launches peer health polling.
func (n *Node) Start() { n.gossip.Start() }

// Stop terminates peer health polling.
func (n *Node) Stop() { n.gossip.Stop() }

// Ring exposes the node's consistent-hash ring (for tooling and tests).
func (n *Node) Ring() *Ring { return n.ring }

// Gossip exposes the node's peer health tracker (for tooling and tests).
func (n *Node) Gossip() *Gossip { return n.gossip }

// Counters returns a snapshot of the routing counters.
func (n *Node) Counters() Counters { return n.counters.snapshot() }

// Draining reports whether the drain protocol has started.
func (n *Node) Draining() bool { return n.draining.Load() }

// DrainRequested is closed when a drain begins (POST /v1/drain or Drain),
// so the serving loop can initiate shutdown; read it with a nil-safe
// select in cmd/qjoind.
func (n *Node) DrainRequested() <-chan struct{} { return n.drainCh }

// beginDrain flips the node to draining exactly once and announces the
// departure to every peer (best-effort, in parallel) so they stop routing
// new work here immediately instead of waiting out a failed probe.
func (n *Node) beginDrain() {
	n.drainOnce.Do(func() {
		n.draining.Store(true)
		close(n.drainCh)
		body, _ := json.Marshal(map[string]string{"node": n.cfg.Self})
		for _, p := range n.cfg.Peers {
			if p == n.cfg.Self {
				continue
			}
			go func(peer string) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/cluster/leave", bytes.NewReader(body))
				if err != nil {
					return
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := n.client.Do(req)
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}(p)
		}
	})
}

// Drain runs the graceful-drain protocol: mark the node draining (peers
// are told to stop routing new work here), then wait until every
// in-flight request — including coalesced solves with attached waiters —
// has finished, or ctx expires. After Drain returns nil the listener can
// close without cutting off any client.
func (n *Node) Drain(ctx context.Context) error {
	n.beginDrain()
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if n.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: drain timed out with %d requests in flight: %w", n.inflight.Load(), ctx.Err())
		case <-t.C:
		}
	}
}

// routable reports whether new work may be routed to node: a draining
// self sheds its keys to their other replicas; peers answer from gossip.
func (n *Node) routable(node string) bool {
	if node == n.cfg.Self {
		return !n.draining.Load()
	}
	return n.gossip.Healthy(node)
}

// ServeHTTP implements http.Handler.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/optimize" && r.Method == http.MethodPost:
		n.inflight.Add(1)
		defer n.inflight.Add(-1)
		if r.Header.Get(service.HeaderWarmOnly) != "" {
			// A replica warm push from a primary owner: populate the
			// encoding cache directly, no routing (pushes never cascade).
			// Counted once served, so a reader that sees the counter move
			// also sees the cache entry.
			w.Header().Set(HeaderServedBy, n.cfg.Self)
			n.inner.ServeHTTP(w, r)
			n.counters.warmsReceived.Add(1)
			return
		}
		n.handleOptimize(w, r)
	case r.URL.Path == "/v1/optimize/batch" && r.Method == http.MethodPost:
		n.inflight.Add(1)
		defer n.inflight.Add(-1)
		n.handleBatch(w, r)
	case r.URL.Path == "/v1/cluster" && r.Method == http.MethodGet:
		n.handleStatus(w, r)
	case r.URL.Path == "/v1/cluster/leave" && r.Method == http.MethodPost:
		n.handleLeave(w, r)
	case r.URL.Path == "/v1/drain" && r.Method == http.MethodPost:
		n.handleDrain(w, r)
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet && n.draining.Load():
		n.handleDrainingHealthz(w, r)
	case r.URL.Path == "/metrics" && r.Method == http.MethodGet:
		n.handleMetrics(w, r)
	default:
		n.inner.ServeHTTP(w, r)
	}
}

func (n *Node) handleOptimize(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxOptimizeBody))
	if err != nil {
		writeNodeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))

	// Parse just enough to route. Anything the inner handler would reject
	// (strict fields, bad query) is passed through untouched so the error
	// contract is byte-identical with and without clustering.
	var opt service.OptimizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opt); err != nil || len(opt.Query) == 0 {
		n.serveLocal(w, r, "", "", nil)
		return
	}
	q, err := join.ReadCatalog(bytes.NewReader(opt.Query))
	if err != nil {
		n.serveLocal(w, r, "", "", nil)
		return
	}
	if qp := r.URL.Query().Get("backend"); qp != "" {
		opt.Backend = qp
	}
	key, perm := service.Fingerprint(q, service.EncodeSpec{
		Thresholds:   opt.Thresholds,
		Omega:        opt.Omega,
		LogObjective: opt.LogObjective,
		Compact:      opt.Compact,
	})

	// Mint the request ID here (adopting an inbound one) so the routing
	// span, the forwarded request, and the inner service trace all share
	// it — one ID resolves the whole cross-node story.
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = obs.NewRequestID()
		r.Header.Set("X-Request-ID", id)
	}
	ctx := obs.WithRequestID(r.Context(), id)
	ctx, span := n.cfg.Tracer.Start(ctx, "cluster.route")
	defer span.End(nil)
	span.SetAttr("cache_key", key)
	r = r.WithContext(ctx)

	hops := forwardHops(r)
	targets := n.ring.ReplicasHealthy(key, n.cfg.Replicas, n.routable)
	span.SetAttr("owner", targets[0])
	if targets[0] != n.cfg.Self {
		if hops >= n.cfg.MaxHops {
			// Ring disagreement (version skew, all-unhealthy fallback):
			// solving locally is always correct, just cache-colder.
			n.counters.forcedLocal.Add(1)
			span.SetAttr("forced_local", true)
		} else if n.hedgedForward(w, r, withoutNode(targets, n.cfg.Self), body, hops, span) {
			n.counters.forwards.Add(1)
			span.SetAttr("forwarded", true)
			return
		} else {
			span.SetAttr("forward_failed", true)
		}
	}
	n.serveLocal(w, r, coalesceKey(key, q, perm, &opt), key, body)
}

// withoutNode returns targets minus node, preserving order.
func withoutNode(targets []string, node string) []string {
	out := make([]string, 0, len(targets))
	for _, t := range targets {
		if t != node {
			out = append(out, t)
		}
	}
	return out
}

// coalesceKey identifies requests whose response bodies would be
// identical, since a waiter receives the leader's body: same canonical
// instance and spec (the fingerprint, with perm its canonicalising
// permutation), same relation names in canonical order (the body spells
// the plan in the request's names), same backend, solver parameters and
// response shape. Requests that list the same relations in another order
// coalesce; requests with different names, seeds, budgets or part budgets,
// or a different lean flag, never do.
func coalesceKey(fingerprint string, q *join.Query, perm []int, opt *service.OptimizeRequest) string {
	names := make([]string, len(perm))
	for orig, canon := range perm {
		names[canon] = q.Relations[orig].Name
	}
	return fmt.Sprintf("%s|%q|%s|%d|%d|%d|%q|%d|%d|%t",
		fingerprint, names, opt.Backend, opt.Reads, opt.Seed, opt.TimeoutMs,
		opt.Portfolio, opt.HedgeMs, opt.PartBudget, opt.Lean)
}

// forwardHops reads the hop counter (absent or malformed reads as 0).
func forwardHops(r *http.Request) int {
	h, err := strconv.Atoi(r.Header.Get(HeaderForwardHops))
	if err != nil || h < 0 {
		return 0
	}
	return h
}

// fwdReply is one forward attempt's outcome in the hedge race.
type fwdReply struct {
	resp   *http.Response
	peer   string
	hedged bool
	err    error
}

// hedgedForward races the request across the key's remote replicas:
// the primary is tried first, the next replica joins after HedgeAfter
// (or immediately when an attempt dies at the transport — the
// KindPeerUnreachable case), and the first HTTP response wins; losers
// are cancelled through the shared context. Any HTTP response counts as
// a win — the replica's 4xx/5xx is the caller's 4xx/5xx, copied verbatim
// (including Retry-After). It returns false only when every attempt
// failed at the transport, in which case nothing has been written and
// the caller falls back to a local solve.
func (n *Node) hedgedForward(w http.ResponseWriter, r *http.Request, targets []string, body []byte, hops int, span *obs.Span) bool {
	if len(targets) == 0 {
		return false
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	replies := make(chan fwdReply, len(targets))
	launched, received := 0, 0
	launch := func(hedged bool) {
		target := targets[launched]
		launched++
		go func() {
			resp, err := n.doForward(ctx, r, target, body, hops)
			replies <- fwdReply{resp: resp, peer: target, hedged: hedged, err: err}
		}()
	}
	launch(false)

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if n.cfg.HedgeAfter > 0 && len(targets) > 1 {
		hedgeTimer = time.NewTimer(n.cfg.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	for received < launched {
		select {
		case <-hedgeC:
			if launched < len(targets) {
				n.counters.hedges.Add(1)
				span.SetAttr("hedged", true)
				launch(true)
			}
			if launched < len(targets) {
				hedgeTimer.Reset(n.cfg.HedgeAfter)
			} else {
				hedgeC = nil
			}
		case rep := <-replies:
			received++
			if rep.err != nil {
				n.counters.forwardErrors.Add(1)
				n.gossip.ReportFailure(rep.peer)
				n.logForwardFailure(r, rep.peer, rep.err)
				// Peer unreachable: don't wait out the hedge timer, race
				// the next replica now.
				if launched < len(targets) {
					n.counters.hedges.Add(1)
					span.SetAttr("hedged", true)
					launch(true)
				}
				continue
			}
			n.gossip.ReportSuccess(rep.peer)
			if pending := launched - received; pending > 0 {
				// First valid response wins: cancel the losers (via the
				// deferred cancel) and close their bodies off-path.
				go func(pending int) {
					for i := 0; i < pending; i++ {
						if late := <-replies; late.resp != nil {
							late.resp.Body.Close()
						}
					}
				}(pending)
			}
			h := w.Header()
			for k, vs := range rep.resp.Header {
				h[k] = vs
			}
			if rep.hedged {
				n.counters.hedgeWins.Add(1)
				h.Set(HeaderHedged, rep.peer)
				span.SetAttr("hedge_win", rep.peer)
			}
			w.WriteHeader(rep.resp.StatusCode)
			_, _ = io.Copy(w, rep.resp.Body)
			rep.resp.Body.Close()
			return true
		}
	}
	return false
}

// doForward issues one forward attempt. The client's Content-Type and
// Accept-Encoding travel verbatim (setting Accept-Encoding explicitly
// also disables the Go client's transparent gzip, so a compressed
// upstream answer flows back with its Content-Encoding intact — proxy
// semantics, not client semantics).
func (n *Node) doForward(ctx context.Context, r *http.Request, target string, body []byte, hops int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	req.Header.Set("Content-Type", ct)
	if ae := r.Header.Get("Accept-Encoding"); ae != "" {
		req.Header.Set("Accept-Encoding", ae)
	}
	req.Header.Set("X-Request-ID", r.Header.Get("X-Request-ID"))
	req.Header.Set(HeaderForwardedNode, n.cfg.Self)
	req.Header.Set(HeaderForwardHops, strconv.Itoa(hops+1))
	return n.client.Do(req)
}

func (n *Node) logForwardFailure(r *http.Request, owner string, err error) {
	if n.cfg.Logger == nil {
		return
	}
	fault := &faults.Error{Kind: faults.KindPeerUnreachable, Backend: owner}
	n.cfg.Logger.WarnContext(r.Context(), "cluster forward failed",
		"peer", owner, "fault", fault.Kind.String(), "error", err)
}

// serveLocal answers the request on this node, coalescing with concurrent
// identical requests when key is non-empty. fingerprint and body feed the
// replica warm push and may be empty when the request is not routable.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, key, fingerprint string, body []byte) {
	n.counters.routedLocal.Add(1)
	w.Header().Set(HeaderServedBy, n.cfg.Self)
	if key == "" {
		n.inner.ServeHTTP(w, r)
		return
	}
	leader, err := n.flights.Do(key, w, r, n.inner)
	if err != nil {
		// Only this waiter's client went away; the shared solve continues
		// for everyone else. 499 is the de-facto client-closed status.
		writeNodeError(w, 499, "request cancelled while waiting for coalesced solve")
		return
	}
	if leader {
		n.counters.coalesceLeaders.Add(1)
		n.maybeWarmReplica(w.Header(), fingerprint, body)
	} else {
		n.counters.coalesceJoined.Add(1)
	}
}

// maybeWarmReplica pushes the request body to the fingerprint's next
// healthy replica after this node — as primary owner — encoded it fresh,
// so a later failover of this key lands on a warm cache. The push rides
// the X-Warm-Only header: the replica validates and encodes but never
// solves, and never pushes onward (no cascade). Fire-and-forget on
// purpose: warmth is an optimisation, not a contract.
func (n *Node) maybeWarmReplica(h http.Header, fingerprint string, body []byte) {
	if fingerprint == "" || len(body) == 0 || n.cfg.Replicas < 2 {
		return
	}
	// "0" means the inner service answered 200 with a fresh encoding; a
	// hit means the replicas were warmed when the entry first appeared.
	if h.Get(service.HeaderCacheHit) != "0" {
		return
	}
	reps := n.ring.Replicas(fingerprint, n.cfg.Replicas)
	if len(reps) < 2 || reps[0] != n.cfg.Self {
		return
	}
	for _, rep := range reps[1:] {
		if rep == n.cfg.Self || !n.gossip.Healthy(rep) {
			continue
		}
		go n.warmPush(rep, append([]byte(nil), body...))
		return
	}
}

func (n *Node) warmPush(peer string, body []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/optimize", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.HeaderWarmOnly, "1")
	resp, err := n.client.Do(req)
	if err != nil {
		n.gossip.ReportFailure(peer)
		return
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode < http.StatusMultipleChoices {
		n.counters.warmPushes.Add(1)
	}
}

func (n *Node) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err != nil {
		writeNodeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))

	var env service.BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil || len(env.Requests) == 0 {
		// Malformed or empty: pass through for the inner handler's 400.
		n.serveLocal(w, r, "", "", nil)
		return
	}
	hops := forwardHops(r)
	if hops >= n.cfg.MaxHops || len(n.ring.Nodes()) == 1 {
		n.serveLocal(w, r, "", "", nil)
		return
	}

	// Partition items by ring owner. Items the router cannot fingerprint
	// (empty or invalid query) stay local; the inner handler reports their
	// per-item errors.
	groups := make(map[string][]int)
	order := make([]string, 0, 4)
	for i := range env.Requests {
		owner := n.cfg.Self
		if len(env.Requests[i].Query) > 0 {
			if q, err := join.ReadCatalog(bytes.NewReader(env.Requests[i].Query)); err == nil {
				key, _ := service.Fingerprint(q, service.EncodeSpec{
					Thresholds:   env.Requests[i].Thresholds,
					Omega:        env.Requests[i].Omega,
					LogObjective: env.Requests[i].LogObjective,
				})
				owner = n.ring.OwnerHealthy(key, n.routable)
			}
		}
		if _, ok := groups[owner]; !ok {
			order = append(order, owner)
		}
		groups[owner] = append(groups[owner], i)
	}
	if len(groups) == 1 && groups[n.cfg.Self] != nil {
		n.serveLocal(w, r, "", "", nil)
		return
	}

	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = obs.NewRequestID()
		r.Header.Set("X-Request-ID", id)
	}
	ctx := obs.WithRequestID(r.Context(), id)
	ctx, span := n.cfg.Tracer.Start(ctx, "cluster.batch_split")
	defer span.End(nil)
	span.SetAttr("items", len(env.Requests))
	span.SetAttr("owners", len(groups))
	r = r.WithContext(ctx)

	n.counters.batchSplits.Add(1)
	start := time.Now()
	results := make([]service.BatchItemResult, len(env.Requests))
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		unique int
	)
	for _, owner := range order {
		idxs := groups[owner]
		sub := service.BatchRequest{TimeoutMs: env.TimeoutMs, Requests: make([]service.OptimizeRequest, len(idxs))}
		for j, i := range idxs {
			sub.Requests[j] = env.Requests[i]
		}
		wg.Add(1)
		go func(owner string, idxs []int, sub service.BatchRequest) {
			defer wg.Done()
			resp := n.solveSubBatch(r, owner, &sub, hops)
			mu.Lock()
			defer mu.Unlock()
			unique += resp.Unique
			for j, i := range idxs {
				if j < len(resp.Results) {
					results[i] = resp.Results[j]
				}
			}
		}(owner, idxs, sub)
	}
	wg.Wait()

	// Mirror the inner handler's envelope contract: when every item was
	// rejected by overload/shutdown, surface it as the envelope status.
	allRejected := len(results) > 0
	for i := range results {
		if results[i].Response != nil || results[i].Status != http.StatusServiceUnavailable {
			allRejected = false
			break
		}
	}
	if allRejected {
		w.Header().Set("Retry-After", "1")
		writeNodeError(w, http.StatusServiceUnavailable, results[0].Error)
		return
	}
	w.Header().Set(HeaderServedBy, n.cfg.Self)
	writeNodeJSON(w, http.StatusOK, service.BatchResponse{
		Results:   results,
		Items:     len(env.Requests),
		Unique:    unique,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// solveSubBatch runs one owner's share of a split envelope: forwarded to
// the owner when remote (falling back to a local solve on any failure),
// solved through the inner handler when local.
func (n *Node) solveSubBatch(r *http.Request, owner string, sub *service.BatchRequest, hops int) service.BatchResponse {
	raw, err := json.Marshal(sub)
	if err != nil {
		return subBatchFailure(len(sub.Requests), http.StatusInternalServerError, err.Error())
	}
	if owner != n.cfg.Self {
		if resp, ok := n.forwardSubBatch(r, owner, raw); ok {
			n.counters.batchForwards.Add(1)
			return resp
		}
		n.counters.batchFallbacks.Add(1)
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "/v1/optimize/batch", bytes.NewReader(raw))
	if err != nil {
		return subBatchFailure(len(sub.Requests), http.StatusInternalServerError, err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", r.Header.Get("X-Request-ID"))
	rec := newRecorder()
	n.inner.ServeHTTP(rec, req)
	var out service.BatchResponse
	if err := json.Unmarshal(rec.body.Bytes(), &out); err != nil || rec.status != http.StatusOK {
		msg := errorMessage(rec.body.Bytes())
		return subBatchFailure(len(sub.Requests), rec.status, msg)
	}
	return out
}

// forwardSubBatch relays a sub-envelope to its owner; ok=false means the
// caller should solve it locally instead.
func (n *Node) forwardSubBatch(r *http.Request, owner string, raw []byte) (service.BatchResponse, bool) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+"/v1/optimize/batch", bytes.NewReader(raw))
	if err != nil {
		return service.BatchResponse{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	if ae := r.Header.Get("Accept-Encoding"); ae != "" {
		req.Header.Set("Accept-Encoding", ae)
	}
	req.Header.Set("X-Request-ID", r.Header.Get("X-Request-ID"))
	req.Header.Set(HeaderForwardedNode, n.cfg.Self)
	req.Header.Set(HeaderForwardHops, strconv.Itoa(forwardHops(r)+1))
	resp, err := n.client.Do(req)
	if err != nil {
		n.gossip.ReportFailure(owner)
		n.logForwardFailure(r, owner, err)
		return service.BatchResponse{}, false
	}
	defer resp.Body.Close()
	n.gossip.ReportSuccess(owner)
	if resp.StatusCode != http.StatusOK {
		// The owner answered but refused the envelope (e.g. shedding
		// load); our local pool may still have room.
		_, _ = io.Copy(io.Discard, resp.Body)
		return service.BatchResponse{}, false
	}
	var out service.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return service.BatchResponse{}, false
	}
	return out, true
}

// subBatchFailure marks every item of a sub-envelope failed with the same
// status and message.
func subBatchFailure(items, status int, msg string) service.BatchResponse {
	if status == 0 {
		status = http.StatusInternalServerError
	}
	out := service.BatchResponse{Results: make([]service.BatchItemResult, items), Items: items}
	for i := range out.Results {
		out.Results[i] = service.BatchItemResult{Error: msg, Status: status}
	}
	return out
}

// errorMessage extracts {"error": ...} from an inner error body, falling
// back to the raw text.
func errorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

func (n *Node) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeNodeJSON(w, http.StatusOK, StatusResponse{
		Self:         n.cfg.Self,
		Nodes:        n.ring.Nodes(),
		VirtualNodes: n.vnodes,
		MaxHops:      n.cfg.MaxHops,
		Replicas:     n.cfg.Replicas,
		Draining:     n.draining.Load(),
		Peers:        n.gossip.Snapshot(),
		Counters:     n.counters.snapshot(),
	})
}

// handleLeave records a peer's departure announcement: the named node is
// immediately unroutable, without waiting for a failed probe.
func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Node string `json:"node"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&body); err != nil || body.Node == "" {
		writeNodeError(w, http.StatusBadRequest, `leave body must be {"node": <base-url>}`)
		return
	}
	n.gossip.MarkLeft(body.Node)
	writeNodeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleDrain starts the graceful drain (idempotent). The caller is
// responsible for the rest of the protocol — cmd/qjoind watches
// DrainRequested and runs Drain before closing the listener.
func (n *Node) handleDrain(w http.ResponseWriter, _ *http.Request) {
	n.beginDrain()
	writeNodeJSON(w, http.StatusAccepted, map[string]any{
		"status":   "draining",
		"inflight": n.inflight.Load(),
	})
}

// handleDrainingHealthz serves the inner health body with the status
// patched to "draining": still 200 (the node is alive and finishing its
// work), but peers' gossip reads the status and stops routing here.
func (n *Node) handleDrainingHealthz(w http.ResponseWriter, r *http.Request) {
	rec := newRecorder()
	n.inner.ServeHTTP(rec, r)
	var body map[string]any
	if rec.status == http.StatusOK && json.Unmarshal(rec.body.Bytes(), &body) == nil {
		body["status"] = "draining"
		writeNodeJSON(w, http.StatusOK, body)
		return
	}
	h := w.Header()
	for k, vs := range rec.header {
		h[k] = vs
	}
	w.WriteHeader(rec.status)
	_, _ = w.Write(rec.body.Bytes())
}

// handleMetrics serves the inner Prometheus exposition and appends the
// qjoind_cluster_* families.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rec := newRecorder()
	n.inner.ServeHTTP(rec, r)
	h := w.Header()
	for k, vs := range rec.header {
		h[k] = vs
	}
	w.WriteHeader(rec.status)
	_, _ = w.Write(rec.body.Bytes())
	if rec.status != http.StatusOK {
		return
	}
	c := n.counters.snapshot()
	p := obs.NewPromWriter(w)
	counter := func(name, help string, v int64) {
		p.Family(name, help, "counter")
		p.Sample(name, nil, float64(v))
	}
	counter("qjoind_cluster_routed_local_total", "Optimize requests served by this node.", c.RoutedLocal)
	counter("qjoind_cluster_forwards_total", "Optimize requests forwarded to a replica.", c.Forwards)
	counter("qjoind_cluster_forward_errors_total", "Forward attempts that failed at the transport.", c.ForwardErrors)
	counter("qjoind_cluster_forced_local_total", "Requests served locally because the hop limit was reached.", c.ForcedLocal)
	counter("qjoind_cluster_hedges_total", "Extra forward attempts launched beyond the first.", c.Hedges)
	counter("qjoind_cluster_hedge_wins_total", "Responses won by a hedged (non-first) attempt.", c.HedgeWins)
	counter("qjoind_cluster_warm_pushes_total", "Encodings pushed to a replica after a primary cache miss.", c.WarmPushes)
	counter("qjoind_cluster_warms_received_total", "Warm-only requests accepted from a primary owner.", c.WarmsReceived)
	counter("qjoind_cluster_coalesce_leaders_total", "Local solves that led a singleflight.", c.CoalesceLeaders)
	counter("qjoind_cluster_coalesce_joined_total", "Requests answered from a coalesced concurrent solve.", c.CoalesceJoined)
	counter("qjoind_cluster_batch_splits_total", "Batch envelopes split across ring owners.", c.BatchSplits)
	counter("qjoind_cluster_batch_forwards_total", "Sub-batches forwarded to peer nodes.", c.BatchForwards)
	counter("qjoind_cluster_batch_fallbacks_total", "Sub-batches solved locally after a failed forward.", c.BatchFallbacks)
	p.Family("qjoind_cluster_draining", "Whether this node is draining (1 = draining).", "gauge")
	drainVal := 0.0
	if n.draining.Load() {
		drainVal = 1.0
	}
	p.Sample("qjoind_cluster_draining", nil, drainVal)
	peers := n.gossip.Snapshot()
	p.Family("qjoind_cluster_peer_up", "Peer routability as seen by this node (1 = healthy).", "gauge")
	for _, peer := range peers {
		up := 0.0
		if peer.Healthy {
			up = 1.0
		}
		p.Sample("qjoind_cluster_peer_up", map[string]string{"peer": peer.Node}, up)
	}
	p.Family("qjoind_cluster_peer_suspicion", "Flap-damped suspicion score per peer (failures add 1, successes decay).", "gauge")
	for _, peer := range peers {
		p.Sample("qjoind_cluster_peer_suspicion", map[string]string{"peer": peer.Node}, peer.Suspicion)
	}
}

func writeNodeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeNodeError(w http.ResponseWriter, status int, msg string) {
	writeNodeJSON(w, status, map[string]string{"error": msg})
}
