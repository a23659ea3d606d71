package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"quantumjoin/internal/service"
)

// epsilon is the slack deadline_met_ratio allows beyond a request's
// deadline. It is zero: the deadline is the contract. The staged hybrid
// strategy answers 1-10 ms after its deadline, so any positive slack in
// that range would split a class between met and missed by host noise.
const epsilon = 0

// outcome is one sent request as the client saw it.
type outcome struct {
	req      *request
	latency  time.Duration
	serverMs float64 // the response's elapsed_ms
	answers  []answer
	unique   int    // batch: deduplicated solves
	body     []byte // the raw answer, until check decodes it
	err      error  // transport, status or check failure
	checkErr bool   // err is a wrong answer, not an unavailable one
}

func (o *outcome) ok() bool { return o.err == nil }

func (o *outcome) metDeadline() bool {
	return o.ok() && o.latency <= o.req.deadline+epsilon
}

// wireClient sends requests to one qjoind over a keep-alive connection.
type wireClient struct {
	http *http.Client
	base string
}

func newWireClient(base string) *wireClient {
	return &wireClient{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		}},
	}
}

func (c *wireClient) close() { c.http.CloseIdleConnections() }

// do sends r, waits for the answer and checks every item of it.
func (c *wireClient) do(ctx context.Context, r *request) outcome {
	o := c.fetch(ctx, r)
	o.check()
	return o
}

// fetch sends r and keeps the raw answer for check, so a timed loop sends
// its next request without waiting for the checker.
func (c *wireClient) fetch(ctx context.Context, r *request) outcome {
	o := outcome{req: r}
	start := time.Now()
	status, body, err := post(ctx, c.http, c.base+r.path(), r.body)
	o.latency = time.Since(start)
	switch {
	case err != nil:
		o.err = err
	case status != http.StatusOK:
		o.err = fmt.Errorf("status %d: %s", status, body)
	default:
		o.body = body
	}
	return o
}

// check decodes the answer fetch kept and checks every item of it.
func (o *outcome) check() {
	body := o.body
	o.body = nil
	if o.err != nil || body == nil {
		return
	}
	r := o.req
	var resps []*service.OptimizeResponse
	if r.batch {
		var br service.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			o.err = fmt.Errorf("decode batch response: %w", err)
			return
		}
		if len(br.Results) != len(r.items) {
			o.err, o.checkErr = fmt.Errorf("batch answered %d of %d items", len(br.Results), len(r.items)), true
			return
		}
		for i, res := range br.Results {
			if res.Response == nil {
				o.err = fmt.Errorf("batch item %d: status %d: %s", i, res.Status, res.Error)
				return
			}
			resps = append(resps, res.Response)
		}
		o.serverMs, o.unique = br.ElapsedMs, br.Unique
	} else {
		var or service.OptimizeResponse
		if err := json.Unmarshal(body, &or); err != nil {
			o.err = fmt.Errorf("decode response: %w", err)
			return
		}
		resps = append(resps, &or)
		o.serverMs = or.ElapsedMs
	}
	for i, resp := range resps {
		a, err := checkAnswer(r.items[i], resp.Order, resp.Cost, resp.Degraded)
		if err != nil {
			o.err, o.checkErr = fmt.Errorf("%s item %d (%s): %w", r.class, i, r.items[i].backend, err), true
			return
		}
		o.answers = append(o.answers, a)
	}
}

// sender runs one request to completion; wireClient.do and the
// in-process traced run both fit it.
type sender func(context.Context, *request) outcome

// runOnce sends every request of reqs once, in order, on one closed
// loop.
func runOnce(ctx context.Context, send sender, reqs []*request) []outcome {
	outs := make([]outcome, len(reqs))
	for i, r := range reqs {
		outs[i] = send(ctx, r)
	}
	return outs
}

// runTimed cycles through cycle on one closed loop until at least dur has
// passed, stopping only at a cycle boundary so every run has the same
// request make-up. atCycle, when non-nil, is called as each cycle starts
// and once more at the end. It returns the outcomes in send order and the
// window length.
func runTimed(ctx context.Context, send sender, cycle []*request, dur time.Duration, atCycle func()) ([]outcome, time.Duration) {
	var outs []outcome
	start := time.Now()
	for {
		if atCycle != nil {
			atCycle()
		}
		if len(outs) > 0 && time.Since(start) >= dur {
			return outs, time.Since(start)
		}
		for _, r := range cycle {
			outs = append(outs, send(ctx, r))
		}
	}
}
