// Command qjbench is the end-to-end benchmark of qjoind. It drives a real
// qjoind over HTTP with closed loops, checks every answer against the
// classical optimum, and prints one JSON result line:
//
//	qjbench -qjoind <binary> -workload plan-serve -seed 1 -seconds 15 -trace 0
//
// With -trace 1 it instead composes the service in-process the way
// cmd/qjoind does, records spans around the calls into each layer from
// this package's own code, and prints per-layer metrics. -repeat N runs
// the workload N times with consecutive seeds and prints the spread of
// every end-to-end metric. qjbench/run.sh builds both binaries from the
// checkout and runs the benchmark.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	qjoind := flag.String("qjoind", ".bench_build/qjoind", "qjoind binary to benchmark")
	name := flag.String("workload", "", "plan-serve, hybrid-deadline or quantum-solve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "timed window length")
	trace := flag.Int("trace", 0, "1 = in-process traced run reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each end-to-end metric's spread")
	flag.Parse()

	if *repeat > 0 {
		if err := spread(*repeat); err != nil {
			fail(err)
		}
		return
	}
	w, err := buildWorkload(*name, *seed)
	if err != nil {
		fail(err)
	}
	printHeader(w, *seed)
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *qjoind, dur)
	} else {
		res, err = runEndToEnd(w, *qjoind, dur)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qjbench:", err)
	os.Exit(1)
}

// printHeader records what the numbers depend on, so drift between runs
// can be explained. No run is discarded on it.
func printHeader(w *workload, seed int64) {
	// Only a checkout that is itself a git work tree names its commit; a
	// plain copy must not pick up an enclosing repository's HEAD.
	commit := "none"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Printf("# commit %s\n# tree %s\n# go %s\n# nproc %d\n# gomaxprocs %d\n",
		commit, treeHash(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("# workload %s seed %d, one closed-loop connection, cycle %d requests (%d distinct)\n",
		w.name, seed, len(w.cycle), len(w.distinct))
	fmt.Printf("# qjoind flags %q\n# setups %d\n# epsilon %v\n", w.flags, w.setups, epsilon)
}

// treeHash hashes the Go sources and module files the benchmark builds
// from, so a checkout without git history still identifies its code.
func treeHash() string {
	h := sha256.New()
	var paths []string
	for _, dir := range []string{"cmd", "internal", "qjbench"} {
		_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".mod")) {
				paths = append(paths, p)
			}
			return nil
		})
	}
	paths = append(paths, "go.mod")
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// warmUp execs qjoind and answers each distinct request once, so caches
// are full and lazy initialisation is done. It returns the server and the
// time from exec to the end of the pass.
func warmUp(w *workload, bin string, d *digest) (*server, time.Duration, error) {
	srv, err := startServer(bin, w.flags)
	if err != nil {
		return nil, 0, err
	}
	cl := newWireClient(srv.base)
	defer cl.close()
	outs := runOnce(context.Background(), cl.do, w.distinct)
	setup := time.Since(srv.started)
	for i := range outs {
		if err := outs[i].err; err != nil {
			srv.stop()
			return nil, 0, fmt.Errorf("warm-up %s: %w", outs[i].req.class, err)
		}
		if d != nil {
			for _, a := range outs[i].answers {
				d.add(a)
			}
		}
	}
	return srv, setup, nil
}

func runEndToEnd(w *workload, bin string, dur time.Duration) (*result, error) {
	var setupS []float64
	var srv *server
	d := newDigest()
	for k := 0; k < w.setups; k++ {
		if srv != nil {
			srv.stop()
		}
		var setup time.Duration
		var err error
		if srv, setup, err = warmUp(w, bin, d); err != nil {
			return nil, err
		}
		if k == 0 {
			if w.replays {
				fmt.Printf("# plan_digest %s\n", d.hex())
			}
			d = nil
		}
		setupS = append(setupS, setup.Seconds())
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid
	fmt.Printf("# setup_s each %.4f\n", setupS)

	cl := newWireClient(srv.base)
	defer cl.close()
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	var marks []mark
	var tickErr error
	outs, window := runTimed(context.Background(), cl.fetch, w.cycle, dur, func() {
		t, err := cpuTicks(pid)
		if err != nil && tickErr == nil {
			tickErr = err
		}
		marks = append(marks, mark{at: time.Now(), ticks: t})
	})
	if tickErr != nil {
		return nil, tickErr
	}
	self1 := selfCPU()
	for i := range outs {
		outs[i].check()
	}
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# window %.3fs host_steal_share %.4f client_cpu_share %.4f\n", window.Seconds(),
		stealShare(host0, host1), (self1-self0).Seconds()/(window.Seconds()*float64(runtime.NumCPU())))
	printClasses(outs)

	res, err := summarize(outs, len(w.cycle), marks)
	if err != nil {
		return nil, err
	}
	res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	return res, nil
}

// mark is the clock and qjoind's CPU ticks at a cycle boundary.
type mark struct {
	at    time.Time
	ticks int64
}

// minRound is the fewest requests a round holds, so its p90 has at least
// ten samples beyond it.
const minRound = 110

// timing holds the time-based end-to-end metrics of a stretch of cycles.
type timing struct{ p50, p90, rps, cpuMs float64 }

// timeRounds reports the latency, throughput and server-CPU metrics.
// Throughput and CPU per request are the medians over cycles, so a burst
// of host contention in a few cycles moves them less. For the latency
// percentiles the window is cut into rounds of whole cycles holding at
// least minRound requests each; with three or more rounds each
// percentile is the median over rounds, and with fewer the window is one
// round.
func timeRounds(outs []outcome, cycleLen int, marks []mark) (timing, int, error) {
	cycles := len(marks) - 1
	var rps, cpuMs []float64
	for c := 0; c < cycles; c++ {
		ok := 0
		for _, o := range outs[c*cycleLen : (c+1)*cycleLen] {
			if o.ok() {
				ok++
			}
		}
		if ok == 0 {
			return timing{}, 0, errors.New("a cycle with no successful request")
		}
		rps = append(rps, float64(ok)/marks[c+1].at.Sub(marks[c].at).Seconds())
		cpuMs = append(cpuMs, float64(marks[c+1].ticks-marks[c].ticks)*1000/userHZ/float64(ok))
	}
	perRound := (minRound + cycleLen - 1) / cycleLen
	rounds := cycles / perRound
	if rounds < 3 {
		rounds, perRound = 1, cycles
	}
	var p50s, p90s []float64
	for r := 0; r < rounds; r++ {
		c0, c1 := r*perRound, (r+1)*perRound
		if r == rounds-1 {
			c1 = cycles // the last round takes any leftover cycles
		}
		var lat []float64
		for _, o := range outs[c0*cycleLen : c1*cycleLen] {
			if o.ok() {
				lat = append(lat, float64(o.latency)/float64(time.Millisecond))
			}
		}
		p50, err := percentile(lat, 0.5)
		if err != nil {
			return timing{}, 0, err
		}
		p90, err := percentile(lat, 0.9)
		if err != nil {
			return timing{}, 0, err
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
	}
	return timing{p50: median(p50s), p90: median(p90s), rps: median(rps), cpuMs: median(cpuMs)}, rounds, nil
}

// summarize turns the timed window's outcomes into the client-side
// end-to-end metrics.
func summarize(outs []outcome, cycleLen int, marks []mark) (*result, error) {
	res := &result{Correct: true, Attempted: len(outs), Metrics: map[string]metric{}}
	var ratios []float64
	okN, met, answers, optimal, degraded, labelWorse := 0, 0, 0, 0, 0, 0
	var firstErr error
	for i := range outs {
		o := &outs[i]
		if o.checkErr {
			res.Correct = false
		}
		if !o.ok() {
			res.Failed++
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		okN++
		if o.metDeadline() {
			met++
		}
		for _, a := range o.answers {
			answers++
			ratios = append(ratios, a.ratio)
			if a.optimal {
				optimal++
			}
			if a.degraded {
				degraded++
			}
			if a.labelWorse {
				labelWorse++
			}
		}
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "qjbench: %d of %d requests failed, first: %v\n", res.Failed, res.Attempted, firstErr)
	}
	if okN == 0 {
		return nil, errors.New("no request succeeded")
	}
	t, rounds, err := timeRounds(outs, cycleLen, marks)
	if err != nil {
		return nil, err
	}
	n := float64(res.Attempted)
	res.Metrics["latency_p50_ms"] = metric{t.p50, "ms"}
	res.Metrics["latency_p90_ms"] = metric{t.p90, "ms"}
	res.Metrics["throughput_rps"] = metric{t.rps, "1/s"}
	res.Metrics["cpu_ms_per_req"] = metric{t.cpuMs, "ms"}
	res.Metrics["cost_ratio_gmean"] = metric{gmean(ratios), "ratio"}
	res.Metrics["optimal_share"] = metric{float64(optimal) / float64(answers), "ratio"}
	res.Metrics["ok_ratio"] = metric{float64(okN) / n, "ratio"}
	res.Metrics["deadline_met_ratio"] = metric{float64(met) / n, "ratio"}
	res.Metrics["non_degraded_ratio"] = metric{1 - float64(degraded)/float64(answers), "ratio"}
	if labelWorse > 0 {
		fmt.Printf("# hybrid answers worse than greedy on the request's own labelling: %d of %d\n", labelWorse, answers)
	}
	fmt.Printf("# samples %d in %d cycles, %d rounds\n", okN, len(marks)-1, rounds)
	return res, nil
}

// printClasses prints each request class's count and median latency, the
// evidence that p50 and p90 fall inside a class rather than between two.
func printClasses(outs []outcome) {
	by := map[string][]float64{}
	for i := range outs {
		if outs[i].ok() {
			by[outs[i].req.class] = append(by[outs[i].req.class], float64(outs[i].latency)/float64(time.Millisecond))
		}
	}
	var names []string
	for c := range by {
		names = append(names, c)
	}
	sort.Slice(names, func(i, j int) bool { return median(by[names[i]]) < median(by[names[j]]) })
	for _, c := range names {
		s := append([]float64(nil), by[c]...)
		sort.Float64s(s)
		at := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
		fmt.Printf("# class %-14s n=%-5d p10_ms=%.3f p50_ms=%.3f p90_ms=%.3f\n", c, len(s), at(0.1), median(s), at(0.9))
	}
}
