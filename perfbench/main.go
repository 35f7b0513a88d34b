// Command perfbench is the repository's serving benchmark. It boots the
// SimRank engine and internal/server in its own process, drives them
// with closed-loop in-process clients calling (*server.Server).ServeHTTP,
// checks the answers against a fresh batch build, and prints its
// metrics; the last line of standard output is one JSON object.
//
//	perfbench --workload read-hot|write-churn|mixed-durable --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// replay and prints the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workDir is where runs keep their WAL segments and span files,
// relative to the directory the benchmark is started from.
const workDir = ".bench_build/run"

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: read-hot, write-churn or mixed-durable")
	seed := flag.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	in := newInputs(w, *seed)
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = traced(w, in, dur, dir)
	} else {
		res, err = endToEnd(w, in, dur, dir)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd is the untraced run: boot, measure, check.
func endToEnd(w workload, in *inputs, dur time.Duration, dir string) (result, error) {
	s, setup, err := bootTimed(w, in, dir)
	if err != nil {
		return result{}, err
	}
	rd, wr := measure(w, s, in.reads, ramp, dur, windows)
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	attempted, failed := 0, 0
	var lead figures
	totalOps := make([]float64, windows) // per window, all clients
	for _, c := range []struct {
		name string
		r    *loopResult
	}{{"read", rd}, {"write", wr}} {
		if c.r == nil {
			continue
		}
		f, err := summarize(c.r, dur)
		if err != nil {
			return result{}, fmt.Errorf("%s latencies: %w", c.name, err)
		}
		fmt.Printf("%-5s %s\n", c.name, f)
		if (c.name == "write") == w.leadWrites() {
			lead = f
		}
		for i, v := range f.winOps {
			totalOps[i] += v
		}
		attempted += f.attempted
		failed += f.failed
	}

	rep, err := checkService(s, in, in.seed)
	if err != nil {
		return result{}, err
	}
	opts, acked := s.eng.Options(), s.acked
	if err := s.close(); err != nil {
		return result{}, err
	}
	s = nil
	freeMemory()
	rep.stationary = true
	if w.writes {
		rep.affFirst, rep.affLast, rep.stationary, err = checkStationary(in.base, acked, opts)
		if err != nil {
			return result{}, err
		}
	}
	attempted += rep.checks
	failed += rep.failures()
	printChecks(rep, failed, attempted)

	return result{
		Correct:   failed == 0 && rep.stationary,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":   {setup, "s"},
			"ops_per_s": {slices.Max(totalOps), "1/s"},
			"p50_us":    {slices.Min(lead.winP50), "us"},
			"p99_us":    {lead.p99, "us"},
			"rss_mib":   {rss, "MiB"},
		},
	}, nil
}

// windows is how many equal time windows the measured phase is cut into.
// Throughput, p50 and p99 are computed per window and reported for the
// best window: other tenants of a shared host slow the CPU in bursts of
// seconds, which only ever slow a window down, and a 2 s window still
// spans many GC cycles and hundreds of writes.
const windows = 10

// ramp is how long the clients run before the measured phase starts, so
// the heap, the GC pacer and the write stream settle first.
const ramp = 2 * time.Second

// figures summarizes one closed-loop client.
type figures struct {
	ops       int // recorded in the measured phase
	attempted int // sent, ramp included
	failed    int
	// Per-window throughput (1/s), p50 and p99 (µs).
	winOps, winP50, winP99 []float64
	// p99 is the best window's p99, or the whole phase's when a window
	// has too few samples for one.
	p99 float64
}

func (f figures) String() string {
	return fmt.Sprintf("ops=%d failed=%d ops_per_s=%.1f p50_us=%.2f p99_us=%.1f windows: ops_per_s=%.0f p50_us=%.2f p99_us=%.1f",
		f.ops, f.failed, slices.Max(f.winOps), slices.Min(f.winP50), f.p99, f.winOps, f.winP50, f.winP99)
}

// summarize computes a client's throughput, p50 and p99 per window.
// Every window's p99 needs at least minBeyond samples above it; otherwise
// the p99 of the whole phase is used (and refused below 100·minBeyond
// samples in all).
func summarize(r *loopResult, dur time.Duration) (figures, error) {
	f := figures{ops: r.ops(), attempted: r.attempted, failed: r.failed}
	perWindow := true
	for _, w := range r.win {
		xs := make([]float64, len(w))
		for i, v := range w {
			xs[i] = float64(v)
		}
		p99, err := percentile(xs, 99)
		if err != nil {
			perWindow = false
			p99 = math.NaN() // too few samples; printed as NaN
		}
		f.winOps = append(f.winOps, float64(len(xs))/(dur.Seconds()/windows))
		f.winP50 = append(f.winP50, median(xs))
		f.winP99 = append(f.winP99, p99)
	}
	if perWindow {
		f.p99 = slices.Min(f.winP99)
		return f, nil
	}
	var err error
	f.p99, err = percentile(r.all(), 99)
	return f, err
}

// printChecks prints the end-of-run checks as a human-readable line.
func printChecks(rep checkReport, failed, attempted int) {
	fmt.Printf("checks oracle=%d mismatches=%d epoch=%d acked=%d epoch_ok=%v affected_first=%.0f affected_last=%.0f stationary=%v error_frac=%.6f\n",
		rep.checks, rep.mismatches, rep.epoch, rep.acked, rep.epochOK, rep.affFirst, rep.affLast, rep.stationary,
		float64(failed)/float64(attempted))
}
