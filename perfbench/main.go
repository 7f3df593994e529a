// Command perfbench is the repository's benchmark. One run measures one
// workload, N-Triples in to matches out and HTTP request in to response
// out, checks every answer, and prints its metrics; the last line of
// standard output is a JSON object {correct, attempted, failed,
// metrics}. See README.md for the workloads, the metrics and how to
// compare two sets of runs.
//
//	bash perfbench/run.sh --workload batch-yago --seed 42 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --runs 10 --out results.json
//	bash perfbench/run.sh compare old.json new.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workload is one input set of the benchmark. Every workload runs both
// user-facing runs, so every run reports every end-to-end metric: a
// batch phase over its own KB pair, then the mixed HTTP serve phase
// over a mapped snapshot of serveDataset.
type workload struct {
	name, why string
	batch     string // generated benchmark of the batch phase
}

// serveDataset is the KB pair of the serve phase: Rexa-DBLP's 1:9 side
// imbalance is a third KB shape, next to the two batch pairs.
const serveDataset = "Rexa-DBLP"

// serveRate is the offered rate of the serve mix, requests per second:
// about half the mix's capacity on a 2-CPU machine (see README.md).
const serveRate = 1200

var workloads = []workload{
	{
		name:  "batch-yago",
		why:   "YAGO-IMDb batch is candidate-bound (top-K and neighbor evidence); then the Rexa-DBLP serve mix",
		batch: "YAGO-IMDb",
	},
	{
		name:  "batch-bbc",
		why:   "BBCmusic-DBpedia batch is parse- and KB-build-bound, near-bypassing neighbor evidence; then the Rexa-DBLP serve mix",
		batch: "BBCmusic-DBpedia",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's settings.
type config struct {
	workload workload
	seed     int64
	// measure is the measured time: batchShare of it for the batch
	// phase, the rest for the serve mix.
	measure time.Duration
	// scale sizes the generated KB pairs; 1.0 is Table III's size.
	scale float64
	// dir holds the run's snapshot files.
	dir       string
	setupReps int
	// traceOut receives the traced run's spans.
	traceOut string
	hooks    *hooks
}

// hooks inject faults so the benchmark's tests can show each output
// guard firing. A real run has none.
type hooks struct {
	stream  func(keys []string) []string    // edits the drained stream
	handler func(http.Handler) http.Handler // wraps the server under test
	expect  map[string]expectation          // replaces expected.json
	traced  func(keys []string) []string    // edits the traced plan's matches
}

// expectation is a batch match set recorded at the default seed.
type expectation struct {
	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
	Digest  string  `json:"digest"`
	Matches int     `json:"matches"`
	F1      float64 `json:"f1"`
}

//go:embed expected.json
var expectedJSON []byte

func expectations(h *hooks) (map[string]expectation, error) {
	if h != nil && h.expect != nil {
		return h.expect, nil
	}
	var m map[string]expectation
	err := json.Unmarshal(expectedJSON, &m)
	return m, err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome of one run, before printing.
type runResult struct {
	report
	lines    []string // human-readable lines, metric by metric
	problems []string
}

func (r *runResult) set(name string, value float64, unit string, n int) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("%-34s %12.6g %-6s n=%d", name, value, unit, n))
}

func (r *runResult) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 42, "seed of the generated inputs")
	secs := fs.Int("seconds", 40, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead")
	runs := fs.Int("runs", 10, "with -workload all: runs per workload, seeds seed, seed+1, ...")
	out := fs.String("out", "", "with -workload all: result file to write")
	_ = fs.Parse(os.Args[1:]) // ExitOnError exits on a bad flag
	if *name == "all" {
		if err := recordMain(*seed, *secs, *runs, *out, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{workload: w, seed: *seed, measure: time.Duration(*secs) * time.Second,
		scale: 1.0, dir: dir, setupReps: 5,
		traceOut: filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))}
	var res *runResult
	var err error
	if *trace == 1 {
		res, err = runTraced(context.Background(), cfg)
	} else {
		res, err = runMeasured(context.Background(), cfg)
	}
	_ = os.RemoveAll(dir) // scratch files only
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, cfg, res)
}

func printResult(w io.Writer, cfg config, res *runResult) {
	fmt.Fprintf(w, "workload %s seed %d: %s\n", cfg.workload.name, cfg.seed, cfg.workload.why)
	fmt.Fprintln(w, envLine())
	for _, l := range res.lines {
		fmt.Fprintln(w, l)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	line, _ := json.Marshal(res.report) // plain numbers and strings always marshal
	fmt.Fprintln(w, string(line))
}

// env describes where a result was measured.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func currentEnv() env {
	return env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Revision: revision()}
}

func envLine() string {
	e := currentEnv()
	return fmt.Sprintf("env gomaxprocs=%d num_cpu=%d go=%s revision=%s", e.GOMAXPROCS, e.NumCPU, e.GoVersion, e.Revision)
}

// revision reads the checked-out commit from .git without running git,
// or reports "unknown" outside a git checkout.
func revision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	name, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return name
	}
	if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs")) // absent: no packed refs
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, ref, ok := strings.Cut(line, " "); ok && ref == name {
			return sha
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runMeasured is the untraced run: the end-to-end metrics.
func runMeasured(ctx context.Context, cfg config) (*runResult, error) {
	w := cfg.workload
	bp, err := generatePair(w.batch, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	sp, err := generatePair(serveDataset, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	batchPhase := time.Duration(batchShare * float64(cfg.measure))
	servePhase := cfg.measure - batchPhase
	res := &runResult{report: report{Metrics: map[string]metric{}}}

	b := runBatch(ctx, bp, batchPhase, cfg.hooks)
	res.Attempted += b.attempted
	res.Failed += b.failed
	res.problems = append(res.problems, b.problems...)
	if err := checkExpected(cfg, b.digest, b.matches); err != nil {
		res.Failed++
		res.problems = append(res.problems, err.Error())
	}
	bp = nil

	fix, err := newServeFixture(ctx, sp, cfg.dir, cfg.seed, max(int(serveRate*servePhase.Seconds()), 50))
	if err != nil {
		return nil, err
	}
	s := runServe(ctx, fix, serveRate, cfg.setupReps, cfg.hooks)
	res.Attempted += s.attempted
	res.Failed += s.failed
	res.problems = append(res.problems, s.problems...)

	res.set("setup_s", median(seconds(s.setup)), "s", len(s.setup))
	res.set("resolve_s", median(seconds(b.resolve)), "s", len(b.resolve))
	res.set("ttfm_ms", median(millis(b.ttfm)), "ms", len(b.ttfm))
	res.set("drain_s", median(seconds(b.drain)), "s", len(b.drain))
	res.set("f1", b.f1, "ratio", b.matches)
	res.set("peak_rss_mib", peakRSSMiB(), "MiB", 1)
	lk, dl, wr := millis(s.latency[kindLookup]), millis(s.latency[kindDelta]), millis(s.latency[kindWrite])
	res.set("lookup_p50_ms", quantile(lk, 0.50), "ms", len(lk))
	res.set("lookup_p99_ms", quantile(lk, 0.99), "ms", len(lk))
	res.set("delta_p50_ms", quantile(dl, 0.50), "ms", len(dl))
	res.set("delta_p99_ms", quantile(dl, 0.99), "ms", len(dl))
	res.set("write_p90_ms", quantile(wr, 0.90), "ms", len(wr))
	// The median write falls between the fast upserts and the slow
	// deletes, where a small shift in machine speed moves it far; it is
	// printed, but the steadier p90 is the write metric that is gated.
	res.note("%-34s %12.6g %-6s n=%d (printed only)", "write_p50_ms", quantile(wr, 0.50), "ms", len(wr))
	late := millis(s.late)
	res.note("serve mix: %d requests offered at %.0f/s; the generator sent them late by p50 %.3f ms, p99 %.3f ms",
		s.requests, s.rate, quantile(late, 0.5), quantile(late, 0.99))
	if p50, p99 := quantile(late, 0.5), quantile(late, 0.99); p50 > maxLateP50Millis || p99 > maxLateP99Millis {
		res.Failed++
		res.problems = append(res.problems, fmt.Sprintf("the load generator fell behind (lateness p50 %.3f ms, p99 %.3f ms; limits %v and %v ms): the run is invalid, not fast",
			p50, p99, maxLateP50Millis, maxLateP99Millis))
	}
	res.note("batch match set digest %s (%d pairs)", b.digest, b.matches)
	res.note("%-34s %12.6g %-6s failed %d of %d attempted", "failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// batchShare is the part of a run's measured time the batch phase
// gets. The serve mix gets more: its tail percentiles are set by the
// few requests that meet a write, so they settle only over a few
// hundred writes.
const batchShare = 0.4

// The generator's lateness limits. Timer overshoot keeps the p50 near
// 0.5 ms, and while a write and its garbage collection hold both CPUs
// the generator waits too, which puts the p99 at 10-20 ms. Beyond these
// limits it fell behind its schedule, offered less load than the rate
// says, and the serve measurement is void.
const (
	maxLateP50Millis = 2.0
	maxLateP99Millis = 50.0
)

// checkExpected compares the batch match set with the one recorded at
// the default seed, when the run uses it.
func checkExpected(cfg config, dig string, matches int) error {
	exp, err := expectations(cfg.hooks)
	if err != nil {
		return fmt.Errorf("reading expected.json: %w", err)
	}
	e, ok := exp[cfg.workload.name]
	if !ok || e.Seed != cfg.seed || e.Scale != cfg.scale {
		return nil
	}
	if e.Digest != dig || e.Matches != matches {
		return fmt.Errorf("batch match set digest %s (%d pairs) differs from the recorded %s (%d pairs, F1 %.4f) at seed %d",
			dig, matches, e.Digest, e.Matches, e.F1, e.Seed)
	}
	return nil
}
