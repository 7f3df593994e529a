package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// resultFile is what `-workload all` writes and compare reads.
type resultFile struct {
	Env     env                  `json:"env"`
	Seconds int                  `json:"seconds"`
	Runs    map[string][]seedRun `json:"runs"`
	Traced  map[string]seedRun   `json:"traced"`
}

type seedRun struct {
	Seed   int64  `json:"seed"`
	Report report `json:"report"`
}

// recordMain runs every workload runs times, each run in its own
// process so its peak RSS is its own, with seeds seed, seed+1, ...,
// then one traced run per workload, prints a summary and writes the
// result file.
func recordMain(seed int64, secs, runs int, out string, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultFile{Env: currentEnv(), Seconds: secs, Runs: map[string][]seedRun{}, Traced: map[string]seedRun{}}
	fmt.Fprintln(w, envLine())
	for _, wl := range workloads {
		for i := range runs {
			s := seed + int64(i)
			rep, err := runChild(w, self, wl.name, s, secs, 0)
			if err != nil {
				return err
			}
			rf.Runs[wl.name] = append(rf.Runs[wl.name], seedRun{Seed: s, Report: rep})
			fmt.Fprintf(w, "%s seed %d: correct=%v failed %d/%d\n", wl.name, s, rep.Correct, rep.Failed, rep.Attempted)
		}
		rep, err := runChild(w, self, wl.name, seed, secs, 1)
		if err != nil {
			return err
		}
		rf.Traced[wl.name] = seedRun{Seed: seed, Report: rep}
	}
	summarize(w, &rf)
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// runChild runs one workload in a child process, passes on the
// problems it reports, and returns the report on its last line.
func runChild(w io.Writer, self, name string, seed int64, secs, trace int) (report, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(secs), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "FAILED:") {
			fmt.Fprintf(w, "%s seed %d %s\n", name, seed, line)
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return report{}, fmt.Errorf("reading a run's report: %w", err)
	}
	return rep, nil
}

// values collects one metric across runs.
func values(runs []seedRun, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Report.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func metricNames(runs []seedRun) []string {
	seen := map[string]bool{}
	for _, r := range runs {
		for n := range r.Report.Metrics {
			seen[n] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func summarize(w io.Writer, rf *resultFile) {
	for _, wl := range workloads {
		runs := rf.Runs[wl.name]
		if len(runs) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s (%d runs)\n", wl.name, len(runs))
		fmt.Fprintf(w, "  %-16s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "unit")
		attempted, failed := 0, 0
		for _, r := range runs {
			attempted += r.Report.Attempted
			failed += r.Report.Failed
		}
		for _, name := range metricNames(runs) {
			xs := values(runs, name)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "  %-16s %12.6g %12.6g %12.6g %7.2f%% %6s\n", name, median(xs), q1, q3, 100*spread(xs), runs[0].Report.Metrics[name].Unit)
		}
		fmt.Fprintf(w, "  %-16s %12.6g (failed %d of %d attempted)\n", "failed_ratio", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	}
}
