package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMain prints, for each workload and end-to-end metric, the
// medians and quartiles of two result files and a verdict, with the
// traced runs' per-layer changes beside them.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <parent-results.json> <change-results.json>")
	}
	var spec benchSpec
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		return err
	}
	var old, cur resultFile
	if err := readJSON(args[0], &old); err != nil {
		return err
	}
	if err := readJSON(args[1], &cur); err != nil {
		return err
	}
	fmt.Fprintf(w, "parent: %s (%d CPUs)\nchange: %s (%d CPUs)\n", old.Env.Revision, old.Env.NumCPU, cur.Env.Revision, cur.Env.NumCPU)
	for _, wl := range workloads {
		p, c := old.Runs[wl.name], cur.Runs[wl.name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s (%d parent runs, %d change runs)\n", wl.name, len(p), len(c))
		fmt.Fprintf(w, "  %-16s %-30s %-30s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
		for _, m := range spec.EndToEnd {
			pv, cv := values(p, m.Name), values(c, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-16s %-30s %-30s %s\n", m.Name, describe(pv), describe(cv), verdict(pv, cv, m.Better == "lower", m.Bound))
		}
		pt, ct := old.Traced[wl.name].Report.Metrics, cur.Traced[wl.name].Report.Metrics
		if len(pt) == 0 || len(ct) == 0 {
			continue
		}
		fmt.Fprintf(w, "  per layer (traced run, one each):\n")
		for _, m := range spec.PerLayer {
			a, okA := pt[m.Name]
			b, okB := ct[m.Name]
			if !okA || !okB {
				continue
			}
			change := "n/a"
			if a.Value != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(b.Value-a.Value)/a.Value)
			}
			fmt.Fprintf(w, "    %-32s %12.6g -> %12.6g %-6s %s\n", m.Name, a.Value, b.Value, m.Unit, change)
		}
	}
	return nil
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// verdict applies the acceptance rules to one metric on one workload.
// Improved: the change wins at least nine tenths of the runs paired in
// order (ties count for neither) and the medians differ by more than
// the parent's interquartile range. Unresolved: either side's spread
// exceeds the bound, unless every change run beats every parent run.
// Worse: the change's median is worse than the parent's by more than
// the bound. Otherwise unchanged.
func verdict(p, c []float64, lowerBetter bool, bound float64) string {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	mp, mc := median(p), median(c)
	q1, q3 := quartiles(p)
	pairs := min(len(p), len(c))
	wins := 0
	for i := range pairs {
		if better(c[i], p[i]) {
			wins++
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && math.Abs(mc-mp) > q3-q1 && better(mc, mp) {
		return fmt.Sprintf("improved (%+.1f%%, won %d of %d pairs)", 100*(mc-mp)/mp, wins, pairs)
	}
	if spread(p) > bound || spread(c) > bound {
		allBetter := true
		for _, x := range c {
			for _, y := range p {
				if !better(x, y) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return fmt.Sprintf("improved (%+.1f%%, every run better)", 100*(mc-mp)/mp)
		}
		return fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% > bound %.0f%%)", 100*spread(p), 100*spread(c), 100*bound)
	}
	worse := (mc - mp) / mp
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return fmt.Sprintf("worse (%+.1f%%, bound %.0f%%)", 100*(mc-mp)/mp, 100*bound)
	}
	return fmt.Sprintf("unchanged (%+.1f%%, within %.0f%%)", 100*(mc-mp)/mp, 100*bound)
}
