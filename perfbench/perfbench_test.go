package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// tinyConfig runs a workload on KB pairs a twentieth of Table III's
// size, for about a second.
func tinyConfig(t *testing.T, w workload, seed int64, h *hooks) config {
	t.Helper()
	return config{workload: w, seed: seed, measure: time.Second, scale: 0.05,
		dir: t.TempDir(), setupReps: 2, hooks: h}
}

func specNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	return endToEnd, perLayer
}

func names(r *runResult) []string {
	var out []string
	for n := range r.Metrics {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func run(t *testing.T, cfg config, traced bool) *runResult {
	t.Helper()
	var r *runResult
	var err error
	if traced {
		r, err = runTraced(context.Background(), cfg)
	} else {
		r, err = runMeasured(context.Background(), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	e2e, layers := specNames(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := run(t, tinyConfig(t, w, 7, nil), false)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v failed %d of %d: %v", r.Correct, r.Failed, r.Attempted, r.problems)
			}
			if got := names(r); !slices.Equal(got, e2e) {
				t.Errorf("untraced metrics %v, BENCHMARK.json end_to_end %v", got, e2e)
			}
			for n, m := range r.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", n)
				}
			}
			r = run(t, tinyConfig(t, w, 7, nil), true)
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed %d: %v", r.Correct, r.Failed, r.problems)
			}
			if got := names(r); !slices.Equal(got, layers) {
				t.Errorf("traced metrics %v, BENCHMARK.json per_layer %v", got, layers)
			}
		})
	}
}

func TestSeedChangesInputsNotNames(t *testing.T) {
	w := workloads[0]
	var digests []string
	var metricSets [][]string
	for _, seed := range []int64{1, 2} {
		p, err := generatePair(w.batch, seed, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, digest(append(append([]byte(nil), p.nt1...), p.nt2...)))
		metricSets = append(metricSets, names(run(t, tinyConfig(t, w, seed, nil), false)))
	}
	if digests[0] == digests[1] {
		t.Errorf("seeds 1 and 2 generated the same inputs (%s)", digests[0])
	}
	if !slices.Equal(metricSets[0], metricSets[1]) {
		t.Errorf("metric names differ across seeds: %v vs %v", metricSets[0], metricSets[1])
	}
}

// expectFailure runs with a fault injected and checks that a guard
// reports it.
func expectFailure(t *testing.T, traced bool, h *hooks, want string) {
	t.Helper()
	r := run(t, tinyConfig(t, workloads[1], 3, h), traced)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("the injected fault went unnoticed: correct=%v failed %d of %d", r.Correct, r.Failed, r.Attempted)
	}
	for _, p := range r.problems {
		if strings.Contains(p, want) {
			return
		}
	}
	t.Errorf("no problem mentions %q: %v", want, r.problems)
}

func TestGuardStreamDiffers(t *testing.T) {
	drop := func(keys []string) []string { return keys[1:] }
	expectFailure(t, false, &hooks{stream: drop}, "drained stream")
}

func TestGuardTracedPlanDiffers(t *testing.T) {
	drop := func(keys []string) []string { return keys[1:] }
	expectFailure(t, true, &hooks{traced: drop}, "traced stage-by-stage")
}

func TestGuardRecordedDigest(t *testing.T) {
	w := workloads[1]
	cfg := tinyConfig(t, w, 3, nil)
	cfg.hooks = &hooks{expect: map[string]expectation{w.name: {Seed: 3, Scale: 0.05, Digest: "0000000000000000"}}}
	r := run(t, cfg, false)
	if r.Correct || !strings.Contains(strings.Join(r.problems, "\n"), "differs from the recorded") {
		t.Fatalf("a wrong recorded digest went unnoticed: %v", r.problems)
	}
}

// rewrite wraps the server so that responses to one route pass through
// edit before they reach the client.
func rewrite(method, path string, edit func(map[string]any)) *hooks {
	return &hooks{handler: func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != method || r.URL.Path != path {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				panic(err)
			}
			edit(body)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			_ = json.NewEncoder(w).Encode(body)
		})
	}}
}

// dropMatch removes one match from the first /resolve result that has
// any.
func dropMatch(body map[string]any) {
	results, _ := body["results"].([]any)
	for _, r := range results {
		res := r.(map[string]any)
		if ms, _ := res["matches"].([]any); len(ms) > 0 {
			res["matches"] = ms[1:]
			return
		}
	}
}

func corruptDelta(body map[string]any) {
	ms, _ := body["matches"].([]any)
	body["matches"] = append(ms, map[string]any{"uri1": "http://wrong.example/1", "uri2": "http://wrong.example/2"})
}

func TestGuardFinalStateDropsMatch(t *testing.T) {
	expectFailure(t, false, rewrite("POST", "/resolve", dropMatch), "final /resolve")
}

func TestGuardDeltaCorrupted(t *testing.T) {
	expectFailure(t, false, rewrite("POST", "/delta", corruptDelta), "Index.QueryKB answers")
}

func TestGuardReplayLookupDropsMatch(t *testing.T) {
	expectFailure(t, true, rewrite("GET", "/resolve", dropMatch), "the Index API")
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{shift(-20), "improved"},
		{shift(0.5), "unchanged"},
		{shift(30), "worse"},
		{[]float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, "unresolved"},
	} {
		if got := verdict(parent, tc.change, true, 0.1); !strings.HasPrefix(got, tc.want) {
			t.Errorf("verdict(%v) = %q, want %s", tc.change, got, tc.want)
		}
	}
}
