package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"minoaner"
	"minoaner/internal/core"
	"minoaner/internal/pipeline"
)

// span is one timed call into a layer of the program, recorded from
// the benchmark's side of the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Req    int    `json:"req"` // request ID of the serve replay; 0 elsewhere
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The traced run is
// sequential, so it needs no locking.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, layer string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Req: req,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s.dur()
}

// selfTimes sums, per layer, each span's duration minus the part its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Layer] += s.dur() - child[s.ID]
	}
	return self
}

// stageLayer names the layer (module) each pipeline stage belongs to.
var stageLayer = map[string]string{
	pipeline.StageIngest:             "rdf",
	pipeline.StageKBBuild:            "kb",
	pipeline.StageNameBlocking:       "blocking",
	pipeline.StageTokenBlocking:      "blocking",
	pipeline.StageBlockPurging:       "blocking",
	pipeline.StageBlockIndexing:      "blocking",
	pipeline.StageTokenWeighting:     "metablocking",
	pipeline.StageValueCandidates:    "pipeline.candidates",
	pipeline.StageNeighborCandidates: "pipeline.candidates",
	pipeline.StageNameMatching:       "pipeline.match",
	pipeline.StageValueMatching:      "pipeline.match",
	pipeline.StageRankAggregation:    "pipeline.match",
	pipeline.StageUnion:              "pipeline.match",
	pipeline.StageReciprocity:        "pipeline.match",
}

// stageMetric names the per-layer time metric of each stage.
var stageMetric = map[string]string{
	pipeline.StageIngest:             "rdf.ingest_s",
	pipeline.StageKBBuild:            "kb.build_s",
	pipeline.StageNameBlocking:       "blocking.name_s",
	pipeline.StageTokenBlocking:      "blocking.token_s",
	pipeline.StageBlockPurging:       "blocking.purge_s",
	pipeline.StageBlockIndexing:      "blocking.index_s",
	pipeline.StageTokenWeighting:     "metablocking.weighting_s",
	pipeline.StageValueCandidates:    "pipeline.value_candidates_s",
	pipeline.StageNeighborCandidates: "pipeline.neighbor_candidates_s",
	pipeline.StageNameMatching:       "pipeline.h1_s",
	pipeline.StageValueMatching:      "pipeline.h2_s",
	pipeline.StageRankAggregation:    "pipeline.h3_s",
	pipeline.StageUnion:              "pipeline.union_s",
	pipeline.StageReciprocity:        "pipeline.h4_s",
}

// tracedResolve drives the plan ResolveReaders runs one stage at a
// time, with a span per stage under one root span.
func tracedResolve(ctx context.Context, tr *tracer, p *pairInputs) (*pipeline.State, map[string]time.Duration, time.Duration, float64, error) {
	cfg := core.DefaultConfig()
	s1, s2 := sources(p)
	st := pipeline.NewIngestState(pipeline.Source{Name: s1.Name, R: s1.R}, pipeline.Source{Name: s2.Name, R: s2.R}, cfg.Params())
	plan := append(pipeline.IngestPlan(), core.PlanFor(cfg)...)
	stages := make(map[string]time.Duration, len(plan))
	var allocMiB float64
	root := tr.begin("resolve", "resolve", 0, 0)
	for _, stage := range plan {
		var ms runtime.MemStats
		if stage.Name() == pipeline.StageKBBuild {
			runtime.ReadMemStats(&ms)
		}
		id := tr.begin(stage.Name(), stageLayer[stage.Name()], root, 0)
		err := stage.Run(ctx, st)
		stages[stage.Name()] = tr.end(id)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("stage %s: %w", stage.Name(), err)
		}
		if stage.Name() == pipeline.StageKBBuild {
			before := ms.TotalAlloc
			runtime.ReadMemStats(&ms)
			allocMiB = float64(ms.TotalAlloc-before) / (1 << 20)
		}
	}
	return st, stages, tr.end(root), allocMiB, nil
}

func stateKeys(st *pipeline.State) []string {
	keys := make([]string, len(st.Matches))
	for i, m := range st.Matches {
		keys[i] = matchKey(st.KB1.URI(m.E1), st.KB2.URI(m.E2))
	}
	return keys
}

// runTraced is the traced run: per-layer metrics, the span file, the
// per-layer self times and the tracing overhead.
func runTraced(ctx context.Context, cfg config) (*runResult, error) {
	const reps = 3
	w := cfg.workload
	bp, err := generatePair(w.batch, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	sp, err := generatePair(serveDataset, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	res := &runResult{report: report{Metrics: map[string]metric{}}}
	fail := func(format string, args ...any) {
		res.Failed++
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := newTracer()

	// The staged plan with a span per stage, alternating with an
	// untraced ResolveReaders of the same bytes as the baseline of the
	// tracing overhead.
	var untraced, traced []time.Duration
	var want []string
	stageRuns := make(map[string][]time.Duration)
	var st *pipeline.State
	var kbAlloc []float64
	for range reps {
		runtime.GC()
		res.Attempted++
		r, d, err := resolveOnce(ctx, bp)
		if err != nil {
			return nil, err
		}
		want, _ = canonical(resultKeys(r))
		untraced = append(untraced, d)

		runtime.GC()
		res.Attempted++
		var stages map[string]time.Duration
		var total time.Duration
		var alloc float64
		st, stages, total, alloc, err = tracedResolve(ctx, tr, bp)
		if err != nil {
			return nil, err
		}
		for name, d := range stages {
			stageRuns[name] = append(stageRuns[name], d)
		}
		traced = append(traced, total)
		kbAlloc = append(kbAlloc, alloc)
		got := stateKeys(st)
		if cfg.hooks != nil && cfg.hooks.traced != nil {
			got = cfg.hooks.traced(got)
		}
		if got, _ := canonical(got); !slices.Equal(got, want) {
			fail("the traced stage-by-stage match set (%d pairs) differs from ResolveReaders' (%d pairs)", len(got), len(want))
		}
	}
	stageMedian := func(name string) float64 { return median(seconds(stageRuns[name])) }
	for _, name := range pipeline.Names(append(pipeline.IngestPlan(), core.PlanFor(core.DefaultConfig())...)) {
		res.set(stageMetric[name], stageMedian(name), "s", len(stageRuns[name]))
	}
	nBytes := len(bp.nt1) + len(bp.nt2)
	res.set("rdf.triples", float64(bytes.Count(bp.nt1, []byte("\n"))+bytes.Count(bp.nt2, []byte("\n"))), "count", 1)
	res.set("rdf.mib_per_s", float64(nBytes)/(1<<20)/stageMedian(pipeline.StageIngest), "MiB/s", reps)
	res.set("kb.entities", float64(st.KB1.Len()+st.KB2.Len()), "count", 1)
	res.set("kb.alloc_mib", median(kbAlloc), "MiB", reps)
	res.set("blocking.name_blocks", float64(st.NameBlockCount), "count", 1)
	res.set("blocking.token_blocks", float64(st.TokenBlockCount), "count", 1)
	res.set("blocking.token_comparisons", float64(st.TokenComparisons), "count", 1)
	res.set("blocking.purged_blocks", float64(st.PurgeStats.RemovedBlocks), "count", 1)
	kept := func(lists ...[][]pipeline.Cand) int {
		n := 0
		for _, l := range lists {
			for _, c := range l {
				n += len(c)
			}
		}
		return n
	}
	vk, nk := kept(st.ValueCands1, st.ValueCands2), kept(st.NeighborCands1, st.NeighborCands2)
	res.set("pipeline.value_cands_kept", float64(vk), "count", 1)
	res.set("pipeline.neighbor_cands_kept", float64(nk), "count", 1)
	res.set("pipeline.kept_per_comparison", float64(vk+nk)/float64(max(st.TokenComparisons, 1)), "ratio", 1)
	res.set("pipeline.h1_pairs", float64(len(st.H1)), "count", 1)
	res.set("pipeline.h2_pairs", float64(len(st.H2)), "count", 1)
	res.set("pipeline.h3_pairs", float64(len(st.H3)), "count", 1)
	res.set("pipeline.h4_discarded", float64(st.DiscardedByH4), "count", 1)
	st = nil

	// The anytime stream over the same pair.
	kb1, kb2, err := loadPair(bp.nt1, bp.nt2)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	res.Attempted++
	id := tr.begin("stream", "stream", 0, 0)
	keys, first, _, err := streamOnce(ctx, kb1, kb2)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if got, _ := canonical(keys); !slices.Equal(got, want) {
		fail("the drained stream (%d pairs) differs from ResolveReaders' (%d pairs)", len(got), len(want))
	}
	prefix := stageMedian(pipeline.StageNameBlocking) + stageMedian(pipeline.StageTokenBlocking) + stageMedian(pipeline.StageBlockPurging)
	res.set("stream.pairs", float64(len(keys)), "count", 1)
	res.set("stream.ttfm_over_blocking", first.Seconds()/prefix, "ratio", 1)
	kb1, kb2, bp = nil, nil, nil

	if err := traceServe(ctx, cfg, tr, sp, res, fail); err != nil {
		return nil, err
	}

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	res.set("runtime.alloc_mib", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), "MiB", 1)
	res.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count", 1)
	var pauses []float64
	for c := m0.NumGC + 1; c <= m1.NumGC && m1.NumGC-c < uint32(len(m1.PauseNs)); c++ {
		pauses = append(pauses, float64(m1.PauseNs[(c+255)%256])/1e6)
	}
	res.set("runtime.gc_pause_p99_ms", quantile(pauses, 0.99), "ms", len(pauses))

	tm, um := median(seconds(traced)), median(seconds(untraced))
	var covered time.Duration
	var roots []time.Duration
	for _, s := range tr.spans {
		if s.Layer == "resolve" {
			roots = append(roots, s.dur())
		} else if s.Parent != 0 && tr.spans[s.Parent-1].Layer == "resolve" {
			covered += s.dur()
		}
	}
	var rootSum time.Duration
	for _, d := range roots {
		rootSum += d
	}
	res.set("trace.resolve_s", tm, "s", len(traced))
	res.set("trace.untraced_resolve_s", um, "s", len(untraced))
	res.set("trace.overhead_pct", 100*(tm-um)/um, "%", reps)
	res.set("trace.unaccounted_pct", 100*float64(rootSum-covered)/float64(rootSum), "%", len(roots))

	self := tr.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.3fs", l, self[l].Seconds()))
	}
	res.note("self time by layer: %s", strings.Join(parts, ", "))
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, tr, self); err != nil {
			return nil, err
		}
		res.note("spans: %d written to %s", len(tr.spans), cfg.traceOut)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func writeSpans(path string, tr *tracer, self map[string]time.Duration) error {
	selfSec := make(map[string]float64, len(self))
	for l, d := range self {
		selfSec[l] = d.Seconds()
	}
	b, err := json.Marshal(struct {
		Spans       []span             `json:"spans"`
		SelfSeconds map[string]float64 `json:"self_seconds"`
	}{tr.spans, selfSec})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceServe times the snapshot, index and serve layers. It replays one
// seeded request sequence twice, in order: over HTTP against a mapped
// snapshot, and directly against the Index API on a second index
// opened from the same snapshot. The serve layer's cost is the round
// trip minus the direct call on the same input.
func traceServe(ctx context.Context, cfg config, tr *tracer, p *pairInputs, res *runResult, fail func(string, ...any)) error {
	const replay = 1500
	kb1, kb2, err := loadPair(p.nt1, p.nt2)
	if err != nil {
		return err
	}
	ix, err := minoaner.BuildIndex(kb1, kb2, minoaner.DefaultConfig())
	if err != nil {
		return err
	}
	ix.Prepare()
	f := &serveFixture{p: p, path: filepath.Join(cfg.dir, "traced.msnp"), mix: newMix(p, cfg.seed, replay)}
	id := tr.begin("SaveIndexFile", "snapshot", 0, 0)
	err = minoaner.SaveIndexFile(f.path, ix)
	save := tr.end(id)
	if err != nil {
		return err
	}
	fi, err := os.Stat(f.path)
	if err != nil {
		return err
	}
	id = tr.begin("LoadIndexFile", "snapshot", 0, 0)
	_, err = minoaner.LoadIndexFile(f.path)
	loadEager := tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("OpenIndexFile", "snapshot", 0, 0)
	ix2, err := minoaner.OpenIndexFile(f.path)
	open := tr.end(id)
	if err != nil {
		return err
	}
	defer ix2.Close()
	delta, err := minoaner.LoadKB("probe", strings.NewReader(f.mix.warmups[1].body))
	if err != nil {
		return err
	}
	id = tr.begin("first QueryKB", "snapshot", 0, 0)
	_, err = ix2.QueryKB(ctx, delta)
	firstPrepare := tr.end(id)
	if err != nil {
		return err
	}
	res.set("snapshot.bytes", float64(fi.Size()), "bytes", 1)
	res.set("snapshot.save_s", save.Seconds(), "s", 1)
	res.set("snapshot.open_s", open.Seconds(), "s", 1)
	res.set("snapshot.first_prepare_s", firstPrepare.Seconds(), "s", 1)
	res.set("snapshot.load_eager_s", loadEager.Seconds(), "s", 1)

	var wrap func(http.Handler) http.Handler
	if cfg.hooks != nil {
		wrap = cfg.hooks.handler
	}
	srv, err := openServed(f.path, f.mix.warmups, wrap)
	if err != nil {
		return err
	}
	defer srv.close()
	for _, rq := range f.mix.warmups {
		if _, _, err := callIndexTraced(ctx, tr, 0, 0, ix2, rq); err != nil {
			return fmt.Errorf("direct warm-up: %w", err)
		}
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var direct, overhead [numKinds][]time.Duration
	var upserts, deletes []time.Duration
	var respBytes int
	for i, rq := range f.mix.requests {
		res.Attempted++
		req := i + 1
		id := tr.begin("HTTP "+kindNames[rq.kind], "serve", 0, req)
		status, body, err := send(ctx, client, srv.ts.URL, rq)
		h := tr.end(id)
		respBytes += len(body)
		id = tr.begin("Index "+kindNames[rq.kind], "index", 0, req)
		answer, call, derr := callIndexTraced(ctx, tr, id, req, ix2, rq)
		d := tr.end(id)
		if derr != nil {
			fail("request %d: direct %s: %v", req, kindNames[rq.kind], derr)
			continue
		}
		if err := checkReplay(rq, status, body, err, answer); err != nil {
			fail("request %d (%s %s): %v", req, rq.method, rq.path, err)
		}
		direct[rq.kind] = append(direct[rq.kind], call)
		overhead[rq.kind] = append(overhead[rq.kind], h-d)
		if rq.kind == kindWrite {
			if strings.HasPrefix(rq.path, "/upsert") {
				upserts = append(upserts, call)
			} else {
				deletes = append(deletes, call)
			}
		}
	}
	micros := func(ds []time.Duration) float64 { return median(millis(ds)) * 1000 }
	res.set("index.query_us", micros(direct[kindLookup]), "us", len(direct[kindLookup]))
	res.set("index.querykb_us", micros(direct[kindDelta]), "us", len(direct[kindDelta]))
	res.set("index.upsert_ms", median(millis(upserts)), "ms", len(upserts))
	res.set("index.delete_ms", median(millis(deletes)), "ms", len(deletes))
	res.set("serve.lookup_http_us", micros(overhead[kindLookup]), "us", len(overhead[kindLookup]))
	res.set("serve.delta_http_us", micros(overhead[kindDelta]), "us", len(overhead[kindDelta]))
	res.set("serve.write_http_us", micros(overhead[kindWrite]), "us", len(overhead[kindWrite]))
	res.set("serve.resp_bytes", float64(respBytes)/float64(len(f.mix.requests)), "bytes", len(f.mix.requests))
	return nil
}

// callIndexTraced makes the Index API call a request's handler makes,
// under the given span: parsing the body (a child span in the rdf
// layer) and the index method itself. It returns the answer in the
// form the HTTP response carries it, and the index method's time.
func callIndexTraced(ctx context.Context, tr *tracer, parent, req int, ix *minoaner.Index, rq request) ([]string, time.Duration, error) {
	parse := func() (*minoaner.KB, error) {
		id := tr.begin("LoadKB", "rdf", parent, req)
		defer tr.end(id)
		return minoaner.LoadKB("probe", strings.NewReader(rq.body))
	}
	switch {
	case rq.kind == kindLookup:
		id := tr.begin("Index.Query", "index", parent, req)
		results := ix.Query(rq.lookups...)
		d := tr.end(id)
		var out []string
		for _, r := range results {
			out = append(out, fmt.Sprintf("%s %v %v", r.URI, r.In1, r.In2))
			for _, m := range r.Matches {
				out = append(out, matchKey(m.URI1, m.URI2))
			}
		}
		return out, d, nil
	case rq.kind == kindDelta:
		delta, err := parse()
		if err != nil {
			return nil, 0, err
		}
		id := tr.begin("Index.QueryKB", "index", parent, req)
		r, err := ix.QueryKB(ctx, delta)
		d := tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		return resultKeys(r), d, nil
	case strings.HasPrefix(rq.path, "/upsert"):
		delta, err := parse()
		if err != nil {
			return nil, 0, err
		}
		id := tr.begin("Index.Upsert", "index", parent, req)
		err = ix.Upsert(ctx, 2, delta)
		return nil, tr.end(id), err
	default:
		id := tr.begin("Index.Delete", "index", parent, req)
		err := ix.Delete(ctx, 2, rq.entity)
		return nil, tr.end(id), err
	}
}

// checkReplay compares an HTTP answer with the direct call's answer on
// an index that has taken the same writes in the same order.
func checkReplay(rq request, status int, body []byte, err error, direct []string) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var got []string
	switch rq.kind {
	case kindLookup:
		var resp resolveJSON
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		for _, r := range resp.Results {
			got = append(got, fmt.Sprintf("%s %v %v", r.URI, r.In1, r.In2))
			got = append(got, keysOf(r.Matches)...)
		}
	case kindDelta:
		var resp struct {
			Matches []matchJSON `json:"matches"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		got = keysOf(resp.Matches)
	default:
		return nil
	}
	if !slices.Equal(got, direct) {
		return fmt.Errorf("HTTP answered %v, the Index API %v", got, direct)
	}
	return nil
}
