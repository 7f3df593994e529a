package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"minoaner"
)

// served is one index behind NewServer on a loopback listener.
type served struct {
	ix *minoaner.Index
	ts *httptest.Server
}

func (s *served) close() {
	s.ts.Close()
	_ = s.ix.Close() // closing a read-only mapping cannot lose data
}

// newClient returns a client that keeps the connections it opens alive
// for reuse. Should the server stall, at most maxConns requests are in
// flight and the rest wait in the client, which their latency counts.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

const maxConns = 64

// openServed maps the snapshot, starts a mutable server over it and
// sends one warm-up request per route, which covers the lazy prepare
// and materialize steps. It is the serve workload's set-up.
func openServed(path string, warmups []request, wrap func(http.Handler) http.Handler) (*served, error) {
	ix, err := minoaner.OpenIndexFile(path)
	if err != nil {
		return nil, err
	}
	var h http.Handler = minoaner.NewServer(ix, minoaner.WithMutations())
	if wrap != nil {
		h = wrap(h)
	}
	s := &served{ix: ix, ts: httptest.NewServer(h)}
	client := newClient()
	defer client.CloseIdleConnections()
	for _, rq := range warmups {
		status, body, err := send(context.Background(), client, s.ts.URL, rq)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s %s: %w", rq.method, rq.path, err)
		}
	}
	return s, nil
}

func send(ctx context.Context, client *http.Client, base string, rq request) (int, []byte, error) {
	var body io.Reader
	if rq.body != "" {
		body = strings.NewReader(rq.body)
	}
	req, err := http.NewRequestWithContext(ctx, rq.method, base+rq.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// outcome is what one request of the open loop saw.
type outcome struct {
	latency time.Duration // from the request's due time to its last response byte
	late    time.Duration // from the request's due time to its sending
	status  int
	body    []byte
	err     error
}

// openLoop sends the requests at a fixed offered rate, regardless of
// how fast answers come back: each request goes out from its own
// goroutine at its due time, over a pool of keep-alive connections
// that grows to the number of requests in flight. No request waits in
// the generator for an earlier one, so a stall in the server shows in
// every request it delays. Latency runs from the due time, so it counts
// any wait before sending too; the generator's lateness (timer
// overshoot, or the generator starved of CPU) is reported on its own.
func openLoop(ctx context.Context, base string, reqs []request, rate float64) []outcome {
	out := make([]outcome, len(reqs))
	client := newClient()
	defer client.CloseIdleConnections()
	interval := float64(time.Second) / rate
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &out[i]
			o.late = time.Since(due)
			o.status, o.body, o.err = send(ctx, client, base, reqs[i])
			o.latency = time.Since(due)
		}()
	}
	wg.Wait()
	return out
}

// serveResult is what the serve phase measured and checked.
type serveResult struct {
	setup             []time.Duration
	latency           [numKinds][]time.Duration
	late              []time.Duration
	requests          int
	rate              float64
	attempted, failed int
	problems          []string
}

func (r *serveResult) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// serveFixture is the serve workload's KB pair with its snapshot on
// disk and the answers a correct server gives to its deltas.
type serveFixture struct {
	p    *pairInputs
	path string
	mix  *mix
	// deltaWant holds the QueryKB answer to each delta entity,
	// computed on a reference index opened from the same snapshot.
	deltaWant map[string][]string
}

// newServeFixture builds and saves the index the server maps, and
// draws the request sequence. None of this is timed.
func newServeFixture(ctx context.Context, p *pairInputs, dir string, seed int64, n int) (*serveFixture, error) {
	kb1, kb2, err := loadPair(p.nt1, p.nt2)
	if err != nil {
		return nil, err
	}
	ix, err := minoaner.BuildIndex(kb1, kb2, minoaner.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("building the served index: %w", err)
	}
	ix.Prepare()
	f := &serveFixture{p: p, path: filepath.Join(dir, "serve.msnp"), mix: newMix(p, seed, n)}
	if err := minoaner.SaveIndexFile(f.path, ix); err != nil {
		return nil, err
	}
	ref, err := minoaner.OpenIndexFile(f.path)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	f.deltaWant = make(map[string][]string)
	for _, rq := range append(slices.Clone(f.mix.warmups), f.mix.requests...) {
		if rq.kind != kindDelta {
			continue
		}
		if _, ok := f.deltaWant[rq.entity]; ok {
			continue
		}
		want, err := queryDelta(ctx, ref, rq.body)
		if err != nil {
			return nil, err
		}
		f.deltaWant[rq.entity] = want
	}
	return f, nil
}

func loadPair(nt1, nt2 []byte) (*minoaner.KB, *minoaner.KB, error) {
	kb1, err := minoaner.LoadKB("kb1", bytes.NewReader(nt1))
	if err != nil {
		return nil, nil, err
	}
	kb2, err := minoaner.LoadKB("kb2", bytes.NewReader(nt2))
	if err != nil {
		return nil, nil, err
	}
	return kb1, kb2, nil
}

// queryDelta answers a delta body through the Index API.
func queryDelta(ctx context.Context, ix *minoaner.Index, body string) ([]string, error) {
	delta, err := minoaner.LoadKB("probe", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	res, err := ix.QueryKB(ctx, delta)
	if err != nil {
		return nil, err
	}
	return resultKeys(res), nil
}

// runServe measures set-up (setupReps times) and then the open loop,
// and checks every answer.
func runServe(ctx context.Context, f *serveFixture, rate float64, setupReps int, hooks *hooks) *serveResult {
	r := &serveResult{rate: rate, requests: len(f.mix.requests)}
	var wrap func(http.Handler) http.Handler
	if hooks != nil {
		wrap = hooks.handler
	}
	var s *served
	for i := range setupReps {
		if s != nil {
			s.close()
		}
		runtime.GC()
		r.attempted++
		start := time.Now()
		var err error
		s, err = openServed(f.path, f.mix.warmups, wrap)
		if err != nil {
			r.fail("set-up %d: %v", i, err)
			return r
		}
		r.setup = append(r.setup, time.Since(start))
	}
	defer s.close()

	runtime.GC()
	out := openLoop(ctx, s.ts.URL, f.mix.requests, rate)
	for i, o := range out {
		rq := &f.mix.requests[i]
		r.attempted++
		r.latency[rq.kind] = append(r.latency[rq.kind], o.latency)
		r.late = append(r.late, o.late)
		if err := checkAnswer(f, rq, o); err != nil {
			r.fail("request %d (%s %s): %v", i, rq.method, rq.path, err)
		}
	}
	checkFinalState(ctx, f, s.ts.URL, r)
	return r
}

type matchJSON struct {
	URI1 string `json:"uri1"`
	URI2 string `json:"uri2"`
}

type resolveJSON struct {
	Results []struct {
		URI     string      `json:"uri"`
		In1     bool        `json:"in_kb1"`
		In2     bool        `json:"in_kb2"`
		Matches []matchJSON `json:"matches"`
	} `json:"results"`
}

func keysOf(ms []matchJSON) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = matchKey(m.URI1, m.URI2)
	}
	return keys
}

// checkAnswer is the per-request output guard.
func checkAnswer(f *serveFixture, rq *request, o outcome) error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	switch rq.kind {
	case kindLookup:
		var resp resolveJSON
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(rq.lookups) {
			return fmt.Errorf("%d results for %d URIs", len(resp.Results), len(rq.lookups))
		}
		for i, res := range resp.Results {
			if res.URI != rq.lookups[i] {
				return fmt.Errorf("result %d answers %q, asked %q", i, res.URI, rq.lookups[i])
			}
		}
	case kindDelta:
		var resp struct {
			Matches []matchJSON `json:"matches"`
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return err
		}
		if got, want := keysOf(resp.Matches), f.deltaWant[rq.entity]; !slices.Equal(got, want) {
			return fmt.Errorf("delta answered %v, Index.QueryKB answers %v", got, want)
		}
	case kindWrite:
		var resp struct {
			Epoch uint64 `json:"epoch"`
			NoOp  bool   `json:"no_op"`
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return err
		}
		if resp.Epoch == 0 || resp.NoOp {
			return fmt.Errorf("write was not applied: %s", bytes.TrimSpace(o.body))
		}
	}
	return nil
}

type journalJSON struct {
	Op       string   `json:"op"`
	Side     int      `json:"side"`
	Subjects []string `json:"subjects"`
}

// checkFinalState asks the server, after the timed phase, for every
// URI it has seen and compares each answer with a fresh BuildIndex over
// the original KBs mutated in the order the server's journal reports.
func checkFinalState(ctx context.Context, f *serveFixture, base string, r *serveResult) {
	r.attempted++
	client := newClient()
	defer client.CloseIdleConnections()
	status, body, err := send(ctx, client, base, request{method: "GET", path: "/journal"})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		r.fail("GET /journal: %v", err)
		return
	}
	var journal []journalJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var je journalJSON
		if err := dec.Decode(&je); err != nil {
			r.fail("decoding /journal: %v", err)
			return
		}
		journal = append(journal, je)
	}
	fresh, err := rebuild(f, journal)
	if err != nil {
		r.fail("rebuilding the mutated KBs: %v", err)
		return
	}
	uris := append(append(slices.Clone(f.p.uris1), f.p.uris2...), f.mix.inserted...)
	const chunk = 2000
	for lo := 0; lo < len(uris); lo += chunk {
		part := uris[lo:min(lo+chunk, len(uris))]
		r.attempted++
		if err := checkResolve(ctx, client, base, part, fresh); err != nil {
			r.fail("final /resolve of URIs %d..%d: %v", lo, lo+len(part)-1, err)
		}
	}
}

// rebuild replays the journal on the KB2 text and builds a fresh index.
func rebuild(f *serveFixture, journal []journalJSON) (*minoaner.Index, error) {
	lines := make(map[string][]string, len(f.p.lines2))
	order := slices.Clone(f.p.uris2)
	for u, ls := range f.p.lines2 {
		lines[u] = ls
	}
	for _, je := range journal {
		if je.Side != 2 {
			return nil, fmt.Errorf("journal entry on side %d; the mix writes only side 2", je.Side)
		}
		for _, u := range je.Subjects {
			switch je.Op {
			case "upsert":
				sent, ok := f.mix.written[u]
				if !ok {
					return nil, fmt.Errorf("journal upserts %q, which no request sent", u)
				}
				if _, had := lines[u]; !had {
					order = append(order, u)
				}
				lines[u] = sent
			case "delete":
				delete(lines, u)
			default:
				return nil, fmt.Errorf("unknown journal op %q", je.Op)
			}
		}
	}
	var nt2 strings.Builder
	for _, u := range order {
		for _, l := range lines[u] {
			nt2.WriteString(l)
			nt2.WriteByte('\n')
		}
	}
	kb1, kb2, err := loadPair(f.p.nt1, []byte(nt2.String()))
	if err != nil {
		return nil, err
	}
	return minoaner.BuildIndex(kb1, kb2, minoaner.DefaultConfig())
}

func checkResolve(ctx context.Context, client *http.Client, base string, uris []string, fresh *minoaner.Index) error {
	body, _ := json.Marshal(map[string][]string{"uris": uris}) // strings always marshal
	status, resp, err := send(ctx, client, base, request{method: "POST", path: "/resolve", body: string(body)})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	var got resolveJSON
	if err := json.Unmarshal(resp, &got); err != nil {
		return err
	}
	want := fresh.Query(uris...)
	if len(got.Results) != len(want) {
		return fmt.Errorf("%d results for %d URIs", len(got.Results), len(want))
	}
	for i, w := range want {
		g := got.Results[i]
		wk := make([]string, len(w.Matches))
		for j, m := range w.Matches {
			wk[j] = matchKey(m.URI1, m.URI2)
		}
		gk := keysOf(g.Matches)
		slices.Sort(wk)
		slices.Sort(gk)
		if g.URI != w.URI || g.In1 != w.In1 || g.In2 != w.In2 || !slices.Equal(gk, wk) {
			return fmt.Errorf("%s: served in1=%v in2=%v %v, rebuild in1=%v in2=%v %v", w.URI, g.In1, g.In2, gk, w.In1, w.In2, wk)
		}
	}
	return nil
}
