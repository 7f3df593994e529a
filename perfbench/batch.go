package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"minoaner"
)

// batchResult is what the batch phase measured and checked.
type batchResult struct {
	resolve, ttfm, drain []time.Duration
	f1                   float64
	digest               string
	matches              int
	attempted, failed    int
	problems             []string
}

func (r *batchResult) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// matchKey renders one pair for set comparison and digests.
func matchKey(u1, u2 string) string { return u1 + "\t" + u2 }

// canonical sorts pair keys and returns them with their digest.
func canonical(keys []string) ([]string, string) {
	slices.Sort(keys)
	return keys, digest([]byte(strings.Join(keys, "\n")))
}

func resultKeys(res *minoaner.Result) []string {
	keys := make([]string, len(res.Matches))
	for i, m := range res.Matches {
		keys[i] = matchKey(m.URI1, m.URI2)
	}
	return keys
}

func sources(p *pairInputs) (minoaner.Source, minoaner.Source) {
	return minoaner.Source{Name: "kb1", R: bytes.NewReader(p.nt1)},
		minoaner.Source{Name: "kb2", R: bytes.NewReader(p.nt2)}
}

// resolveOnce runs ResolveReaders on the generated bytes.
func resolveOnce(ctx context.Context, p *pairInputs) (*minoaner.Result, time.Duration, error) {
	s1, s2 := sources(p)
	start := time.Now()
	res, err := minoaner.ResolveReaders(ctx, s1, s2, minoaner.DefaultConfig())
	return res, time.Since(start), err
}

// streamOnce drains a ResolveStream and returns its pairs,
// the time to the first pair and the time to channel close.
func streamOnce(ctx context.Context, kb1, kb2 *minoaner.KB, opts ...minoaner.StreamOption) ([]string, time.Duration, time.Duration, error) {
	start := time.Now()
	ch, err := minoaner.ResolveStream(ctx, kb1, kb2, minoaner.DefaultConfig(), opts...)
	if err != nil {
		return nil, 0, 0, err
	}
	var keys []string
	var first time.Duration
	for sp := range ch {
		if keys == nil {
			first = time.Since(start)
		}
		keys = append(keys, matchKey(sp.URI1, sp.URI2))
	}
	return keys, first, time.Since(start), nil
}

// runBatch times ResolveReaders and an unbudgeted ResolveStream drain
// over the same KB pair, one after the other on one caller, until the
// budget is spent (at least minReps times). One untimed warm-up run
// comes first; the heap is collected before every timed call, so one
// rep's garbage is not charged to the next.
func runBatch(ctx context.Context, p *pairInputs, budget time.Duration, hooks *hooks) *batchResult {
	const minReps, maxReps = 3, 50
	r := &batchResult{}
	r.attempted++
	warm, _, err := resolveOnce(ctx, p)
	if err != nil {
		r.fail("warm-up resolve: %v", err)
		return r
	}
	want, wantDigest := canonical(resultKeys(warm))
	r.digest, r.matches = wantDigest, len(want)
	r.f1 = warm.Evaluate(p.gt).F1
	warm = nil

	kb1, err := minoaner.LoadKB("kb1", bytes.NewReader(p.nt1))
	if err == nil {
		var kb2 *minoaner.KB
		kb2, err = minoaner.LoadKB("kb2", bytes.NewReader(p.nt2))
		if err == nil {
			err = batchReps(ctx, p, kb1, kb2, want, budget, minReps, maxReps, hooks, r)
		}
	}
	if err != nil {
		r.fail("%v", err)
	}
	return r
}

func batchReps(ctx context.Context, p *pairInputs, kb1, kb2 *minoaner.KB, want []string,
	budget time.Duration, minReps, maxReps int, hooks *hooks, r *batchResult) error {
	start := time.Now()
	for rep := 0; rep < maxReps && (rep < minReps || time.Since(start) < budget); rep++ {
		runtime.GC()
		r.attempted++
		res, d, err := resolveOnce(ctx, p)
		if err != nil {
			return fmt.Errorf("resolve: %w", err)
		}
		got, _ := canonical(resultKeys(res))
		res = nil
		if !slices.Equal(got, want) {
			r.fail("rep %d: resolve match set differs from the warm-up's (%d vs %d pairs)", rep, len(got), len(want))
		}
		r.resolve = append(r.resolve, d)

		runtime.GC()
		r.attempted++
		keys, first, drain, err := streamOnce(ctx, kb1, kb2)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		if hooks != nil && hooks.stream != nil {
			keys = hooks.stream(keys)
		}
		if got, _ := canonical(keys); !slices.Equal(got, want) {
			r.fail("rep %d: drained stream (%d pairs) differs from the ResolveReaders match set (%d pairs)", rep, len(got), len(want))
		}
		r.ttfm = append(r.ttfm, first)
		r.drain = append(r.drain, drain)

		// A first pair takes a few tens of milliseconds, so each rep
		// adds more time-to-first-match samples from streams stopped
		// after one pair.
		for range extraTTFM {
			r.attempted++
			keys, first, _, err := streamOnce(ctx, kb1, kb2, minoaner.WithMaxPairs(1))
			if err != nil {
				return fmt.Errorf("stream: %w", err)
			}
			if len(keys) != 1 || !slices.Contains(want, keys[0]) {
				r.fail("rep %d: a one-pair stream returned %v, not one pair of the match set", rep, keys)
			}
			r.ttfm = append(r.ttfm, first)
		}
	}
	return nil
}

// extraTTFM is the number of one-pair streams per rep.
const extraTTFM = 4
