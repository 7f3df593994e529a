package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"
	"slices"
	"strings"

	"minoaner"
)

// pairInputs is one generated KB pair as the bytes the program under
// test receives, plus what the benchmark needs to check its answers.
type pairInputs struct {
	name     string
	nt1, nt2 []byte
	gt       *minoaner.GroundTruth
	uris1    []string // KB1 entity URIs, in generation order
	uris2    []string // KB2 entity URIs, in generation order
	// lines2 holds each KB2 entity's N-Triples lines, keyed by URI: the
	// body of a single-entity /delta or /upsert.
	lines2 map[string][]string
}

func generatePair(name string, seed int64, scale float64) (*pairInputs, error) {
	b, err := minoaner.GenerateBenchmark(name, seed, scale)
	if err != nil {
		return nil, err
	}
	var nt1, nt2 bytes.Buffer
	if err := b.WriteKB1(&nt1); err != nil {
		return nil, fmt.Errorf("writing %s KB1: %w", name, err)
	}
	if err := b.WriteKB2(&nt2); err != nil {
		return nil, fmt.Errorf("writing %s KB2: %w", name, err)
	}
	p := &pairInputs{
		name:   name,
		nt1:    nt1.Bytes(),
		nt2:    nt2.Bytes(),
		gt:     b.GroundTruth,
		uris1:  b.KB1.URIs(),
		uris2:  b.KB2.URIs(),
		lines2: make(map[string][]string, b.KB2.Len()),
	}
	for _, line := range strings.Split(nt2.String(), "\n") {
		if subj, ok := subjectOf(line); ok {
			p.lines2[subj] = append(p.lines2[subj], line)
		}
	}
	return p, nil
}

// subjectOf returns the URI of an N-Triples line's subject.
func subjectOf(line string) (string, bool) {
	if !strings.HasPrefix(line, "<") {
		return "", false
	}
	end := strings.IndexByte(line, '>')
	if end < 0 {
		return "", false
	}
	return line[1:end], true
}

// digest fingerprints bytes (inputs or a canonical match listing).
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Request kinds of the serve mix.
const (
	kindLookup = iota
	kindDelta
	kindWrite
	numKinds
)

var kindNames = [numKinds]string{"lookup", "delta", "write"}

// request is one scheduled HTTP request of the serve mix.
type request struct {
	kind   int
	method string
	path   string
	body   string
	// entity is the KB2 entity a delta describes or a write touches.
	entity string
	// lookups are the URIs a lookup asks for.
	lookups []string
}

// The serve mix is drawn in blocks of 100 requests: 80 lookups and 19
// single-entity deltas in a seeded order, and one write in the middle.
// Writes cycle through modify, insert, modify, delete. Fixing the counts
// per block and the writes' spacing, rather than drawing each request's
// kind at random, keeps a run's share of each kind and write type the
// same from seed to seed: a write costs as much CPU as a thousand
// lookups, so the number of writes and how closely they follow each
// other would otherwise decide much of a run's tail.
const (
	blockSize     = 100
	lookupsPerBlk = 80
	deltasPerBlk  = 19
)

// mix is the seeded request sequence of one serve phase, plus the
// writes every set-up makes before it.
type mix struct {
	requests []request
	warmups  []request
	// written maps every subject an upsert sends to the lines it sends.
	written map[string][]string
	// inserted lists the subjects inserts create, in schedule order.
	inserted []string
}

// newMix draws n requests, uniformly over the entities of both sides.
// Every write touches its own KB2 entity, so the final state depends
// only on the order the server applied them in.
func newMix(p *pairInputs, seed int64, n int) *mix {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	all := make([]string, 0, len(p.uris1)+len(p.uris2))
	all = append(append(all, p.uris1...), p.uris2...)
	pool := append([]string(nil), p.uris2...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	m := &mix{written: make(map[string][]string)}
	take := func() string {
		u := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		return u
	}
	// Set-up warms each route once: a lookup, a delta, a modify and a
	// delete, on entities the timed mix never writes.
	m.warmups = []request{
		lookupRequest([]string{p.uris1[0], p.uris2[0]}),
		deltaRequest(p, p.uris2[0]),
		m.modify(p, take(), 0),
		deleteRequest(take()),
	}
	kinds := make([]int, 0, blockSize)
	writes := 0
	for len(m.requests) < n {
		kinds = kinds[:0]
		for i := range lookupsPerBlk + deltasPerBlk {
			if i < lookupsPerBlk {
				kinds = append(kinds, kindLookup)
			} else {
				kinds = append(kinds, kindDelta)
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		kinds = slices.Insert(kinds, blockSize/2, kindWrite)
		for _, kind := range kinds {
			if len(m.requests) == n {
				break
			}
			switch {
			case kind == kindDelta:
				m.requests = append(m.requests, deltaRequest(p, p.uris2[rng.IntN(len(p.uris2))]))
			case kind == kindWrite && len(pool) > 0:
				writes++
				switch writes % 4 {
				case 1, 3:
					m.requests = append(m.requests, m.modify(p, take(), writes))
				case 2:
					m.requests = append(m.requests, m.insert(p, take(), writes))
				default:
					m.requests = append(m.requests, deleteRequest(take()))
				}
			default:
				uris := make([]string, 1+rng.IntN(4))
				for j := range uris {
					uris[j] = all[rng.IntN(len(all))]
				}
				m.requests = append(m.requests, lookupRequest(uris))
			}
		}
	}
	return m
}

func lookupRequest(uris []string) request {
	var q strings.Builder
	q.WriteString("/resolve?")
	for i, u := range uris {
		if i > 0 {
			q.WriteByte('&')
		}
		q.WriteString("uri=")
		q.WriteString(url.QueryEscape(u))
	}
	return request{kind: kindLookup, method: "GET", path: q.String(), lookups: uris}
}

func deltaRequest(p *pairInputs, uri string) request {
	return request{kind: kindDelta, method: "POST", path: "/delta?name=probe", entity: uri,
		body: strings.Join(p.lines2[uri], "\n") + "\n"}
}

// modify re-sends an entity's description with one extra literal.
func (m *mix) modify(p *pairInputs, uri string, tag int) request {
	lines := append(append([]string(nil), p.lines2[uri]...),
		fmt.Sprintf("<%s> <http://perfbench.example/extra> \"perfbench token %d\" .", uri, tag))
	return m.upsert(uri, lines)
}

// insert adds a new entity carrying a copy of another's description.
func (m *mix) insert(p *pairInputs, from string, tag int) request {
	uri := fmt.Sprintf("http://perfbench.example/new/%d", tag)
	lines := make([]string, len(p.lines2[from]))
	for i, l := range p.lines2[from] {
		lines[i] = "<" + uri + ">" + l[len(from)+2:]
	}
	m.inserted = append(m.inserted, uri)
	return m.upsert(uri, lines)
}

func (m *mix) upsert(uri string, lines []string) request {
	m.written[uri] = lines
	return request{kind: kindWrite, method: "POST", path: "/upsert?side=2", entity: uri,
		body: strings.Join(lines, "\n") + "\n"}
}

func deleteRequest(uri string) request {
	return request{kind: kindWrite, method: "POST", path: "/delete", entity: uri,
		body: `{"side":2,"uris":[` + jsonString(uri) + `]}`}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b)
}
