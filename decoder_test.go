package minoaner_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"

	"minoaner"
	"minoaner/internal/binio"
)

// Tests of the snapshot decoder against hostile images: images whose
// checksums all hold but whose content lies, as a primary under an
// attacker's control could serve them to a replica.

var snapMagic = [4]byte{'M', 'S', 'N', 'P'}

const (
	secKB1     = 2 // MSNP section IDs, as written by SaveIndex
	secMatches = 7
)

// tinySnapshot builds a prepared, two-shard, once-mutated index over a
// handful of triples: every MSNP section kind in about 2 KiB.
func tinySnapshot(tb testing.TB) []byte {
	tb.Helper()
	load := func(name, nt string) *minoaner.KB {
		k, err := minoaner.LoadKB(name, strings.NewReader(nt))
		if err != nil {
			tb.Fatal(err)
		}
		return k
	}
	kb1 := load("kb1", `<http://a/1> <http://a/name> "alpha beta" .
<http://a/2> <http://a/name> "gamma delta" .
<http://a/3> <http://a/name> "epsilon zeta" .
<http://a/1> <http://a/near> <http://a/2> .
`)
	kb2 := load("kb2", `<http://b/1> <http://b/label> "alpha beta" .
<http://b/2> <http://b/label> "gamma delta" .
<http://b/2> <http://b/near> <http://b/1> .
`)
	ix, err := minoaner.BuildIndex(kb1, kb2, minoaner.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	ix.Prepare()
	delta := load("delta", `<http://b/3> <http://b/label> "epsilon zeta" .`+"\n")
	if err := ix.Upsert(context.Background(), 2, delta); err != nil {
		tb.Fatal(err)
	}
	if err := ix.Reshard(2); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// snapSection is one section of an MSNP image.
type snapSection struct {
	id      uint64
	payload []byte
}

// splitSnapshot returns the sections of a well-formed image in file
// order.
func splitSnapshot(tb testing.TB, data []byte) []snapSection {
	tb.Helper()
	m, err := binio.BytesMap(data, snapMagic, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var secs []snapSection
	for _, id := range m.SectionIDs() {
		raw, _ := m.Raw(id)
		secs = append(secs, snapSection{id, raw})
	}
	return secs
}

// joinSnapshot frames sections into an image with fresh checksums.
func joinSnapshot(tb testing.TB, secs []snapSection) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Raw(snapMagic[:])
	w.Uvarint(1)
	for _, s := range secs {
		w.Section(s.id, func(e *binio.Writer) { e.Raw(s.payload) })
	}
	w.End()
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// replaceSection swaps one section's payload and re-seals the image.
func replaceSection(tb testing.TB, data []byte, id uint64, payload []byte) []byte {
	tb.Helper()
	secs := splitSnapshot(tb, data)
	for i := range secs {
		if secs[i].id == id {
			secs[i].payload = payload
		}
	}
	return joinSnapshot(tb, secs)
}

// forgedKBImage is a 41-byte MKB1 image with every checksum intact
// whose entities section declares 2^31-1 entities and then ends.
func forgedKBImage(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.Raw([]byte("MKB1"))
	w.Uvarint(2)
	w.Section(1, func(e *binio.Writer) { e.Str("x"); e.Int(0) }) // header: name, triples
	w.Section(2, func(e *binio.Writer) { e.Int(0) })             // no predicates
	w.Section(3, func(e *binio.Writer) { e.Int(0); e.Int(0) })   // no statistics
	w.Section(4, func(e *binio.Writer) { e.Int(1<<31 - 1) })     // entities: a count, no entities
	w.End()
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// forgedKBSnapshot embeds forgedKBImage as a snapshot's first KB.
func forgedKBSnapshot(tb testing.TB) []byte {
	return replaceSection(tb, tinySnapshot(tb), secKB1, forgedKBImage(tb))
}

// forgedMatchesSnapshot rewrites the first match list's count to 2^20
// — the largest count the pair-count sanity check lets through on any
// KB sizes — and re-seals the matches checksum.
func forgedMatchesSnapshot(tb testing.TB) []byte {
	tb.Helper()
	data := tinySnapshot(tb)
	var payload []byte
	for _, s := range splitSnapshot(tb, data) {
		if s.id == secMatches {
			payload = s.payload
		}
	}
	_, n := binary.Uvarint(payload)
	forged := binary.AppendUvarint(nil, 1<<20)
	return replaceSection(tb, data, secMatches, append(forged, payload[n:]...))
}

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestForgedCountsAllocateLittle feeds the decoder length prefixes that
// promise far more elements than the image holds. Each must fail typed,
// and no pre-allocation may trust the count past what the remaining
// bytes could encode.
func TestForgedCountsAllocateLittle(t *testing.T) {
	if got := len(forgedKBImage(t)); got != 41 {
		t.Fatalf("forged KB image is %d bytes, want 41", got)
	}
	for name, data := range map[string][]byte{
		"kb entity count":  forgedKBSnapshot(t),
		"match pair count": forgedMatchesSnapshot(t),
	} {
		t.Run(name, func(t *testing.T) {
			var err error
			alloc := allocatedBy(func() { _, err = minoaner.OpenIndex(data) })
			if !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
				t.Errorf("error = %v, want ErrSnapshotCorrupt", err)
			}
			if alloc >= 1<<20 {
				t.Errorf("decoding allocated %d bytes before failing, want < 1 MiB", alloc)
			}
		})
	}
}

// TestLoadIndexVerifiesUnknownSections: a section the reader does not
// know is skipped, so a lazy open never hashes it — but LoadIndex
// promises every checksum, so damage there must fail the full load.
func TestLoadIndexVerifiesUnknownSections(t *testing.T) {
	secs := append(splitSnapshot(t, tinySnapshot(t)), snapSection{99, []byte("a future section")})
	data := joinSnapshot(t, secs)
	if _, err := minoaner.LoadIndex(bytes.NewReader(data)); err != nil {
		t.Fatalf("intact unknown section rejected: %v", err)
	}

	// The unknown section is the last one: its checksum sits just
	// before the end marker.
	mut := append([]byte(nil), data...)
	mut[len(mut)-2] ^= 0x01
	opened, err := minoaner.OpenIndex(mut)
	if err != nil {
		t.Fatalf("OpenIndex rejected a damaged unknown section: %v", err)
	}
	if err := opened.Close(); err != nil {
		t.Fatalf("Close of an index with a damaged unknown section: %v", err)
	}
	if _, err := minoaner.LoadIndex(bytes.NewReader(mut)); !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
		t.Fatalf("LoadIndex error = %v, want ErrSnapshotCorrupt", err)
	}
}

// reseal recomputes, in place, every section checksum it can find in
// the frame at the start of data (magic, version, sections): the
// frame's own and, for an MSNP frame, those of the MKB1, MBC1 and MPS1
// frames its sections embed, inner ones first. It stops where the walk
// cannot parse. Fuzzed inputs thereby get past the checksums to the
// decoders behind them.
func reseal(data []byte) {
	if len(data) < 4 {
		return
	}
	snapshot := bytes.HasPrefix(data, snapMagic[:])
	pos := 4
	next := func() (uint64, bool) {
		v, k := binary.Uvarint(data[pos:])
		pos += max(k, 0)
		return v, k > 0
	}
	if _, ok := next(); !ok { // version
		return
	}
	for {
		id, ok := next()
		if !ok || id == 0 {
			return
		}
		n, ok := next()
		if !ok || n > uint64(len(data)-pos) || len(data)-pos-int(n) < 4 {
			return
		}
		payload := data[pos : pos+int(n)]
		switch {
		case !snapshot:
		case id == 8: // prepared: a uvarint N, the MPS1 frame, neighbor lists
			if _, k := binary.Uvarint(payload); k > 0 {
				reseal(payload[k:])
			}
		case id >= 2 && id <= 5: // the KBs and the block collections
			reseal(payload)
		}
		pos += int(n)
		binary.LittleEndian.PutUint32(data[pos:], crc32.ChecksumIEEE(payload))
		pos += 4
	}
}

// FuzzOpenIndex opens fuzzed snapshots with re-sealed checksums and
// materializes every tier (OpenIndex then Close, which is exactly what
// LoadIndex does past its checksum pass). No input may panic, every
// failure must wrap ErrSnapshotCorrupt, and every index that loads
// must also save.
func FuzzOpenIndex(f *testing.F) {
	b, err := minoaner.GenerateBenchmark("Restaurant", 1, 0.01)
	if err != nil {
		f.Fatal(err)
	}
	ix, err := minoaner.BuildIndex(b.KB1, b.KB2, minoaner.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	ix.Prepare()
	var buf bytes.Buffer
	if err := minoaner.SaveIndex(&buf, ix); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(tinySnapshot(f))
	// testdata/fuzz/FuzzOpenIndex holds forgedKBSnapshot and
	// forgedMatchesSnapshot as committed seeds.

	f.Fuzz(func(t *testing.T, data []byte) {
		// The engine owns data; reseal a copy.
		data = append([]byte(nil), data...)
		reseal(data)
		ix, err := minoaner.OpenIndex(data)
		if err == nil {
			err = ix.Close()
		}
		if err != nil {
			if !errors.Is(err, minoaner.ErrSnapshotCorrupt) {
				t.Fatalf("error does not wrap ErrSnapshotCorrupt: %v", err)
			}
			return
		}
		if err := minoaner.SaveIndex(io.Discard, ix); err != nil {
			t.Fatalf("loaded index does not save: %v", err)
		}
	})
}
