package minoaner

import (
	"errors"
	"fmt"
	"io"

	"minoaner/internal/binio"
	"minoaner/internal/blocking"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/pipeline"
)

// Index snapshot format. A snapshot persists everything BuildIndex
// derives — the two built KBs, the block collections, and the complete
// match set — so a server process loads it and answers queries without
// re-parsing a single triple. Layout (see internal/binio for the
// section framing; every section is CRC32-checksummed):
//
//	magic "MSNP" | uvarint version | sections | end marker
//
//	section 1 (config):       the Config the index was built under,
//	                          followed by the section inventory (the
//	                          IDs of every section written) — the
//	                          checksummed defense against a corrupted
//	                          section ID making an optional section
//	                          silently vanish. Pre-inventory snapshots
//	                          end after the config fields and load
//	                          fine.
//	section 2 (kb1):          first KB, embedded KB binary (internal/kb;
//	                          includes retained source triples when the
//	                          KB is mutable)
//	section 3 (kb2):          second KB, embedded KB binary
//	section 4 (name-blocks):  B_N, embedded collection binary (internal/blocking)
//	section 5 (token-blocks): B_T after purging, embedded collection binary
//	section 6 (stats):        purge result and block accounting
//	section 7 (matches):      H1, H2, H3, final matches, H4 discard count
//	section 8 (prepared):     frozen left-side substrate of the delta
//	                          path (see Index.Prepare): the embedded
//	                          one-sided token/name index
//	                          (internal/blocking "MPS1") followed by the
//	                          frozen per-entity neighbor lists. Written
//	                          only when the substrate has been built.
//	section 9 (journal):      epoch number and the mutation journal —
//	                          one record per absorbed Upsert/Delete
//	                          since the last Compact. Written only for
//	                          indexes past epoch 0 (or with journal
//	                          entries, or a non-zero compaction count);
//	                          snapshots of mutated indexes persist the
//	                          *mutated* state in sections 1-8, so
//	                          readers that skip this section still
//	                          serve correct matches. After the entry
//	                          list the section may carry a trailing
//	                          extension — the Compact count and the
//	                          per-entry replay payloads (upsert deltas
//	                          as N-Triples lines) — that pre-extension
//	                          readers ignore; it is omitted when
//	                          everything in it would be empty, so
//	                          resaving a pre-extension snapshot
//	                          reproduces its bytes.
//	section 10 (sharding):    shard count and the per-shard owned-entity
//	                          counts of the URI-hash partition. Written
//	                          only for sharded indexes (K > 1); the
//	                          partition itself is re-derived
//	                          deterministically on load and checked
//	                          against the recorded counts. Readers that
//	                          skip this section (or snapshots from
//	                          before it) load as K = 1 — unsharded, with
//	                          identical answers.
//
// Compatibility promise: a reader accepts exactly the format versions
// it names (currently 1), skips unknown section IDs within them, and
// rejects everything else — including any payload whose checksum does
// not match — with an error wrapping ErrSnapshotCorrupt. Saving a
// loaded or opened index reproduces the snapshot bit-for-bit, journal
// included. The prepared and journal sections are optional in both
// directions: snapshots from before they existed load fine, and older
// readers skip them unharmed.
//
// There is one decoder, openIndexMap in mapped.go. OpenIndex and
// OpenIndexFile run it over the section directory and decode the bulk
// on first demand, verifying each section's checksum on its first
// access. LoadIndex and LoadIndexFile are the same open followed by a
// checksum pass over every section (unknown ones included) and a full
// materialization; the index they return holds no reference to the
// image. This file holds the writer and the section codecs both share.

var snapshotMagic = [4]byte{'M', 'S', 'N', 'P'}

const snapshotVersion = 1

// Section IDs of the snapshot frame.
//
//minoaner:sections writer=SaveIndex reader=openIndexMap,blocks,decodePrepared
const (
	snapConfig      = 1
	snapKB1         = 2
	snapKB2         = 3
	snapNameBlocks  = 4
	snapTokenBlocks = 5
	snapStats       = 6
	snapMatches     = 7
	snapPrepared    = 8
	snapJournal     = 9
	snapSharding    = 10
)

// ErrSnapshotCorrupt is wrapped by every snapshot decode failure caused
// by damaged or incompatible data: from LoadIndex and OpenIndex, and
// from the first access to a damaged lazily decoded section.
var ErrSnapshotCorrupt = errors.New("minoaner: corrupt index snapshot")

// SaveIndex writes the index snapshot. The encoding is deterministic:
// saving the same index (built or loaded) always produces the same
// bytes. SaveIndex captures a consistent epoch/journal pair: it
// briefly excludes mutations (readers are unaffected), so a snapshot
// never interleaves two epochs.
func SaveIndex(w io.Writer, ix *Index) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// A mapped index serializes from fully decoded structures — the
	// save must include sections the read path has not touched yet.
	if err := ix.materializeLocked(); err != nil {
		return err
	}
	e := ix.cur.Load()

	withJournal := e.seq > 0 || len(ix.journal) > 0 || ix.compactions.Load() > 0
	sections := []uint64{snapConfig, snapKB1, snapKB2, snapNameBlocks, snapTokenBlocks, snapStats, snapMatches}
	if e.prep != nil {
		sections = append(sections, snapPrepared)
	}
	if withJournal {
		sections = append(sections, snapJournal)
	}
	if e.shards > 1 {
		sections = append(sections, snapSharding)
	}

	bw := binio.NewWriter(w)
	bw.Raw(snapshotMagic[:])
	bw.Uvarint(snapshotVersion)
	bw.Section(snapConfig, func(enc *binio.Writer) {
		writeConfig(enc, e.cfg)
		enc.Int(len(sections))
		for _, id := range sections {
			enc.Uvarint(id)
		}
	})
	if err := writeEmbedded(bw, snapKB1, e.kb1.kb.WriteBinary); err != nil {
		return err
	}
	if err := writeEmbedded(bw, snapKB2, e.kb2.kb.WriteBinary); err != nil {
		return err
	}
	if err := writeEmbedded(bw, snapNameBlocks, e.nameBlocks.WriteBinary); err != nil {
		return err
	}
	if err := writeEmbedded(bw, snapTokenBlocks, e.tokenBlocks.WriteBinary); err != nil {
		return err
	}
	bw.Section(snapStats, func(enc *binio.Writer) {
		enc.Int(e.purge.Cutoff1)
		enc.Int(e.purge.Cutoff2)
		enc.Int(e.purge.RemovedBlocks)
		enc.Uvarint(uint64(e.purge.RemovedComparisons))
		enc.Int(e.nameBlockCount)
		enc.Int(e.tokenBlockCount)
		enc.Uvarint(uint64(e.nameComparisons))
		enc.Uvarint(uint64(e.tokenComparisons))
	})
	bw.Section(snapMatches, func(enc *binio.Writer) {
		writePairs(enc, e.h1)
		writePairs(enc, e.h2)
		writePairs(enc, e.h3)
		writePairs(enc, e.matches)
		enc.Int(e.discardedByH4)
	})
	if e.prep != nil {
		bw.Section(snapPrepared, func(enc *binio.Writer) {
			enc.Int(e.prep.Neighbors.N())
			enc.Embed(e.prep.Blocks.WriteBinary)
			writeNeighborLists(enc, e.prep.Neighbors.TopLists())
		})
	}
	if withJournal {
		bw.Section(snapJournal, func(enc *binio.Writer) {
			writeJournalSection(enc, e.seq, ix.journal, ix.compactions.Load())
		})
	}
	if e.shards > 1 {
		bw.Section(snapSharding, func(enc *binio.Writer) {
			enc.Int(e.shards)
			for _, c := range shardOwnerCounts(e) {
				enc.Int(c)
			}
		})
	}
	bw.End()
	return bw.Flush()
}

// shardOwnerCounts tallies how many KB1 entities each shard owns under
// the URI-hash partition — the snapshot's integrity check that a
// loading build partitions the KB exactly as the writing one did.
func shardOwnerCounts(e *epoch) []int {
	counts := make([]int, e.shards)
	var owners []int32
	if e.sharded != nil {
		owners = e.sharded.Owners()
	} else {
		owners = pipeline.ShardOwners(e.kb1.kb, e.shards)
	}
	for _, o := range owners {
		counts[o]++
	}
	return counts
}

// readShardingSection restores the shard count and verifies the
// recorded owner counts against the partition re-derived from KB1's
// URIs.
func readShardingSection(b *binio.Reader, ix *Index) error {
	k := b.Int()
	if b.Err() == nil && (k < 1 || k > 1<<16) {
		b.Fail("shard count %d out of range", k)
	}
	counts := make([]int, 0, b.Capacity(uint64(k), 1))
	for i := 0; i < k && b.Err() == nil; i++ {
		counts = append(counts, b.Int())
	}
	if err := b.Err(); err != nil {
		return fmt.Errorf("%w: sharding: %v", ErrSnapshotCorrupt, err)
	}
	// Open time, before the index is shared: the partitioned substrate
	// derives when the prepared side decodes.
	e := ix.cur.Load()
	e.shards = normalizeShards(k)
	got := shardOwnerCounts(e)
	for s, c := range counts {
		if got[s] != c {
			return fmt.Errorf("%w: sharding: shard %d owns %d entities, snapshot recorded %d",
				ErrSnapshotCorrupt, s, got[s], c)
		}
	}
	return nil
}

// writeNeighborLists encodes the frozen per-entity neighbor lists.
func writeNeighborLists(e *binio.Writer, top [][]kb.EntityID) {
	e.Int(len(top))
	for _, nbrs := range top {
		e.Int(len(nbrs))
		for _, id := range nbrs {
			e.Uvarint(uint64(id))
		}
	}
}

// decodePreparedBody decodes the prepared section's payload, validating
// it against the already-open KB1 and config.
func decodePreparedBody(b *binio.Reader, kb1 *KB, cfg Config) (*pipeline.Prepared, error) {
	n := b.Int()
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: prepared: %v", ErrSnapshotCorrupt, err)
	}
	if n != cfg.internal().Params().N {
		return nil, fmt.Errorf("%w: prepared substrate frozen for N=%d, config has N=%d",
			ErrSnapshotCorrupt, n, cfg.N)
	}
	// The embedded substrate advances b, so the neighbor lists after it
	// decode from where its frame ends.
	bp, err := blocking.ReadPreparedFrom(b)
	if err != nil {
		return nil, fmt.Errorf("%w: prepared: %v", ErrSnapshotCorrupt, err)
	}
	if bp.KBSize() != kb1.Len() {
		return nil, fmt.Errorf("%w: prepared substrate covers %d entities, KB1 has %d",
			ErrSnapshotCorrupt, bp.KBSize(), kb1.Len())
	}
	if bp.NameK() != cfg.NameAttributes {
		return nil, fmt.Errorf("%w: prepared substrate built with NameK=%d, config has %d",
			ErrSnapshotCorrupt, bp.NameK(), cfg.NameAttributes)
	}
	nEnt := b.Int()
	if b.Err() == nil && nEnt != kb1.Len() {
		b.Fail("neighbor lists cover %d entities, KB1 has %d", nEnt, kb1.Len())
	}
	top := make([][]kb.EntityID, 0, b.Capacity(uint64(nEnt), 1))
	for i := 0; i < nEnt && b.Err() == nil; i++ {
		cnt := b.Int()
		if cnt > kb1.Len() {
			b.Fail("neighbor list larger than the KB (%d > %d)", cnt, kb1.Len())
			break
		}
		nbrs := make([]kb.EntityID, 0, b.Capacity(uint64(cnt), 1))
		prev := int64(-1)
		for j := 0; j < cnt && b.Err() == nil; j++ {
			id := b.Uvarint()
			if id >= uint64(kb1.Len()) || int64(id) <= prev {
				b.Fail("neighbor %d out of order or range [0,%d)", id, kb1.Len())
				break
			}
			prev = int64(id)
			nbrs = append(nbrs, kb.EntityID(id))
		}
		top = append(top, nbrs)
	}
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: prepared: %v", ErrSnapshotCorrupt, err)
	}
	return &pipeline.Prepared{
		Blocks:    bp,
		Neighbors: kb.FrozenFromLists(kb1.kb, n, top),
	}, nil
}

// writeJournalSection encodes section 9: the epoch number and journal
// entries in the original layout, then — only when something in it
// would be non-empty — a trailing extension with the compaction count
// and the per-entry replay payloads. Pre-extension readers stop after
// the entry list and ignore the tail; omitting an all-empty tail keeps
// resaves of pre-extension snapshots bit-identical.
func writeJournalSection(enc *binio.Writer, seq uint64, journal []JournalEntry, compactions uint64) {
	enc.Uvarint(seq)
	enc.Int(len(journal))
	withTail := compactions > 0
	for _, je := range journal {
		enc.Uvarint(je.Seq)
		enc.Uvarint(uint64(je.Op))
		enc.Int(je.Side)
		enc.Int(len(je.Subjects))
		for _, s := range je.Subjects {
			enc.Str(s)
		}
		enc.Int(je.Triples)
		if len(je.Delta) > 0 {
			withTail = true
		}
	}
	if !withTail {
		return
	}
	enc.Uvarint(compactions)
	for _, je := range journal {
		enc.Int(len(je.Delta))
		for _, line := range je.Delta {
			enc.Str(line)
		}
	}
}

// readJournalSection restores the epoch number, the mutation journal,
// and — when the extension tail is present — the compaction count and
// replay payloads.
func readJournalSection(b *binio.Reader, ix *Index) error {
	e := ix.cur.Load()
	seq := b.Uvarint()
	n := b.Int()
	if b.Err() == nil && n > 1<<24 {
		b.Fail("absurd journal length %d", n)
	}
	if b.Err() == nil && uint64(n) > seq {
		b.Fail("journal of %d entries cannot cover epochs up to %d", n, seq)
	}
	// An entry is at least its epoch, op, side, subject count and
	// triple count.
	entries := make([]JournalEntry, 0, b.Capacity(uint64(n), 5))
	base := seq - uint64(n)
	for i := 0; i < n && b.Err() == nil; i++ {
		var je JournalEntry
		je.Seq = b.Uvarint()
		je.Op = byte(b.Uvarint())
		je.Side = b.Int()
		nSub := b.Int()
		if b.Err() != nil {
			break
		}
		if je.Op != JournalUpsert && je.Op != JournalDelete {
			b.Fail("journal entry %d has invalid op %d", i, je.Op)
			break
		}
		if je.Side != 1 && je.Side != 2 {
			b.Fail("journal entry %d has invalid side %d", i, je.Side)
			break
		}
		// The journal is contiguous by construction: entry i produced
		// epoch base+i+1 and the last entry produced the current epoch.
		// JournalSince's cursor arithmetic depends on it.
		if je.Seq != base+uint64(i)+1 {
			b.Fail("journal entry %d out of sequence (epoch %d, want %d)", i, je.Seq, base+uint64(i)+1)
			break
		}
		if nSub > 1<<24 {
			b.Fail("absurd subject count %d", nSub)
			break
		}
		for s := 0; s < nSub && b.Err() == nil; s++ {
			je.Subjects = append(je.Subjects, b.Str())
		}
		je.Triples = b.Int()
		entries = append(entries, je)
	}
	if err := b.Err(); err != nil {
		return fmt.Errorf("%w: journal: %v", ErrSnapshotCorrupt, err)
	}
	if b.More() {
		ix.compactions.Store(b.Uvarint())
		for i := 0; i < len(entries) && b.Err() == nil; i++ {
			nd := b.Int()
			if b.Err() != nil {
				break
			}
			if nd < 0 || nd > 1<<24 {
				b.Fail("absurd delta length %d", nd)
				break
			}
			if nd > 0 && entries[i].Op != JournalUpsert {
				b.Fail("journal entry %d: delete carries a delta payload", i)
				break
			}
			for j := 0; j < nd && b.Err() == nil; j++ {
				entries[i].Delta = append(entries[i].Delta, b.Str())
			}
		}
		if err := b.Err(); err != nil {
			return fmt.Errorf("%w: journal extension: %v", ErrSnapshotCorrupt, err)
		}
	}
	e.seq = seq
	ix.journal = entries
	ix.journalLen.Store(int64(len(entries)))
	return nil
}

// writeEmbedded streams one nested format (KB or collection) into its
// own section; the section framing delimits and checksums it.
func writeEmbedded(bw *binio.Writer, id uint64, write func(io.Writer) error) error {
	bw.Section(id, func(e *binio.Writer) {
		e.Embed(write)
	})
	return bw.Err()
}

// writeConfig encodes the public Config (including the ablation
// switches: an index built without H4 must query without H4 too).
func writeConfig(e *binio.Writer, c Config) {
	e.Int(c.K)
	e.Int(c.N)
	e.Int(c.NameAttributes)
	e.Float(c.Theta)
	e.Float(c.PurgeEntityFraction)
	e.Int(c.PurgeMinEntities)
	e.Int(c.Workers)
	e.Bool(c.DisableH1)
	e.Bool(c.DisableH2)
	e.Bool(c.DisableH3)
	e.Bool(c.DisableH4)
}

func readConfig(b *binio.Reader) Config {
	var c Config
	c.K = b.Int()
	c.N = b.Int()
	c.NameAttributes = b.Int()
	c.Theta = b.Float()
	c.PurgeEntityFraction = b.Float()
	c.PurgeMinEntities = b.Int()
	c.Workers = b.Int()
	c.DisableH1 = b.Bool()
	c.DisableH2 = b.Bool()
	c.DisableH3 = b.Bool()
	c.DisableH4 = b.Bool()
	return c
}

func writePairs(e *binio.Writer, pairs []eval.Pair) {
	e.Int(len(pairs))
	for _, p := range pairs {
		e.Uvarint(uint64(p.E1))
		e.Uvarint(uint64(p.E2))
	}
}

func readPairs(b *binio.Reader, n1, n2 int) []eval.Pair {
	n := b.Int()
	if b.Err() != nil {
		return nil
	}
	if n > n1*n2 && n > 1<<20 {
		b.Fail("absurd pair count %d", n)
		return nil
	}
	out := make([]eval.Pair, 0, b.Capacity(uint64(n), 2))
	for i := 0; i < n && b.Err() == nil; i++ {
		e1 := b.Uvarint()
		e2 := b.Uvarint()
		if e1 >= uint64(n1) || e2 >= uint64(n2) {
			b.Fail("pair (%d,%d) out of range for KB sizes (%d,%d)", e1, e2, n1, n2)
			return nil
		}
		out = append(out, eval.Pair{E1: kb.EntityID(e1), E2: kb.EntityID(e2)})
	}
	return out
}
