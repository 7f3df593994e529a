package kb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"minoaner/internal/binio"
)

// Decoding of the binary KB format. OpenBinary is the one decoder; it
// splits a version-2 image into two tiers:
//
//   - URI tier, decoded at open: entity count, URIs, and the URI index —
//     everything the infallible, lock-free read path (Len, Lookup, URI,
//     Name, NumTriples) touches. The scan validates the entities
//     section's structure; its checksum is deferred (hashing it would
//     touch every byte of the bulk the open skips).
//   - Full tier, decoded on first demand: predicates, statistics,
//     per-entity attributes/edges/types/tokens, and derived structures.
//     Section checksums — including the entities section's — verify on
//     that first access, so every fallible operation sees verified data.
//
// Retained sources decode separately (they are only needed to mutate),
// also once, on first demand. A full decode is OpenBinary followed by
// MaterializeAll. Version-1 images (no sections, no checksums) decode
// in full at open, through the same URI scan and full-tier fill over
// the entity bytes. All decoded values copy out of the backing slice
// (strings are built, not aliased), so once MaterializeAll succeeds the
// KB no longer references the mapping.
//
// Filling the full tier writes only fields and maps the URI tier never
// reads (Entity.Attrs/Out/Types/Tokens are distinct memory locations
// from Entity.URI), so concurrent URI-tier readers race with nothing;
// full-tier readers synchronize through the sync.Once.

// kbLazy is the undecoded remainder of a mapped KB image.
type kbLazy struct {
	// m is the nested section directory over the MKB1 image. MaterializeAll
	// clears it once both tiers have decoded, so a fully decoded KB does
	// not keep the image reachable.
	m      atomic.Pointer[binio.Map]
	hasSrc bool

	once sync.Once // full tier
	err  error

	srcOnce sync.Once // sources tier
	srcErr  error
}

// LazyCapable reports whether a binary KB image is in the sectioned
// (version 2) format that supports lazy decoding. Version-1 images are
// unsectioned streams without per-section checksums and decode in full
// at open.
func LazyCapable(data []byte) bool {
	dec := binio.NewBytesReader(data)
	dec.Magic(binaryMagic)
	v := dec.Uvarint()
	return dec.Err() == nil && v == binaryVersion
}

// OpenBinary decodes a binary KB image lazily: the URI tier (entity
// URIs and index) is built now, everything else on first demand via the
// full-tier accessors, Materialize or MaterializeAll. The image must
// stay valid until MaterializeAll has succeeded (or the KB is dropped);
// version-1 images decode in full here.
func OpenBinary(data []byte) (*KB, error) {
	if !LazyCapable(data) {
		return readVersion1(data)
	}
	m, err := binio.BytesMap(data, binaryMagic, binaryVersion)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kb := newEmptyKB()
	hdr, err := m.Reader(secHeader)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kb.readHeader(hdr)
	if err := verifyInventory(hdr, m); err != nil {
		return nil, err
	}
	for _, id := range []uint64{secPreds, secStats} {
		if !m.Has(id) {
			return nil, fmt.Errorf("%w: missing section %d", errCorrupt, id)
		}
	}
	// The URI scan reads the raw payload: verifying the entities
	// section's checksum would hash the bulk of the image — the one cost
	// a mapped open exists to avoid. The scan validates the section's
	// structure; the checksum verifies on the first full-tier access
	// (decodeRest goes through m.Reader), so damage in the skipped
	// bytes — or in a URI — is caught before any fallible operation
	// (QueryKB, SaveIndex, mutation, Close) trusts the decoded KB.
	raw, ok := m.Raw(secEntities)
	if !ok {
		return nil, fmt.Errorf("%w: missing section %d", errCorrupt, secEntities)
	}
	ents := binio.NewBytesReader(raw)
	kb.scanURIs(ents)
	if err := ents.Err(); err != nil {
		return nil, fmt.Errorf("%w: entities: %v", errCorrupt, err)
	}
	kb.lazy = &kbLazy{hasSrc: m.Has(secSources)}
	kb.lazy.m.Store(m)
	return kb, nil
}

// readVersion1 decodes an unsectioned version-1 image in full. Its
// entities are the stream's tail; the URI scan and the full-tier fill
// walk those same bytes, exactly as a lazy open and Materialize do.
func readVersion1(data []byte) (*KB, error) {
	dec := binio.NewBytesReader(data)
	dec.Magic(binaryMagic)
	dec.Version(binaryVersionV1)
	kb := newEmptyKB()
	kb.readHeader(dec)
	kb.readPreds(dec)
	kb.readStats(dec)
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	ents := data[len(data)-dec.Remaining():]
	for _, walk := range []func(*binio.Reader){kb.scanURIs, kb.fillEntities} {
		dec := binio.NewBytesReader(ents)
		walk(dec)
		if err := dec.Err(); err != nil {
			return nil, fmt.Errorf("%w: entities: %v", errCorrupt, err)
		}
	}
	kb.rebuildDerived()
	return kb, nil
}

// verifyInventory checks the header's trailing section inventory (when
// present) against the mapped directory: an inventoried section that
// is missing means a corrupted section ID.
func verifyInventory(hdr *binio.Reader, m *binio.Map) error {
	if !hdr.More() {
		return hdr.Err()
	}
	n := hdr.Int()
	if hdr.Err() == nil && n > 64 {
		hdr.Fail("absurd inventory size %d", n)
	}
	for i := 0; i < n && hdr.Err() == nil; i++ {
		id := hdr.Uvarint()
		if hdr.Err() == nil && !m.Has(id) {
			hdr.Fail("inventoried section %d missing", id)
		}
	}
	if err := hdr.Err(); err != nil {
		return fmt.Errorf("%w: header inventory: %v", errCorrupt, err)
	}
	return nil
}

// scanURIs builds the URI tier from the entities section: URIs and the
// URI index, skipping (not materializing) attributes, edges, types, and
// tokens. Predicate/target validation belongs to the full-tier fill —
// nothing in the URI tier depends on it.
func (kb *KB) scanURIs(dec *binio.Reader) {
	nEnt := dec.Uvarint()
	if dec.Err() == nil && nEnt > 1<<31 {
		dec.Fail("absurd entity count %d", nEnt)
		return
	}
	// An entity is at least its URI length and four list counts.
	kb.entities = make([]Entity, 0, dec.Capacity(nEnt, 5))
	for i := uint64(0); i < nEnt && dec.Err() == nil; i++ {
		var e Entity
		e.URI = dec.Str()
		nAttrs := dec.Uvarint()
		for a := uint64(0); a < nAttrs && dec.Err() == nil; a++ {
			dec.Uvarint() // pred
			dec.SkipStr() // value
		}
		nOut := dec.Uvarint()
		for o := uint64(0); o < nOut && dec.Err() == nil; o++ {
			dec.Uvarint() // pred
			dec.Uvarint() // target
		}
		nTypes := dec.Uvarint()
		for x := uint64(0); x < nTypes && dec.Err() == nil; x++ {
			dec.SkipStr()
		}
		nTokens := dec.Uvarint()
		for x := uint64(0); x < nTokens && dec.Err() == nil; x++ {
			dec.SkipStr()
		}
		kb.uriIndex[e.URI] = EntityID(len(kb.entities))
		kb.entities = append(kb.entities, e)
	}
}

// materialize decodes the full tier once (idempotent, concurrency-safe)
// and returns its verdict. It is the guard the full-tier accessors call;
// on a built or version-1 KB it is a nil check.
func (kb *KB) materialize() error {
	l := kb.lazy
	if l == nil {
		return nil
	}
	l.once.Do(func() { l.err = kb.decodeRest() })
	return l.err
}

// materializeSrc decodes the retained sources once, if present.
func (kb *KB) materializeSrc() error {
	l := kb.lazy
	if l == nil || !l.hasSrc {
		return nil
	}
	l.srcOnce.Do(func() { l.srcErr = kb.decodeSources() })
	return l.srcErr
}

// Materialize forces the full tier — everything except retained
// sources, which only mutation needs (see MaterializeAll).
func (kb *KB) Materialize() error { return kb.materialize() }

// MaterializeAll forces both tiers — the full tier and the retained
// sources, when the KB has them. Once it returns nil the KB references
// nothing in the backing image, so the image may be unmapped or
// collected.
func (kb *KB) MaterializeAll() error {
	if err := kb.materialize(); err != nil {
		return err
	}
	if err := kb.materializeSrc(); err != nil {
		return err
	}
	if kb.lazy != nil {
		// Both onces have run, so nothing reads m again.
		kb.lazy.m.Store(nil)
	}
	return nil
}

// BinaryInfo is InspectBinary's summary of a binary KB image.
type BinaryInfo struct {
	Name       string
	Entities   int
	Triples    int
	HasSources bool
}

// InspectBinary summarizes a binary KB image without decoding its
// bulk: for sectioned (version 2) images it reads the checksummed
// header plus the entity count, O(header) work however large the KB.
// Version-1 images decode in full — they have no section directory to
// consult.
func InspectBinary(data []byte) (BinaryInfo, error) {
	if !LazyCapable(data) {
		k, err := readVersion1(data)
		if err != nil {
			return BinaryInfo{}, err
		}
		return BinaryInfo{Name: k.name, Entities: len(k.entities), Triples: k.numTriples, HasSources: k.src != nil}, nil
	}
	m, err := binio.BytesMap(data, binaryMagic, binaryVersion)
	if err != nil {
		return BinaryInfo{}, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	hdr, err := m.Reader(secHeader)
	if err != nil {
		return BinaryInfo{}, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	info := BinaryInfo{Name: hdr.Str(), Triples: hdr.Int(), HasSources: m.Has(secSources)}
	if err := hdr.Err(); err != nil {
		return BinaryInfo{}, fmt.Errorf("%w: header: %v", errCorrupt, err)
	}
	// The entity count is the entities section's leading varint; read
	// it from the raw payload — verifying the section's checksum would
	// mean hashing the whole KB, exactly what inspect avoids.
	raw, ok := m.Raw(secEntities)
	if !ok {
		return BinaryInfo{}, fmt.Errorf("%w: missing section %d", errCorrupt, secEntities)
	}
	ents := binio.NewBytesReader(raw)
	info.Entities = int(ents.Uvarint())
	if err := ents.Err(); err != nil {
		return BinaryInfo{}, fmt.Errorf("%w: entities: %v", errCorrupt, err)
	}
	return info, nil
}

func (kb *KB) decodeRest() error {
	m := kb.lazy.m.Load()
	for _, id := range []uint64{secPreds, secStats} {
		body, err := m.Reader(id)
		if err != nil {
			return fmt.Errorf("%w: %v", errCorrupt, err)
		}
		switch id {
		case secPreds:
			kb.readPreds(body)
		case secStats:
			kb.readStats(body)
		}
		if err := body.Err(); err != nil {
			return fmt.Errorf("%w: section %d: %v", errCorrupt, id, err)
		}
	}
	ents, err := m.Reader(secEntities)
	if err != nil {
		return fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kb.fillEntities(ents)
	if err := ents.Err(); err != nil {
		return fmt.Errorf("%w: entities: %v", errCorrupt, err)
	}
	kb.rebuildDerived()
	return nil
}

func (kb *KB) decodeSources() error {
	body, err := kb.lazy.m.Load().Reader(secSources)
	if err != nil {
		return fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kb.readSources(body)
	if err := body.Err(); err != nil {
		return fmt.Errorf("%w: sources: %v", errCorrupt, err)
	}
	return nil
}

// fillEntities is the full-tier counterpart of scanURIs: it re-walks
// the (already checksum-verified) entities section, skipping the URIs
// decoded at open and filling attributes, edges, types, and tokens in
// place, validating predicates and edge targets.
func (kb *KB) fillEntities(dec *binio.Reader) {
	nEnt := dec.Uvarint()
	if dec.Err() == nil && int(nEnt) != len(kb.entities) {
		dec.Fail("entity count %d does not match open-time scan (%d)", nEnt, len(kb.entities))
		return
	}
	for i := 0; i < int(nEnt) && dec.Err() == nil; i++ {
		e := &kb.entities[i]
		dec.SkipStr() // URI, decoded at open
		nAttrs := dec.Uvarint()
		for a := uint64(0); a < nAttrs && dec.Err() == nil; a++ {
			pred := int32(dec.Uvarint())
			val := dec.Str()
			if pred < 0 || int(pred) >= len(kb.preds) {
				dec.Fail("attribute predicate out of range")
				break
			}
			e.Attrs = append(e.Attrs, AttrValue{Pred: pred, Value: val})
		}
		nOut := dec.Uvarint()
		for o := uint64(0); o < nOut && dec.Err() == nil; o++ {
			pred := int32(dec.Uvarint())
			tgt := EntityID(dec.Uvarint())
			if pred < 0 || int(pred) >= len(kb.preds) || uint64(tgt) >= nEnt {
				dec.Fail("edge out of range")
				break
			}
			e.Out = append(e.Out, Edge{Pred: pred, Target: tgt})
		}
		nTypes := dec.Uvarint()
		for x := uint64(0); x < nTypes && dec.Err() == nil; x++ {
			typ := dec.Str()
			e.Types = append(e.Types, typ)
			kb.typeSet[typ] = struct{}{}
		}
		nTokens := dec.Uvarint()
		for x := uint64(0); x < nTokens && dec.Err() == nil; x++ {
			e.Tokens = append(e.Tokens, dec.Str())
		}
	}
}
