package corpus

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"scholarrank/internal/sparse"
)

// SCORP is the on-disk corpus format: a sectioned, checksummed binary
// dump of the Store columns, so a replica boots by copying arrays
// instead of parsing text. Layout (all integers little-endian):
//
//	magic "SCORP" | version byte | 2 reserved bytes | u32 sectionCount
//	sectionCount × { tag [4]byte | u64 offset | u64 length | u32 crc32 }
//	section payloads (offsets are absolute file offsets)
//
// Each section's CRC-32 (IEEE) covers its payload bytes, so a
// truncated or bit-flipped file is rejected section-by-section. The
// section table makes the format extensible: readers locate sections
// by tag, ignore unknown tags, and fail only on a missing required
// section — versioning rules mirror the SRNKS ranking snapshot.
//
// Sections (counts live in "meta"; every array section's byte length
// is cross-checked against the counts before decoding):
//
//	meta  4×u64: articles, authors, venues, citations
//	arna  string arena bytes
//	akof/atof   article key/title offsets   (articles+1)×i64
//	yrsc  years        articles×i32
//	vnuc  venues-of    articles×i32 (NoVenue = -1)
//	aaof/aaid   article→author CSR          offsets + author ids
//	refo/refi   article→reference CSR       offsets + article ids
//	ukof/unof   author key/name offsets     (authors+1)×i64
//	uaof/uaid   author→articles CSR
//	vkof/vnof   venue key/name offsets      (venues+1)×i64
//	vaof/vaid   venue→articles CSR
//	perm  optional solver-order permutation, articles×i32 forward map
//	      (fwd[orig] = permuted; must be a bijection), written only
//	      when the store carries a non-identity permutation
//
// Every section offset is 8-byte aligned, with zero padding between
// sections. The padding bytes belong to no section and are excluded
// from every CRC. Alignment lets OpenMapped reinterpret the mapped
// file's payloads in place as the Store's int64/int32 columns with
// zero copies.
//
// There is one version. A header stamped with any other is refused
// with ErrCorpusVersion; regenerate the file from JSONL/TSV with
// sarank -save-corpus. The version byte is outside every CRC, so the
// mapped loader still checks alignment itself rather than trusting
// the stamp (see openMapped).
const (
	scorpMagic   = "SCORP"
	scorpVersion = 3
	// scorpAlign is the payload alignment the writer guarantees: wide
	// enough for the widest column element type (int64).
	scorpAlign = 8
	// scorpMaxSections bounds the section table so a hostile header
	// cannot demand an enormous allocation.
	scorpMaxSections = 256
	scorpEntryLen    = 4 + 8 + 8 + 4
	scorpHeaderLen   = len(scorpMagic) + 1 + 2 + 4
)

// SCORP reader errors.
var (
	ErrBadCorpus     = fmt.Errorf("corpus: malformed SCORP file")
	ErrCorpusCRC     = fmt.Errorf("corpus: SCORP section checksum mismatch")
	ErrCorpusVersion = fmt.Errorf("corpus: unsupported SCORP version")
)

var scorpSectionOrder = []string{
	"meta", "arna",
	"akof", "atof", "yrsc", "vnuc",
	"aaof", "aaid", "refo", "refi",
	"ukof", "unof", "uaof", "uaid",
	"vkof", "vnof", "vaof", "vaid",
}

func alignUp(off uint64) uint64 {
	return (off + scorpAlign - 1) &^ uint64(scorpAlign-1)
}

func encodeI64s(xs []int64) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
	}
	return buf
}

func encodeI32s(xs []int32) []byte {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
	}
	return buf
}

func decodeI64s(buf []byte) []int64 {
	xs := make([]int64, len(buf)/8)
	for i := range xs {
		xs[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return xs
}

func decodeI32s(buf []byte) []int32 {
	xs := make([]int32, len(buf)/4)
	for i := range xs {
		xs[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return xs
}

// scorpSections maps a store to its section payloads in file order.
func scorpSections(s *Store) map[string][]byte {
	meta := make([]byte, 32)
	binary.LittleEndian.PutUint64(meta[0:], uint64(s.NumArticles()))
	binary.LittleEndian.PutUint64(meta[8:], uint64(s.NumAuthors()))
	binary.LittleEndian.PutUint64(meta[16:], uint64(s.NumVenues()))
	binary.LittleEndian.PutUint64(meta[24:], uint64(s.citations))
	sections := map[string][]byte{
		"meta": meta,
		"arna": []byte(s.arena),
		"akof": encodeI64s(s.artKeyOff),
		"atof": encodeI64s(s.artTitleOff),
		"yrsc": encodeI32s(s.years),
		"vnuc": encodeI32s(s.venueOf),
		"aaof": encodeI64s(s.artAuthorOff),
		"aaid": encodeI32s(s.artAuthors),
		"refo": encodeI64s(s.refOff),
		"refi": encodeI32s(s.refs),
		"ukof": encodeI64s(s.authorKeyOff),
		"unof": encodeI64s(s.authorNameOff),
		"uaof": encodeI64s(s.authorArtOff),
		"uaid": encodeI32s(s.authorArts),
		"vkof": encodeI64s(s.venueKeyOff),
		"vnof": encodeI64s(s.venueNameOff),
		"vaof": encodeI64s(s.venueArtOff),
		"vaid": encodeI32s(s.venueArts),
	}
	if s.perm != nil {
		sections["perm"] = encodeI32s(s.perm.Fwd())
	}
	return sections
}

// WriteSCORP encodes the store in SCORP format, with 8-byte-aligned
// sections so the file can be served via OpenMapped.
func WriteSCORP(w io.Writer, s *Store) error {
	sections := scorpSections(s)
	order := scorpSectionOrder
	if _, ok := sections["perm"]; ok {
		order = append(append([]string(nil), order...), "perm")
	}
	header := make([]byte, 0, scorpHeaderLen+len(order)*scorpEntryLen)
	header = append(header, scorpMagic...)
	header = append(header, scorpVersion, 0, 0)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(order)))
	offset := uint64(scorpHeaderLen + len(order)*scorpEntryLen)
	offsets := make([]uint64, len(order))
	for i, tag := range order {
		payload := sections[tag]
		offset = alignUp(offset)
		offsets[i] = offset
		header = append(header, tag...)
		header = binary.LittleEndian.AppendUint64(header, offset)
		header = binary.LittleEndian.AppendUint64(header, uint64(len(payload)))
		header = binary.LittleEndian.AppendUint32(header, crc32.ChecksumIEEE(payload))
		offset += uint64(len(payload))
	}
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("corpus: write SCORP header: %w", err)
	}
	pos := uint64(len(header))
	var pad [scorpAlign]byte
	for i, tag := range order {
		if n := offsets[i] - pos; n > 0 {
			if _, err := w.Write(pad[:n]); err != nil {
				return fmt.Errorf("corpus: write SCORP padding: %w", err)
			}
			pos += n
		}
		if _, err := w.Write(sections[tag]); err != nil {
			return fmt.Errorf("corpus: write SCORP section %q: %w", tag, err)
		}
		pos += uint64(len(sections[tag]))
	}
	return nil
}

// scorpEntry is one parsed section-table row.
type scorpEntry struct {
	tag    string
	off    uint64
	length uint64
	crc    uint32
}

// scorpTable is the parsed header: the section table in file order,
// bounds-checked against the file size.
type scorpTable struct {
	entries []scorpEntry
	byTag   map[string]int
}

func (t *scorpTable) lookup(tag string) (scorpEntry, bool) {
	i, ok := t.byTag[tag]
	if !ok {
		return scorpEntry{}, false
	}
	return t.entries[i], true
}

// aligned reports whether every section payload starts on a
// scorpAlign boundary — the precondition for in-place reinterpreting
// a mapped file.
func (t *scorpTable) aligned() bool {
	for _, e := range t.entries {
		if e.off%scorpAlign != 0 {
			return false
		}
	}
	return true
}

// parseSCORPTable parses and bounds-checks the header and section
// table. hdr must hold at least the header and full table; size is
// the total file size the offsets are validated against.
func parseSCORPTable(hdr []byte, size uint64) (*scorpTable, error) {
	if len(hdr) < scorpHeaderLen || string(hdr[:len(scorpMagic)]) != scorpMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCorpus)
	}
	if v := hdr[len(scorpMagic)]; v != scorpVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorpusVersion, v, scorpVersion)
	}
	count := binary.LittleEndian.Uint32(hdr[len(scorpMagic)+3:])
	if count > scorpMaxSections {
		return nil, fmt.Errorf("%w: %d sections", ErrBadCorpus, count)
	}
	tableEnd := scorpHeaderLen + int(count)*scorpEntryLen
	if len(hdr) < tableEnd || uint64(tableEnd) > size {
		return nil, fmt.Errorf("%w: truncated section table", ErrBadCorpus)
	}
	t := &scorpTable{
		entries: make([]scorpEntry, 0, count),
		byTag:   make(map[string]int, count),
	}
	for i := 0; i < int(count); i++ {
		raw := hdr[scorpHeaderLen+i*scorpEntryLen:]
		e := scorpEntry{
			tag:    string(raw[:4]),
			off:    binary.LittleEndian.Uint64(raw[4:]),
			length: binary.LittleEndian.Uint64(raw[12:]),
			crc:    binary.LittleEndian.Uint32(raw[20:]),
		}
		if e.off < uint64(tableEnd) || e.off > size || e.length > size-e.off {
			return nil, fmt.Errorf("%w: section %q out of bounds", ErrBadCorpus, e.tag)
		}
		t.byTag[e.tag] = len(t.entries)
		t.entries = append(t.entries, e)
	}
	return t, nil
}

// sectionSource hands the decoder one verified section payload at a
// time. The returned bytes are only valid until the next call, so the
// decoder copies what it keeps — which is what lets the file-backed
// source reuse one scratch buffer instead of holding the whole image.
type sectionSource interface {
	// payload returns the CRC-verified payload of tag, or ok=false
	// when the section is absent.
	payload(tag string) (buf []byte, ok bool, err error)
}

// memSource serves sections out of a complete in-memory image.
type memSource struct {
	data []byte
	tab  *scorpTable
}

func (m *memSource) payload(tag string) ([]byte, bool, error) {
	e, ok := m.tab.lookup(tag)
	if !ok {
		return nil, false, nil
	}
	return m.data[e.off : e.off+e.length], true, nil
}

// fileSource serves sections straight from an io.ReaderAt through one
// reusable scratch buffer, so a load reads each needed section exactly
// once — no whole-file buffer, no second copy. CRCs are verified per
// section as it is read; ReadSCORPAt checks the sections the decoder
// never asks for separately.
type fileSource struct {
	r       io.ReaderAt
	tab     *scorpTable
	scratch []byte
}

func (f *fileSource) payload(tag string) ([]byte, bool, error) {
	e, ok := f.tab.lookup(tag)
	if !ok {
		return nil, false, nil
	}
	if uint64(cap(f.scratch)) < e.length {
		f.scratch = make([]byte, e.length)
	}
	buf := f.scratch[:e.length]
	if _, err := f.r.ReadAt(buf, int64(e.off)); err != nil {
		return nil, true, fmt.Errorf("corpus: read SCORP section %q: %w", tag, err)
	}
	if crc32.ChecksumIEEE(buf) != e.crc {
		return nil, true, fmt.Errorf("%w: section %q", ErrCorpusCRC, tag)
	}
	return buf, true, nil
}

// ReadSCORP decodes a SCORP corpus from r. Streaming readers buffer
// the whole image first; prefer ReadSCORPFile (or OpenMapped) for
// files, which read section by section.
func ReadSCORP(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("corpus: read SCORP: %w", err)
	}
	return DecodeSCORP(data)
}

// DecodeSCORP decodes a SCORP corpus from an in-memory image. The
// returned store does not retain data. Every listed section's CRC is
// verified, known or not — an in-memory image is cheap to sweep and
// this is the decoder the fuzzer drives with hostile input.
func DecodeSCORP(data []byte) (*Store, error) {
	tab, err := parseSCORPTable(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	for _, e := range tab.entries {
		if crc32.ChecksumIEEE(data[e.off:e.off+e.length]) != e.crc {
			return nil, fmt.Errorf("%w: section %q", ErrCorpusCRC, e.tag)
		}
	}
	return decodeStore(&memSource{data: data, tab: tab})
}

// ReadSCORPAt decodes a SCORP corpus from a random-access reader of
// the given total size, reading the sections the store needs one at a
// time — each straight into a reused scratch buffer and decoded into
// an exactly-sized column, so peak memory is one section plus the
// store itself rather than two copies of the whole file. Listed
// sections the decoder ignores are streamed through their CRC first,
// so it rejects every file DecodeSCORP rejects.
func ReadSCORPAt(r io.ReaderAt, size int64) (*Store, error) {
	tab, err := readSCORPTable(r, size)
	if err != nil {
		return nil, err
	}
	if err := checkIgnoredSections(r, tab); err != nil {
		return nil, err
	}
	return decodeStore(&fileSource{r: r, tab: tab})
}

// checkIgnoredSections CRC-checks every listed section decodeStore
// will not read: an unknown tag, or an entry shadowed by a later one
// with the same tag. WriteSCORP lists none, so real files pay nothing.
func checkIgnoredSections(r io.ReaderAt, tab *scorpTable) error {
	for i, e := range tab.entries {
		if tab.byTag[e.tag] == i && (e.tag == "perm" || slices.Contains(scorpSectionOrder, e.tag)) {
			continue
		}
		h := crc32.NewIEEE()
		if _, err := io.Copy(h, io.NewSectionReader(r, int64(e.off), int64(e.length))); err != nil {
			return fmt.Errorf("corpus: read SCORP section %q: %w", e.tag, err)
		}
		if h.Sum32() != e.crc {
			return fmt.Errorf("%w: section %q", ErrCorpusCRC, e.tag)
		}
	}
	return nil
}

// readSCORPTable reads and parses the header and section table from a
// random-access reader of the given total size.
func readSCORPTable(r io.ReaderAt, size int64) (*scorpTable, error) {
	hdr := make([]byte, scorpHeaderLen)
	if size < int64(scorpHeaderLen) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCorpus)
	}
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("corpus: read SCORP header: %w", err)
	}
	count := binary.LittleEndian.Uint32(hdr[len(scorpMagic)+3:])
	if string(hdr[:len(scorpMagic)]) == scorpMagic && count <= scorpMaxSections {
		table := make([]byte, scorpHeaderLen+int(count)*scorpEntryLen)
		if int64(len(table)) > size {
			return nil, fmt.Errorf("%w: truncated section table", ErrBadCorpus)
		}
		if _, err := r.ReadAt(table, 0); err != nil {
			return nil, fmt.Errorf("corpus: read SCORP section table: %w", err)
		}
		hdr = table
	}
	return parseSCORPTable(hdr, uint64(size))
}

// decodeStore materialises a heap-backed Store from a section source,
// with every structural and semantic invariant re-validated so an
// untrusted file can never index out of bounds.
func decodeStore(src sectionSource) (*Store, error) {
	meta, ok, err := src.payload("meta")
	if err != nil {
		return nil, err
	}
	if !ok || len(meta) != 32 {
		return nil, fmt.Errorf("%w: missing meta section", ErrBadCorpus)
	}
	nArt, nAuth, nVen, citations, err := parseMeta(meta)
	if err != nil {
		return nil, err
	}

	arena, ok, err := src.payload("arna")
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: missing arna section", ErrBadCorpus)
	}
	s := &Store{arena: string(arena), citations: int(citations)}

	section := func(tag string, wantLen uint64) ([]byte, error) {
		sec, ok, err := src.payload(tag)
		if err != nil {
			return nil, err
		}
		if !ok || uint64(len(sec)) != wantLen {
			return nil, fmt.Errorf("%w: section %q length %d, want %d", ErrBadCorpus, tag, len(sec), wantLen)
		}
		return sec, nil
	}
	offsetCol := func(tag string, n uint64) ([]int64, error) {
		sec, err := section(tag, (n+1)*8)
		if err != nil {
			return nil, err
		}
		return decodeI64s(sec), nil
	}
	denseCol := func(tag string, n uint64) ([]int32, error) {
		sec, err := section(tag, n*4)
		if err != nil {
			return nil, err
		}
		return decodeI32s(sec), nil
	}

	load := func(dst *[]int64, tag string, n uint64) {
		if err == nil {
			*dst, err = offsetCol(tag, n)
		}
	}
	loadDense := func(dst *[]int32, tag string, n uint64) {
		if err == nil {
			*dst, err = denseCol(tag, n)
		}
	}
	load(&s.artKeyOff, "akof", nArt)
	load(&s.artTitleOff, "atof", nArt)
	loadDense(&s.years, "yrsc", nArt)
	loadDense(&s.venueOf, "vnuc", nArt)
	load(&s.artAuthorOff, "aaof", nArt)
	load(&s.refOff, "refo", nArt)
	load(&s.authorKeyOff, "ukof", nAuth)
	load(&s.authorNameOff, "unof", nAuth)
	load(&s.authorArtOff, "uaof", nAuth)
	load(&s.venueKeyOff, "vkof", nVen)
	load(&s.venueNameOff, "vnof", nVen)
	load(&s.venueArtOff, "vaof", nVen)
	if err != nil {
		return nil, err
	}
	csrIDs := func(tag string, off []int64) ([]int32, error) {
		n, err := csrIDCount(tag, off)
		if err != nil {
			return nil, err
		}
		return denseCol(tag, n)
	}
	if s.artAuthors, err = csrIDs("aaid", s.artAuthorOff); err != nil {
		return nil, err
	}
	if s.refs, err = csrIDs("refi", s.refOff); err != nil {
		return nil, err
	}
	if s.authorArts, err = csrIDs("uaid", s.authorArtOff); err != nil {
		return nil, err
	}
	if s.venueArts, err = csrIDs("vaid", s.venueArtOff); err != nil {
		return nil, err
	}
	if sec, ok, perr := src.payload("perm"); perr != nil {
		return nil, perr
	} else if ok {
		if uint64(len(sec)) != nArt*4 {
			return nil, fmt.Errorf("%w: section %q length %d, want %d", ErrBadCorpus, "perm", len(sec), nArt*4)
		}
		// The stored permutation is kept verbatim — even an identity one
		// — so re-encoding reproduces the input bytes exactly.
		perm, perr := sparse.NewPermutation(decodeI32s(sec))
		if perr != nil {
			return nil, fmt.Errorf("%w: perm section: %v", ErrBadCorpus, perr)
		}
		s.perm = perm
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseMeta unpacks and range-checks the meta section counts.
func parseMeta(meta []byte) (nArt, nAuth, nVen, citations uint64, err error) {
	nArt = binary.LittleEndian.Uint64(meta[0:])
	nAuth = binary.LittleEndian.Uint64(meta[8:])
	nVen = binary.LittleEndian.Uint64(meta[16:])
	citations = binary.LittleEndian.Uint64(meta[24:])
	const maxCount = 1 << 31
	if nArt > maxCount || nAuth > maxCount || nVen > maxCount || citations > maxCount {
		return 0, 0, 0, 0, fmt.Errorf("%w: counts out of range", ErrBadCorpus)
	}
	return nArt, nAuth, nVen, citations, nil
}

// csrIDCount reads a CSR offset column's final element — the id-array
// length the matching section must have.
func csrIDCount(tag string, off []int64) (uint64, error) {
	last := off[len(off)-1]
	const maxCount = 1 << 31
	if last < 0 || uint64(last) > maxCount {
		return 0, fmt.Errorf("%w: section %q id count %d", ErrBadCorpus, tag, last)
	}
	return uint64(last), nil
}

// validate checks every structural invariant the accessors rely on,
// so a Store decoded from an untrusted file can never index out of
// bounds. Semantic checks (positive years, no self-citations) match
// what the Builder enforces at construction time.
func (s *Store) validate() error {
	arenaLen := int64(len(s.arena))
	stringCol := func(tag string, off []int64) error {
		if off[0] < 0 || off[len(off)-1] > arenaLen {
			return fmt.Errorf("%w: %s offsets outside arena", ErrBadCorpus, tag)
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return fmt.Errorf("%w: %s offsets not monotone at %d", ErrBadCorpus, tag, i)
			}
		}
		return nil
	}
	for _, c := range []struct {
		tag string
		off []int64
	}{
		{"article key", s.artKeyOff}, {"article title", s.artTitleOff},
		{"author key", s.authorKeyOff}, {"author name", s.authorNameOff},
		{"venue key", s.venueKeyOff}, {"venue name", s.venueNameOff},
	} {
		if err := stringCol(c.tag, c.off); err != nil {
			return err
		}
	}
	csr := func(tag string, off []int64, ids []int32, idRange int) error {
		if off[0] != 0 || off[len(off)-1] != int64(len(ids)) {
			return fmt.Errorf("%w: %s CSR spans [%d,%d] over %d ids",
				ErrBadCorpus, tag, off[0], off[len(off)-1], len(ids))
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return fmt.Errorf("%w: %s CSR not monotone at %d", ErrBadCorpus, tag, i)
			}
		}
		for _, id := range ids {
			if int(id) < 0 || int(id) >= idRange {
				return fmt.Errorf("%w: %s id %d with range %d", ErrBadCorpus, tag, id, idRange)
			}
		}
		return nil
	}
	nArt, nAuth, nVen := s.NumArticles(), s.NumAuthors(), s.NumVenues()
	if err := csr("article-author", s.artAuthorOff, s.artAuthors, nAuth); err != nil {
		return err
	}
	if err := csr("reference", s.refOff, s.refs, nArt); err != nil {
		return err
	}
	if err := csr("author-article", s.authorArtOff, s.authorArts, nArt); err != nil {
		return err
	}
	if err := csr("venue-article", s.venueArtOff, s.venueArts, nArt); err != nil {
		return err
	}
	if s.citations != len(s.refs) {
		return fmt.Errorf("%w: %d citations with %d references", ErrBadCorpus, s.citations, len(s.refs))
	}
	for i := 0; i < nArt; i++ {
		if s.years[i] <= 0 {
			return fmt.Errorf("%w: article %d year %d", ErrBadYear, i, s.years[i])
		}
		if v := s.venueOf[i]; v != NoVenue && (v < 0 || int(v) >= nVen) {
			return fmt.Errorf("%w: article %d venue %d", ErrBadID, i, v)
		}
		if s.artKeyOff[i] == s.artKeyOff[i+1] {
			return fmt.Errorf("%w: article %d", ErrEmptyKey, i)
		}
		for _, ref := range s.refs[s.refOff[i]:s.refOff[i+1]] {
			if int(ref) == i {
				return fmt.Errorf("%w: article %d", ErrSelfCitation, i)
			}
		}
	}
	for i := 0; i < nAuth; i++ {
		if s.authorKeyOff[i] == s.authorKeyOff[i+1] {
			return fmt.Errorf("%w: author %d", ErrEmptyKey, i)
		}
	}
	for i := 0; i < nVen; i++ {
		if s.venueKeyOff[i] == s.venueKeyOff[i+1] {
			return fmt.Errorf("%w: venue %d", ErrEmptyKey, i)
		}
	}
	return nil
}

// Verify re-runs the full structural and semantic validation over the
// store's columns — the check the heap loaders perform implicitly.
// Stores opened through OpenMapped skip it at boot to stay O(section
// table); operators who cannot trust a mapped file's provenance can
// call Verify once after opening (it pages the whole corpus in).
func (s *Store) Verify() error { return s.validate() }

// WriteSCORPFile writes the store to path atomically: a temporary
// sibling file is fsynced and renamed over the target, so a
// concurrently booting reader never sees a half-written corpus (the
// same discipline as live.WriteSnapshotFile).
func WriteSCORPFile(path string, s *Store) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".corpus-*")
	if err != nil {
		return fmt.Errorf("corpus: SCORP temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := WriteSCORP(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("corpus: SCORP sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("corpus: SCORP close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("corpus: SCORP rename: %w", err)
	}
	return nil
}

// ReadSCORPFile reads a corpus written by WriteSCORPFile onto the
// heap, section by section. See OpenMapped for the zero-copy boot
// path.
func ReadSCORPFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: open SCORP: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("corpus: stat SCORP: %w", err)
	}
	return ReadSCORPAt(f, fi.Size())
}
