package corpus

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"scholarrank/internal/container"
	"scholarrank/internal/sparse"
)

// SCORP is the on-disk corpus format: a sectioned, checksummed binary
// dump of the Store columns, so a replica boots by copying arrays
// instead of parsing text. It is a container (package container: a
// section table of tag, offset, length and CRC-32, then 8-byte-aligned
// payloads) with magic "SCORP", the same framing as the ranking
// snapshot.
//
// Sections (counts live in "meta"; every array section's byte length
// is cross-checked against the counts before decoding; integers are
// little-endian):
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
// The container's alignment lets OpenMapped reinterpret the mapped
// file's payloads in place as the Store's int64/int32 columns with
// zero copies.
//
// There is one version. A header stamped with any other is refused
// with ErrCorpusVersion; regenerate the file from JSONL/TSV with
// sarank -save-corpus. The version byte is outside every CRC, so the
// mapped loader still checks alignment itself rather than trusting
// the stamp (see openMapped).
var scorpFormat = &container.Format{
	Magic: "SCORP", Version: 3, Regenerate: "sarank -save-corpus",
	ErrBad: ErrBadCorpus, ErrCRC: ErrCorpusCRC, ErrVersion: ErrCorpusVersion,
}

// SCORP reader errors.
var (
	ErrBadCorpus     = fmt.Errorf("corpus: malformed SCORP file")
	ErrCorpusCRC     = fmt.Errorf("corpus: SCORP section checksum mismatch")
	ErrCorpusVersion = fmt.Errorf("corpus: unsupported SCORP version")
)

// scorpSections maps a store to its section payloads in file order.
// The column payloads alias the store's columns (see container.LE).
func scorpSections(s *Store) []container.Section {
	counts := []int64{int64(s.NumArticles()), int64(s.NumAuthors()), int64(s.NumVenues()), int64(s.citations)}
	sections := []container.Section{
		{Tag: "meta", Data: container.LE(counts)},
		{Tag: "arna", Data: []byte(s.arena)},
		{Tag: "akof", Data: container.LE(s.artKeyOff)},
		{Tag: "atof", Data: container.LE(s.artTitleOff)},
		{Tag: "yrsc", Data: container.LE(s.years)},
		{Tag: "vnuc", Data: container.LE(s.venueOf)},
		{Tag: "aaof", Data: container.LE(s.artAuthorOff)},
		{Tag: "aaid", Data: container.LE(s.artAuthors)},
		{Tag: "refo", Data: container.LE(s.refOff)},
		{Tag: "refi", Data: container.LE(s.refs)},
		{Tag: "ukof", Data: container.LE(s.authorKeyOff)},
		{Tag: "unof", Data: container.LE(s.authorNameOff)},
		{Tag: "uaof", Data: container.LE(s.authorArtOff)},
		{Tag: "uaid", Data: container.LE(s.authorArts)},
		{Tag: "vkof", Data: container.LE(s.venueKeyOff)},
		{Tag: "vnof", Data: container.LE(s.venueNameOff)},
		{Tag: "vaof", Data: container.LE(s.venueArtOff)},
		{Tag: "vaid", Data: container.LE(s.venueArts)},
	}
	if s.perm != nil {
		sections = append(sections, container.Section{Tag: "perm", Data: container.LE(s.perm.Fwd())})
	}
	return sections
}

// WriteSCORP encodes the store in SCORP format, with 8-byte-aligned
// sections so the file can be served via OpenMapped.
func WriteSCORP(w io.Writer, s *Store) error {
	return scorpFormat.Write(w, scorpSections(s))
}

// ReadSCORP decodes a SCORP corpus from r. Streaming readers buffer
// the whole image first; prefer ReadSCORPFile (or OpenMapped) for
// files, which read section by section.
func ReadSCORP(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("corpus: read SCORP: %w", err)
	}
	return ReadSCORPAt(bytes.NewReader(data), int64(len(data)))
}

// ReadSCORPAt decodes a SCORP corpus from a random-access reader of
// the given total size, reading the sections the store needs one at a
// time — each straight into a reused scratch buffer and decoded into
// an exactly-sized column, so peak memory is one section plus the
// store itself rather than two copies of the whole file. Every listed
// section is CRC-checked, including tags the decoder does not know,
// and every column is validated.
func ReadSCORPAt(r io.ReaderAt, size int64) (*Store, error) {
	rd, err := scorpFormat.NewReader(r, size)
	if err != nil {
		return nil, err
	}
	s, err := decodeColumns(columnSource{
		section: rd.Section,
		str:     func(b []byte) string { return string(b) },
		i64:     container.FromLE[int64],
		i32:     container.FromLE[int32],
	})
	if err != nil {
		return nil, err
	}
	if err := rd.VerifyUnread(); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// columnSource is how decodeColumns reads SCORP sections and turns
// payloads into columns: the heap loader copies CRC-verified payloads
// out of a container.Reader, the mapped loader aliases the mapping.
type columnSource struct {
	section func(tag string) (payload []byte, ok bool, err error)
	str     func([]byte) string
	i64     func([]byte) []int64
	i32     func([]byte) []int32
}

// maxCount bounds every count a SCORP file states.
const maxCount = 1 << 31

// decodeColumns assembles a Store from a column source, checking that
// every required section is present with the exact byte length the
// meta counts and CSR offsets imply. Full validation is the caller's.
func decodeColumns(src columnSource) (*Store, error) {
	section := func(tag string, wantLen uint64) ([]byte, error) {
		sec, ok, err := src.section(tag)
		if err != nil {
			return nil, err
		}
		if !ok || uint64(len(sec)) != wantLen {
			return nil, fmt.Errorf("%w: section %q length %d, want %d", ErrBadCorpus, tag, len(sec), wantLen)
		}
		return sec, nil
	}
	meta, err := section("meta", 32)
	if err != nil {
		return nil, err
	}
	counts := container.FromLE[int64](meta)
	for _, c := range counts {
		if uint64(c) > maxCount {
			return nil, fmt.Errorf("%w: counts out of range", ErrBadCorpus)
		}
	}
	nArt, nAuth, nVen, citations := uint64(counts[0]), uint64(counts[1]), uint64(counts[2]), counts[3]
	arena, ok, err := src.section("arna")
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: missing arna section", ErrBadCorpus)
	}
	s := &Store{arena: src.str(arena), citations: int(citations)}

	load := func(dst *[]int64, tag string, n uint64) {
		if err == nil {
			var sec []byte
			if sec, err = section(tag, (n+1)*8); err == nil {
				*dst = src.i64(sec)
			}
		}
	}
	loadDense := func(dst *[]int32, tag string, n uint64) {
		if err == nil {
			var sec []byte
			if sec, err = section(tag, n*4); err == nil {
				*dst = src.i32(sec)
			}
		}
	}
	// A CSR id column is as long as its offset column's last element.
	loadIDs := func(dst *[]int32, tag string, off []int64) {
		if err != nil {
			return
		}
		if n := off[len(off)-1]; n < 0 || n > maxCount {
			err = fmt.Errorf("%w: section %q id count %d", ErrBadCorpus, tag, n)
		}
		loadDense(dst, tag, uint64(off[len(off)-1]))
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
	loadIDs(&s.artAuthors, "aaid", s.artAuthorOff)
	loadIDs(&s.refs, "refi", s.refOff)
	loadIDs(&s.authorArts, "uaid", s.authorArtOff)
	loadIDs(&s.venueArts, "vaid", s.venueArtOff)
	if err != nil {
		return nil, err
	}
	if sec, ok, err := src.section("perm"); err != nil {
		return nil, err
	} else if ok {
		if uint64(len(sec)) != nArt*4 {
			return nil, fmt.Errorf("%w: section %q length %d, want %d", ErrBadCorpus, "perm", len(sec), nArt*4)
		}
		// The stored permutation is kept verbatim — even an identity one
		// — so re-encoding reproduces the input bytes exactly.
		// NewPermutation copies its input, so it survives munmap.
		perm, perr := sparse.NewPermutation(src.i32(sec))
		if perr != nil {
			return nil, fmt.Errorf("%w: perm section: %v", ErrBadCorpus, perr)
		}
		s.perm = perm
	}
	return s, nil
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
// concurrently booting reader never sees a half-written corpus.
func WriteSCORPFile(path string, s *Store) error {
	return scorpFormat.WriteFile(path, scorpSections(s))
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
