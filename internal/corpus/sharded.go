package corpus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Multi-shard SCORP layout.
//
// A sharded corpus is a SCORM manifest plus one SCORP v3 file per
// shard. Shard s holds the articles whose *solver* (chronological)
// ids fall in the contiguous range [Lo, Hi) of the partition the
// corpus was written under — the same contiguous ranges the sharded
// damped-walk solver sweeps — stored in solver order, so shard files
// line up with solve-time shards row for row. Each shard file is a
// complete, standalone SCORP corpus: it opens through OpenMapped (or
// any SCORP loader) like any other file, and its own citation CSR
// holds the intra-shard edges relabelled to shard-local ids. Authors
// and venues are replicated in full into every shard so entity ids
// stay global and any single shard resolves its articles without the
// manifest; article and citation data, which dominate corpus size, are
// split without duplication.
//
// Three extra sections ride each shard file's ordinary section table
// (aligned, CRC'd, ignored by readers that do not know the tags):
//
//	shrd  5×u64: shard index, shard count, lo, hi, total articles —
//	      the shard's identity, cross-checked against the manifest
//	xrfo  cross-reference CSR offsets, (hi-lo+1)×i64
//	xrfi  cross-reference target ids, GLOBAL solver ids outside
//	      [lo, hi) — the citation edges that leave the shard
//
// Within an article's reference list the intra-shard targets (in the
// shard's own CSR) precede the cross-shard targets (in xrfo/xrfi);
// relative order within each class is preserved. Assemble therefore
// reproduces the exact citation multiset — which is what ranking
// depends on — but not necessarily the byte-level interleaving of a
// row's targets.
//
// The SCORM manifest binds the shard files together:
//
//	magic "SCORM" | version byte | 2 reserved | u32 shardCount
//	u64 totalArticles | u64 totalAuthors | u64 totalVenues | u64 totalCitations
//	shardCount × { u64 lo | u64 hi | u64 fileSize | u32 fileCRC |
//	               u32 nameLen | name bytes }
//	u32 manifestCRC (IEEE, over every preceding byte)
//
// fileCRC is the CRC-32/IEEE of the whole shard file. OpenShardedSCORP
// checks file sizes at open but not the file CRCs — checksumming every
// shard would page the whole corpus in and defeat the O(1) mapped
// boot; VerifyFiles performs the full sweep on demand, mirroring the
// Store.Verify trust model.
const (
	scormMagic   = "SCORM"
	scormVersion = 1
	// scormMaxShards bounds the shard count so a hostile manifest
	// cannot demand an enormous allocation.
	scormMaxShards = 4096
	// scormMaxName bounds each shard file name.
	scormMaxName    = 255
	scormHeaderLen  = len(scormMagic) + 1 + 2 + 4
	scormTotalsLen  = 4 * 8
	scormEntryFixed = 8 + 8 + 8 + 4 + 4
)

// Sharded-layout errors.
var (
	ErrBadManifest   = errors.New("corpus: malformed SCORM manifest")
	ErrShardMismatch = errors.New("corpus: shard file disagrees with manifest")
)

// ShardEntry describes one shard file within a SCORM manifest.
type ShardEntry struct {
	// Lo and Hi delimit the shard's global solver-id range [Lo, Hi).
	Lo, Hi int
	// Size is the shard file's byte size; CRC is the CRC-32/IEEE of
	// its full contents.
	Size int64
	CRC  uint32
	// File is the shard file's name, relative to the manifest's
	// directory. Path separators are rejected: shards live beside
	// their manifest.
	File string
}

// ShardManifest is the parsed SCORM manifest: corpus-wide totals plus
// one entry per shard, in shard order.
type ShardManifest struct {
	TotalArticles  int
	TotalAuthors   int
	TotalVenues    int
	TotalCitations int
	Shards         []ShardEntry
}

// NumShards returns the number of shards.
func (m *ShardManifest) NumShards() int { return len(m.Shards) }

// Bounds returns the partition boundaries the layout was written
// under: Bounds[s] = Shards[s].Lo and Bounds[NumShards()] =
// TotalArticles — the same shape shard.Plan.Bounds has.
func (m *ShardManifest) Bounds() []int32 {
	out := make([]int32, len(m.Shards)+1)
	for i, e := range m.Shards {
		out[i] = int32(e.Lo)
	}
	out[len(m.Shards)] = int32(m.TotalArticles)
	return out
}

// validate checks the structural invariants shared by the encoder and
// parser: sane totals, 1..scormMaxShards contiguous non-empty ranges
// covering [0, TotalArticles), and plain sibling file names, unique
// per shard.
func (m *ShardManifest) validate() error {
	const maxCount = 1 << 31
	for _, tc := range []struct {
		name string
		v    int
	}{
		{"articles", m.TotalArticles}, {"authors", m.TotalAuthors},
		{"venues", m.TotalVenues}, {"citations", m.TotalCitations},
	} {
		if tc.v < 0 || tc.v > maxCount {
			return fmt.Errorf("%w: total %s %d out of range", ErrBadManifest, tc.name, tc.v)
		}
	}
	if len(m.Shards) < 1 || len(m.Shards) > scormMaxShards {
		return fmt.Errorf("%w: %d shards", ErrBadManifest, len(m.Shards))
	}
	seen := make(map[string]bool, len(m.Shards))
	next := 0
	for i, e := range m.Shards {
		if e.Lo != next || e.Hi <= e.Lo || e.Hi > m.TotalArticles {
			return fmt.Errorf("%w: shard %d covers [%d,%d) after %d of %d articles",
				ErrBadManifest, i, e.Lo, e.Hi, next, m.TotalArticles)
		}
		next = e.Hi
		if e.Size < 0 {
			return fmt.Errorf("%w: shard %d file size %d", ErrBadManifest, i, e.Size)
		}
		name := e.File
		if name == "" || len(name) > scormMaxName || name == "." || name == ".." ||
			strings.ContainsAny(name, "/\\\x00") {
			return fmt.Errorf("%w: shard %d file name %q", ErrBadManifest, i, name)
		}
		if seen[name] {
			return fmt.Errorf("%w: duplicate shard file name %q", ErrBadManifest, name)
		}
		seen[name] = true
	}
	if next != m.TotalArticles {
		return fmt.Errorf("%w: shards cover %d of %d articles", ErrBadManifest, next, m.TotalArticles)
	}
	return nil
}

// EncodeShardManifest serialises the manifest in SCORM format,
// validating it first.
func EncodeShardManifest(m *ShardManifest) ([]byte, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	return encodeShardManifestUnchecked(m), nil
}

// encodeShardManifestUnchecked serialises without validating — split
// out so tests can stamp a correct CRC onto structurally invalid
// manifests and prove the parser's semantic checks reject them.
func encodeShardManifestUnchecked(m *ShardManifest) []byte {
	buf := make([]byte, 0, scormHeaderLen+scormTotalsLen+len(m.Shards)*(scormEntryFixed+24)+4)
	buf = append(buf, scormMagic...)
	buf = append(buf, scormVersion, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Shards)))
	for _, total := range []int{m.TotalArticles, m.TotalAuthors, m.TotalVenues, m.TotalCitations} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(total))
	}
	for _, e := range m.Shards {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Lo))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Hi))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Size))
		buf = binary.LittleEndian.AppendUint32(buf, e.CRC)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.File)))
		buf = append(buf, e.File...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// ParseShardManifest parses and validates a SCORM manifest. Arbitrary
// input yields a valid manifest or an error, never a panic — this is
// the parser the fuzzer drives with hostile bytes.
func ParseShardManifest(data []byte) (*ShardManifest, error) {
	if len(data) < scormHeaderLen+scormTotalsLen+4 || string(data[:len(scormMagic)]) != scormMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	if v := data[len(scormMagic)]; v < 1 || v > scormVersion {
		return nil, fmt.Errorf("%w: SCORM version %d", ErrCorpusVersion, v)
	}
	count := binary.LittleEndian.Uint32(data[len(scormMagic)+3:])
	if count < 1 || count > scormMaxShards {
		return nil, fmt.Errorf("%w: %d shards", ErrBadManifest, count)
	}
	const maxCount = 1 << 31
	pos := scormHeaderLen
	totals := make([]int, 4)
	for i := range totals {
		v := binary.LittleEndian.Uint64(data[pos:])
		if v > maxCount {
			return nil, fmt.Errorf("%w: total %d out of range", ErrBadManifest, v)
		}
		totals[i] = int(v)
		pos += 8
	}
	m := &ShardManifest{
		TotalArticles:  totals[0],
		TotalAuthors:   totals[1],
		TotalVenues:    totals[2],
		TotalCitations: totals[3],
		Shards:         make([]ShardEntry, 0, count),
	}
	body := len(data) - 4 // trailing manifest CRC
	for i := 0; i < int(count); i++ {
		if body-pos < scormEntryFixed {
			return nil, fmt.Errorf("%w: truncated at shard %d", ErrBadManifest, i)
		}
		lo := binary.LittleEndian.Uint64(data[pos:])
		hi := binary.LittleEndian.Uint64(data[pos+8:])
		size := binary.LittleEndian.Uint64(data[pos+16:])
		crc := binary.LittleEndian.Uint32(data[pos+24:])
		nameLen := binary.LittleEndian.Uint32(data[pos+28:])
		pos += scormEntryFixed
		if lo > maxCount || hi > maxCount || size > 1<<62 {
			return nil, fmt.Errorf("%w: shard %d fields out of range", ErrBadManifest, i)
		}
		if nameLen > scormMaxName || body-pos < int(nameLen) {
			return nil, fmt.Errorf("%w: shard %d file name length %d", ErrBadManifest, i, nameLen)
		}
		m.Shards = append(m.Shards, ShardEntry{
			Lo:   int(lo),
			Hi:   int(hi),
			Size: int64(size),
			CRC:  crc,
			File: string(data[pos : pos+int(nameLen)]),
		})
		pos += int(nameLen)
	}
	if pos != body {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadManifest, body-pos)
	}
	if crc32.ChecksumIEEE(data[:pos]) != binary.LittleEndian.Uint32(data[pos:]) {
		return nil, fmt.Errorf("%w: SCORM manifest", ErrCorpusCRC)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// shrdPayload encodes a shard file's identity section.
func shrdPayload(index, count, lo, hi, totalArticles int) []byte {
	buf := make([]byte, 40)
	for i, v := range []int{index, count, lo, hi, totalArticles} {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return buf
}

// buildShardStore extracts the sub-store for solver rows [lo, hi):
// the shard's articles in solver order with intra-shard references
// relabelled local, plus the cross-shard reference CSR in global
// solver ids. The full author and venue tables are replicated so
// entity ids stay global.
func buildShardStore(s *Store, fwd, inv []int32, lo, hi int) (*Store, []int64, []int32, error) {
	b := NewBuilder()
	for i := 0; i < s.NumAuthors(); i++ {
		a := s.Author(AuthorID(i))
		if _, err := b.InternAuthor(a.Key, a.Name); err != nil {
			return nil, nil, nil, fmt.Errorf("corpus: shard author %d: %w", i, err)
		}
	}
	for i := 0; i < s.NumVenues(); i++ {
		v := s.Venue(VenueID(i))
		if _, err := b.InternVenue(v.Key, v.Name); err != nil {
			return nil, nil, nil, fmt.Errorf("corpus: shard venue %d: %w", i, err)
		}
	}
	for g := lo; g < hi; g++ {
		oid := ArticleID(g)
		if inv != nil {
			oid = inv[g]
		}
		a := s.Article(oid)
		if _, err := b.AddArticle(ArticleMeta{
			Key: a.Key, Title: a.Title, Year: a.Year, Venue: a.Venue, Authors: a.Authors,
		}); err != nil {
			return nil, nil, nil, fmt.Errorf("corpus: shard article %d: %w", g, err)
		}
	}
	xoff := make([]int64, 1, hi-lo+1)
	xids := []int32{}
	for g := lo; g < hi; g++ {
		oid := ArticleID(g)
		if inv != nil {
			oid = inv[g]
		}
		for _, ref := range s.Refs(oid) {
			t := int(ref)
			if fwd != nil {
				t = int(fwd[ref])
			}
			if t >= lo && t < hi {
				if err := b.AddCitation(ArticleID(g-lo), ArticleID(t-lo)); err != nil {
					return nil, nil, nil, fmt.Errorf("corpus: shard citation %d->%d: %w", g, t, err)
				}
			} else {
				xids = append(xids, int32(t))
			}
		}
		xoff = append(xoff, int64(len(xids)))
	}
	// The shard's rows already sit in global solver order; the
	// sub-graph permutation Freeze computes would only relabel them
	// for standalone solves, so it is stripped to keep shard files
	// row-aligned with the global partition.
	return b.Freeze().WithoutSolverPermutation(), xoff, xids, nil
}

// writeShardFile writes one shard's SCORP image (with the shrd and
// cross-reference sections appended) atomically to path, returning the
// file's size and whole-file CRC for the manifest.
func writeShardFile(path string, sub *Store, shrd []byte, xoff []int64, xids []int32) (int64, uint32, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".shard-*")
	if err != nil {
		return 0, 0, fmt.Errorf("corpus: shard temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	h := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(tmp, h))
	extra := map[string][]byte{
		"shrd": shrd,
		"xrfo": encodeI64s(xoff),
		"xrfi": encodeI32s(xids),
	}
	if err := writeSCORPExtra(bw, sub, scorpVersion, []string{"shrd", "xrfo", "xrfi"}, extra); err != nil {
		tmp.Close()
		return 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return 0, 0, fmt.Errorf("corpus: shard flush: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, 0, fmt.Errorf("corpus: shard sync: %w", err)
	}
	fi, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, 0, fmt.Errorf("corpus: shard stat: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, 0, fmt.Errorf("corpus: shard close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, 0, fmt.Errorf("corpus: shard rename: %w", err)
	}
	return fi.Size(), h.Sum32(), nil
}

// WriteShardedSCORP splits the store across the given solver-space
// partition bounds (bounds[0] = 0 < bounds[1] < … = NumArticles, the
// shape shard.Plan.Bounds produces) and writes one SCORP v3 file per
// shard next to the manifest at path. Shard files are named
// <stem>-NNNN.scorp after the manifest's stem and each is written
// atomically; the manifest is written last, so a concurrently booting
// reader either sees the complete layout or no manifest at all.
func WriteShardedSCORP(path string, s *Store, bounds []int32) (*ShardManifest, error) {
	n := s.NumArticles()
	if n == 0 {
		return nil, fmt.Errorf("%w: cannot shard an empty corpus", ErrBadManifest)
	}
	if len(bounds) < 2 || bounds[0] != 0 || int(bounds[len(bounds)-1]) != n {
		return nil, fmt.Errorf("%w: bounds %v over %d articles", ErrBadManifest, bounds, n)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("%w: bounds %v not increasing", ErrBadManifest, bounds)
		}
	}
	shards := len(bounds) - 1
	if shards > scormMaxShards {
		return nil, fmt.Errorf("%w: %d shards", ErrBadManifest, shards)
	}
	perm := s.SolverPermutation()
	fwd, inv := perm.Fwd(), perm.Inv()
	dir := filepath.Dir(path)
	stem := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	m := &ShardManifest{
		TotalArticles:  n,
		TotalAuthors:   s.NumAuthors(),
		TotalVenues:    s.NumVenues(),
		TotalCitations: s.NumCitations(),
		Shards:         make([]ShardEntry, 0, shards),
	}
	for i := 0; i < shards; i++ {
		lo, hi := int(bounds[i]), int(bounds[i+1])
		sub, xoff, xids, err := buildShardStore(s, fwd, inv, lo, hi)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s-%04d.scorp", stem, i)
		size, crc, err := writeShardFile(filepath.Join(dir, name),
			sub, shrdPayload(i, shards, lo, hi, n), xoff, xids)
		if err != nil {
			return nil, err
		}
		m.Shards = append(m.Shards, ShardEntry{Lo: lo, Hi: hi, Size: size, CRC: crc, File: name})
	}
	buf, err := EncodeShardManifest(m)
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, ".scorm-*")
	if err != nil {
		return nil, fmt.Errorf("corpus: SCORM temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return nil, fmt.Errorf("corpus: SCORM write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return nil, fmt.Errorf("corpus: SCORM sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return nil, fmt.Errorf("corpus: SCORM close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, fmt.Errorf("corpus: SCORM rename: %w", err)
	}
	return m, nil
}

// ShardedCorpus is an opened multi-shard SCORP layout: the parsed
// manifest plus one independently opened (mapped where possible) Store
// per shard and its heap-decoded cross-reference CSR.
type ShardedCorpus struct {
	manifest *ShardManifest
	dir      string
	stores   []*Store
	xrfOff   [][]int64
	xrfIDs   [][]int32
}

// readShardSections reads and CRC-verifies the shard-specific sections
// of one shard file: the shrd identity payload and the cross-reference
// CSR pair.
func readShardSections(path string) (shrd []byte, xoff []int64, xids []int32, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("corpus: open shard: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("corpus: stat shard: %w", err)
	}
	tab, err := readSCORPTable(f, fi.Size())
	if err != nil {
		return nil, nil, nil, err
	}
	src := &fileSource{r: f, tab: tab}
	read := func(tag string) ([]byte, error) {
		buf, ok, err := src.payload(tag)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: missing %q section", ErrShardMismatch, tag)
		}
		// The source's scratch buffer is reused per call; keep a copy.
		return append([]byte(nil), buf...), nil
	}
	if shrd, err = read("shrd"); err != nil {
		return nil, nil, nil, err
	}
	rawOff, err := read("xrfo")
	if err != nil {
		return nil, nil, nil, err
	}
	rawIDs, err := read("xrfi")
	if err != nil {
		return nil, nil, nil, err
	}
	return shrd, decodeI64s(rawOff), decodeI32s(rawIDs), nil
}

// OpenShardedSCORP opens a multi-shard layout written by
// WriteShardedSCORP: the manifest is parsed and every shard file is
// opened through OpenMapped (falling back to the heap loader exactly
// as single-file opens do) and cross-checked against the manifest —
// file size, article range, replicated entity tables, shard identity
// section, and cross-reference structure. Shard file CRCs are NOT
// verified here (that would page every shard in); call VerifyFiles
// when provenance is in doubt. Close the returned corpus when done.
func OpenShardedSCORP(path string) (*ShardedCorpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: read SCORM manifest: %w", err)
	}
	m, err := ParseShardManifest(data)
	if err != nil {
		return nil, err
	}
	sc := &ShardedCorpus{
		manifest: m,
		dir:      filepath.Dir(path),
		stores:   make([]*Store, 0, len(m.Shards)),
		xrfOff:   make([][]int64, 0, len(m.Shards)),
		xrfIDs:   make([][]int32, 0, len(m.Shards)),
	}
	citations := 0
	for i, e := range m.Shards {
		if err := sc.openShard(i, e, &citations); err != nil {
			sc.Close()
			return nil, err
		}
	}
	if citations != m.TotalCitations {
		sc.Close()
		return nil, fmt.Errorf("%w: shards hold %d citations, manifest says %d",
			ErrShardMismatch, citations, m.TotalCitations)
	}
	return sc, nil
}

// openShard opens and validates one shard file, appending it to the
// corpus and accumulating its citation count.
func (sc *ShardedCorpus) openShard(i int, e ShardEntry, citations *int) error {
	fpath := filepath.Join(sc.dir, e.File)
	fi, err := os.Stat(fpath)
	if err != nil {
		return fmt.Errorf("corpus: stat shard %d: %w", i, err)
	}
	if fi.Size() != e.Size {
		return fmt.Errorf("%w: shard %d file %q is %d bytes, manifest says %d",
			ErrShardMismatch, i, e.File, fi.Size(), e.Size)
	}
	st, err := OpenMapped(fpath)
	if err != nil {
		return fmt.Errorf("corpus: shard %d: %w", i, err)
	}
	sc.stores = append(sc.stores, st) // owned from here; Close unwinds
	rows := e.Hi - e.Lo
	m := sc.manifest
	if st.NumArticles() != rows || st.NumAuthors() != m.TotalAuthors || st.NumVenues() != m.TotalVenues {
		return fmt.Errorf("%w: shard %d holds %d/%d/%d articles/authors/venues, manifest says %d/%d/%d",
			ErrShardMismatch, i, st.NumArticles(), st.NumAuthors(), st.NumVenues(),
			rows, m.TotalAuthors, m.TotalVenues)
	}
	shrd, xoff, xids, err := readShardSections(fpath)
	if err != nil {
		return err
	}
	if len(shrd) != 40 {
		return fmt.Errorf("%w: shard %d shrd section length %d", ErrShardMismatch, i, len(shrd))
	}
	for j, want := range []int{i, len(m.Shards), e.Lo, e.Hi, m.TotalArticles} {
		if got := binary.LittleEndian.Uint64(shrd[8*j:]); got != uint64(want) {
			return fmt.Errorf("%w: shard %d identity field %d is %d, want %d",
				ErrShardMismatch, i, j, got, want)
		}
	}
	if len(xoff) != rows+1 || xoff[0] != 0 || xoff[rows] != int64(len(xids)) {
		return fmt.Errorf("%w: shard %d cross-reference CSR spans [%v] over %d ids",
			ErrShardMismatch, i, len(xoff), len(xids))
	}
	for j := 1; j <= rows; j++ {
		if xoff[j] < xoff[j-1] {
			return fmt.Errorf("%w: shard %d cross-reference offsets not monotone at %d",
				ErrShardMismatch, i, j)
		}
	}
	for _, id := range xids {
		if int(id) < 0 || int(id) >= m.TotalArticles || (int(id) >= e.Lo && int(id) < e.Hi) {
			return fmt.Errorf("%w: shard %d cross-reference target %d outside the other shards",
				ErrShardMismatch, i, id)
		}
	}
	sc.xrfOff = append(sc.xrfOff, xoff)
	sc.xrfIDs = append(sc.xrfIDs, xids)
	*citations += st.NumCitations() + len(xids)
	return nil
}

// Manifest returns the parsed manifest. Read-only.
func (sc *ShardedCorpus) Manifest() *ShardManifest { return sc.manifest }

// NumShards returns the number of shards.
func (sc *ShardedCorpus) NumShards() int { return len(sc.stores) }

// Bounds returns the layout's partition boundaries (see
// ShardManifest.Bounds).
func (sc *ShardedCorpus) Bounds() []int32 { return sc.manifest.Bounds() }

// Shard returns shard s's standalone Store: its articles in global
// solver order, intra-shard citations only. The store is owned by the
// corpus — do not Close it directly.
func (sc *ShardedCorpus) Shard(s int) *Store { return sc.stores[s] }

// Assemble rebuilds the full corpus from the opened shards: articles
// concatenated in global solver order, the replicated author and venue
// tables interned once, and intra- plus cross-shard citations
// restitched. The result is heap-backed and independent of the shard
// mappings; its Freeze-computed solver permutation reflects the new
// (solver-ordered) article labelling — ranking is invariant to that
// relabelling, and article keys carry identity.
func (sc *ShardedCorpus) Assemble() (*Store, error) {
	b := NewBuilder()
	s0 := sc.stores[0]
	for i := 0; i < s0.NumAuthors(); i++ {
		a := s0.Author(AuthorID(i))
		if _, err := b.InternAuthor(a.Key, a.Name); err != nil {
			return nil, fmt.Errorf("corpus: assemble author %d: %w", i, err)
		}
	}
	for i := 0; i < s0.NumVenues(); i++ {
		v := s0.Venue(VenueID(i))
		if _, err := b.InternVenue(v.Key, v.Name); err != nil {
			return nil, fmt.Errorf("corpus: assemble venue %d: %w", i, err)
		}
	}
	for si, st := range sc.stores {
		for j := 0; j < st.NumArticles(); j++ {
			a := st.Article(ArticleID(j))
			if _, err := b.AddArticle(ArticleMeta{
				Key: a.Key, Title: a.Title, Year: a.Year, Venue: a.Venue, Authors: a.Authors,
			}); err != nil {
				return nil, fmt.Errorf("corpus: assemble shard %d article %d: %w", si, j, err)
			}
		}
	}
	for si, st := range sc.stores {
		lo := ArticleID(sc.manifest.Shards[si].Lo)
		xoff, xids := sc.xrfOff[si], sc.xrfIDs[si]
		for j := 0; j < st.NumArticles(); j++ {
			g := lo + ArticleID(j)
			for _, t := range st.Refs(ArticleID(j)) {
				if err := b.AddCitation(g, lo+t); err != nil {
					return nil, fmt.Errorf("corpus: assemble shard %d citation: %w", si, err)
				}
			}
			for _, t := range xids[xoff[j]:xoff[j+1]] {
				if err := b.AddCitation(g, t); err != nil {
					return nil, fmt.Errorf("corpus: assemble shard %d citation: %w", si, err)
				}
			}
		}
	}
	return b.Freeze(), nil
}

// VerifyFiles re-reads every shard file and checks its size and
// whole-file CRC against the manifest — the full-trust sweep the open
// path skips to keep mapped boots O(section table). It pages every
// shard in.
func (sc *ShardedCorpus) VerifyFiles() error {
	for i, e := range sc.manifest.Shards {
		f, err := os.Open(filepath.Join(sc.dir, e.File))
		if err != nil {
			return fmt.Errorf("corpus: verify shard %d: %w", i, err)
		}
		h := crc32.NewIEEE()
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("corpus: verify shard %d: %w", i, err)
		}
		if n != e.Size || h.Sum32() != e.CRC {
			return fmt.Errorf("%w: shard file %q", ErrCorpusCRC, e.File)
		}
	}
	return nil
}

// Close releases every shard store's mapping. The corpus and its
// shards are invalid afterwards.
func (sc *ShardedCorpus) Close() error {
	var first error
	for _, st := range sc.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
