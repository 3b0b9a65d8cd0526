// Package live makes the ranking a versioned, updatable artifact
// instead of a startup side effect. It provides the three building
// blocks of a serving pipeline that follows a growing corpus:
//
//   - Snapshot, a checksummed binary encoding of one complete ranking
//     (scores, signal components, percentiles, convergence stats)
//     bound to its corpus by a fingerprint, so a ranking computed
//     offline by sarank boots a sarserve in milliseconds;
//   - ApplyDelta, which folds a JSONL batch of new articles and
//     citations into a corpus clone, the copy-on-write step before a
//     warm-start re-solve;
//   - spool-directory scanning, the file-drop ingestion channel for
//     deployments where deltas arrive as files rather than HTTP
//     bodies.
package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
)

// Snapshot binary format:
//
//	magic "SRNKS" | version byte | payload | crc32(payload) BE uint32
//
// payload (integers are unsigned varints; floats are 8-byte big-endian
// IEEE-754 bit patterns):
//
//	seq createdUnix fingerprint(8B) articles citations
//	scorer(string) nopts { key(string) value(8B) }×nopts
//	n  importance[n] prestige[n] popularity[n] hetero[n]
//	   rawPrestige[n] percentile[n]
//	prestigeStats heteroStats   (each: iterations residual(8B) converged
//	                             elapsedNanos)
//
// Strings are a uvarint length followed by raw bytes. Option keys are
// written in sorted order, so equal snapshots encode to equal bytes.
//
// There is one version; any other is refused with ErrSnapshotVers and
// the ranking is regenerated with sarank -save-scores.
const (
	snapshotMagic   = "SRNKS"
	snapshotVersion = 3
	// maxSnapshotLen caps decoded vector lengths, protecting the
	// reader from corrupt or hostile length prefixes.
	maxSnapshotLen = 1 << 31
	// maxSnapshotStr caps decoded scorer/option-key lengths, and
	// doubles as the option-bag entry cap.
	maxSnapshotStr = 1 << 10
)

// Snapshot errors.
var (
	ErrBadSnapshot  = errors.New("live: invalid ranking snapshot")
	ErrSnapshotCRC  = errors.New("live: ranking snapshot checksum mismatch")
	ErrSnapshotVers = errors.New("live: unsupported ranking snapshot version")
	ErrFingerprint  = errors.New("live: snapshot does not match corpus")
)

// Snapshot is one complete ranking of a corpus at a point in time: the
// persistent, versioned form of a core.Scores plus the derived
// percentiles and the identity of the corpus it was solved on.
type Snapshot struct {
	// Seq is the generation sequence number assigned by the producer
	// (0 for a one-shot offline ranking).
	Seq int64
	// CreatedUnix is the ranking time, seconds since the epoch.
	CreatedUnix int64
	// Fingerprint identifies the corpus the ranking was solved on;
	// see Fingerprint.
	Fingerprint uint64
	// Articles and Citations are the corpus dimensions at ranking
	// time, a cheap first-line consistency check.
	Articles  int
	Citations int

	// Scorer is the registry name of the scorer that produced the
	// ranking, and ScorerOpts its option bag (nil when defaults).
	Scorer     string
	ScorerOpts core.ScorerOptions

	// Importance, Prestige, Popularity, Hetero and RawPrestige mirror
	// core.Scores. Percentile[i] is article i's rank percentile in
	// [0, 1] by descending importance.
	Importance  []float64
	Prestige    []float64
	Popularity  []float64
	Hetero      []float64
	RawPrestige []float64
	Percentile  []float64

	// PrestigeStats and HeteroStats report solver convergence
	// (residual traces are not persisted).
	PrestigeStats sparse.IterStats
	HeteroStats   sparse.IterStats
}

// Capture builds a snapshot of scores as solved on store. Component
// vectors a scorer did not compute (non-default scorers leave them
// nil) are stored as zeros, keeping the on-disk layout rectangular.
func Capture(store *corpus.Store, sc *core.Scores, seq, createdUnix int64) *Snapshot {
	n := store.NumArticles()
	pct := make([]float64, n)
	if n == 1 {
		pct[0] = 1
	} else if n > 1 {
		for p, i := range rank.TopK(sc.Importance, n) {
			pct[i] = 1 - float64(p)/float64(n-1)
		}
	}
	scorer := sc.Scorer
	if scorer == "" {
		scorer = core.DefaultScorer
	}
	return &Snapshot{
		Seq:           seq,
		CreatedUnix:   createdUnix,
		Fingerprint:   Fingerprint(store),
		Articles:      n,
		Citations:     store.NumCitations(),
		Scorer:        scorer,
		ScorerOpts:    sc.ScorerOpts.Clone(),
		Importance:    sparse.Clone(sc.Importance),
		Prestige:      componentOrZeros(sc.Prestige, n),
		Popularity:    componentOrZeros(sc.Popularity, n),
		Hetero:        componentOrZeros(sc.Hetero, n),
		RawPrestige:   componentOrZeros(sc.RawPrestige, n),
		Percentile:    pct,
		PrestigeStats: statsSansTrace(sc.PrestigeStats),
		HeteroStats:   statsSansTrace(sc.HeteroStats),
	}
}

// componentOrZeros clones a component vector, substituting zeros when
// the scorer left it nil.
func componentOrZeros(v []float64, n int) []float64 {
	if v == nil {
		return make([]float64, n)
	}
	return sparse.Clone(v)
}

func statsSansTrace(st sparse.IterStats) sparse.IterStats {
	st.ResidualTrace = nil
	return st
}

// Scores reconstitutes the core.Scores view of the snapshot. The
// slices are shared with the snapshot, not copied.
func (sn *Snapshot) Scores() *core.Scores {
	scorer := sn.Scorer
	if scorer == "" {
		scorer = core.DefaultScorer
	}
	return &core.Scores{
		Importance:    sn.Importance,
		Prestige:      sn.Prestige,
		Popularity:    sn.Popularity,
		Hetero:        sn.Hetero,
		RawPrestige:   sn.RawPrestige,
		PrestigeStats: sn.PrestigeStats,
		HeteroStats:   sn.HeteroStats,
		Scorer:        scorer,
		ScorerOpts:    sn.ScorerOpts.Clone(),
	}
}

// Matches verifies that the snapshot was solved on exactly this
// corpus, by dimension and fingerprint.
func (sn *Snapshot) Matches(store *corpus.Store) error {
	if sn.Articles != store.NumArticles() {
		return fmt.Errorf("%w: snapshot ranks %d articles, corpus has %d",
			ErrFingerprint, sn.Articles, store.NumArticles())
	}
	if got := Fingerprint(store); got != sn.Fingerprint {
		return fmt.Errorf("%w: fingerprint %016x, corpus %016x",
			ErrFingerprint, sn.Fingerprint, got)
	}
	return nil
}

// Fingerprint hashes the ranking-relevant content of a corpus — every
// article's key, year, venue, authors and citations, plus the
// author/venue key tables — into a 64-bit FNV-1a digest. Two stores
// with equal fingerprints produce identical rankings under identical
// options, which is what binds a Snapshot to its corpus.
func Fingerprint(s *corpus.Store) uint64 {
	h := fnv.New64a()
	var scratch [binary.MaxVarintLen64]byte
	writeInt := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		h.Write(scratch[:n])
	}
	writeStr := func(str string) {
		writeInt(uint64(len(str)))
		io.WriteString(h, str)
	}
	writeInt(uint64(s.NumAuthors()))
	for i := 0; i < s.NumAuthors(); i++ {
		writeStr(s.Author(corpus.AuthorID(i)).Key)
	}
	writeInt(uint64(s.NumVenues()))
	for i := 0; i < s.NumVenues(); i++ {
		writeStr(s.Venue(corpus.VenueID(i)).Key)
	}
	writeInt(uint64(s.NumArticles()))
	s.VisitArticles(func(id corpus.ArticleID, a *corpus.Article) {
		writeStr(a.Key)
		writeInt(uint64(a.Year))
		writeInt(uint64(a.Venue + 1))
		writeInt(uint64(len(a.Authors)))
		for _, au := range a.Authors {
			writeInt(uint64(au))
		}
		writeInt(uint64(len(a.Refs)))
		for _, ref := range a.Refs {
			writeInt(uint64(ref))
		}
	})
	return h.Sum64()
}

// crcWriter tees writes into a CRC32.
type crcWriter struct {
	w     *bufio.Writer
	crc   uint32
	block [vectorBlock]byte
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

func (cw *crcWriter) uvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := cw.Write(buf[:n])
	return err
}

func (cw *crcWriter) float(f float64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(f))
	_, err := cw.Write(buf[:])
	return err
}

func (cw *crcWriter) string(s string) error {
	if err := cw.uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(cw, s)
	return err
}

// vectorBlock is the byte size of the blocks score vectors are encoded
// and decoded in: one CRC update and one buffered write or read per
// 512 floats instead of per float.
const vectorBlock = 4096

// vector encodes v one block at a time. The bytes are the same as one
// float call per element.
func (cw *crcWriter) vector(v []float64) error {
	buf := cw.block[:]
	for len(v) > 0 {
		m := min(len(v), vectorBlock/8)
		for i, f := range v[:m] {
			binary.BigEndian.PutUint64(buf[8*i:], math.Float64bits(f))
		}
		if _, err := cw.Write(buf[:8*m]); err != nil {
			return err
		}
		v = v[m:]
	}
	return nil
}

func (cw *crcWriter) stats(st sparse.IterStats) error {
	if err := cw.uvarint(uint64(st.Iterations)); err != nil {
		return err
	}
	if err := cw.float(st.Residual); err != nil {
		return err
	}
	b := byte(0)
	if st.Converged {
		b = 1
	}
	if _, err := cw.Write([]byte{b}); err != nil {
		return err
	}
	return cw.uvarint(uint64(st.Elapsed))
}

// WriteSnapshot writes the snapshot to w in the checksummed binary
// format.
func WriteSnapshot(w io.Writer, sn *Snapshot) error {
	n := len(sn.Importance)
	for _, v := range [][]float64{sn.Prestige, sn.Popularity, sn.Hetero, sn.RawPrestige, sn.Percentile} {
		if len(v) != n {
			return fmt.Errorf("%w: ragged score vectors", ErrBadSnapshot)
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("live: write snapshot: %w", err)
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return fmt.Errorf("live: write snapshot: %w", err)
	}
	cw := &crcWriter{w: bw}
	err := func() error {
		if err := cw.uvarint(uint64(sn.Seq)); err != nil {
			return err
		}
		if err := cw.uvarint(uint64(sn.CreatedUnix)); err != nil {
			return err
		}
		var fp [8]byte
		binary.BigEndian.PutUint64(fp[:], sn.Fingerprint)
		if _, err := cw.Write(fp[:]); err != nil {
			return err
		}
		if err := cw.uvarint(uint64(sn.Articles)); err != nil {
			return err
		}
		if err := cw.uvarint(uint64(sn.Citations)); err != nil {
			return err
		}
		if err := cw.string(sn.Scorer); err != nil {
			return err
		}
		keys := make([]string, 0, len(sn.ScorerOpts))
		for k := range sn.ScorerOpts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if err := cw.uvarint(uint64(len(keys))); err != nil {
			return err
		}
		for _, k := range keys {
			if err := cw.string(k); err != nil {
				return err
			}
			if err := cw.float(sn.ScorerOpts[k]); err != nil {
				return err
			}
		}
		if err := cw.uvarint(uint64(n)); err != nil {
			return err
		}
		for _, v := range [][]float64{sn.Importance, sn.Prestige, sn.Popularity, sn.Hetero, sn.RawPrestige, sn.Percentile} {
			if err := cw.vector(v); err != nil {
				return err
			}
		}
		if err := cw.stats(sn.PrestigeStats); err != nil {
			return err
		}
		return cw.stats(sn.HeteroStats)
	}()
	if err != nil {
		return fmt.Errorf("live: write snapshot: %w", err)
	}
	var crcBuf [4]byte
	binary.BigEndian.PutUint32(crcBuf[:], cw.crc)
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return fmt.Errorf("live: write snapshot: %w", err)
	}
	return bw.Flush()
}

// crcReader tees reads into a CRC32.
type crcReader struct {
	r     *bufio.Reader
	crc   uint32
	block [vectorBlock]byte
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.crc = crc32.Update(cr.crc, crc32.IEEETable, []byte{b})
	}
	return b, err
}

func (cr *crcReader) full(buf []byte) error {
	if _, err := io.ReadFull(cr.r, buf); err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, buf)
	return nil
}

func (cr *crcReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(cr)
	if err != nil {
		return 0, fmt.Errorf("%w: varint: %w", ErrBadSnapshot, err)
	}
	return v, nil
}

func (cr *crcReader) float() (float64, error) {
	var buf [8]byte
	if err := cr.full(buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf[:])), nil
}

func (cr *crcReader) string() (string, error) {
	l, err := cr.uvarint()
	if err != nil {
		return "", err
	}
	if l > maxSnapshotStr {
		return "", fmt.Errorf("%w: %d-byte string", ErrBadSnapshot, l)
	}
	buf := make([]byte, l)
	if err := cr.full(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// vector reads n floats, a block at a time. The slice grows with the
// bytes actually read, so a hostile length prefix (n is only capped at
// maxSnapshotLen) cannot demand more memory than the input holds.
func (cr *crcReader) vector(n int) ([]float64, error) {
	out := make([]float64, 0, min(n, 4096))
	buf := cr.block[:]
	for len(out) < n {
		m := min(n-len(out), vectorBlock/8)
		if err := cr.full(buf[:8*m]); err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			out = append(out, math.Float64frombits(binary.BigEndian.Uint64(buf[8*i:])))
		}
	}
	return out, nil
}

func (cr *crcReader) stats() (sparse.IterStats, error) {
	var st sparse.IterStats
	iters, err := cr.uvarint()
	if err != nil {
		return st, err
	}
	if iters > maxSnapshotLen {
		return st, fmt.Errorf("%w: %d iterations", ErrBadSnapshot, iters)
	}
	st.Iterations = int(iters)
	if st.Residual, err = cr.float(); err != nil {
		return st, err
	}
	conv, err := cr.ReadByte()
	if err != nil {
		return st, fmt.Errorf("%w: converged flag: %w", ErrBadSnapshot, err)
	}
	st.Converged = conv != 0
	ns, err := cr.uvarint()
	if err != nil {
		return st, err
	}
	st.Elapsed = time.Duration(ns)
	return st, nil
}

// ReadSnapshot decodes a snapshot written by WriteSnapshot, verifying
// the checksum.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: magic: %w", ErrBadSnapshot, err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadSnapshot, magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: version: %w", ErrBadSnapshot, err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: %d, want %d", ErrSnapshotVers, version, snapshotVersion)
	}
	cr := &crcReader{r: br}
	sn, err := readSnapshotPayload(cr)
	if err != nil {
		return nil, err
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum: %w", ErrBadSnapshot, err)
	}
	if binary.BigEndian.Uint32(crcBuf[:]) != cr.crc {
		return nil, ErrSnapshotCRC
	}
	return sn, nil
}

func readSnapshotPayload(cr *crcReader) (*Snapshot, error) {
	sn := &Snapshot{}
	seq, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	sn.Seq = int64(seq)
	created, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	sn.CreatedUnix = int64(created)
	var fp [8]byte
	if err := cr.full(fp[:]); err != nil {
		return nil, err
	}
	sn.Fingerprint = binary.BigEndian.Uint64(fp[:])
	articles, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	citations, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if articles > maxSnapshotLen || citations > maxSnapshotLen {
		return nil, fmt.Errorf("%w: %d articles, %d citations", ErrBadSnapshot, articles, citations)
	}
	sn.Articles = int(articles)
	sn.Citations = int(citations)
	if sn.Scorer, err = cr.string(); err != nil {
		return nil, err
	}
	nopts, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if nopts > maxSnapshotStr {
		return nil, fmt.Errorf("%w: %d scorer options", ErrBadSnapshot, nopts)
	}
	if nopts > 0 {
		sn.ScorerOpts = make(core.ScorerOptions, nopts)
		for i := uint64(0); i < nopts; i++ {
			k, err := cr.string()
			if err != nil {
				return nil, err
			}
			v, err := cr.float()
			if err != nil {
				return nil, err
			}
			sn.ScorerOpts[k] = v
		}
	}
	n, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSnapshotLen || int(n) != sn.Articles {
		return nil, fmt.Errorf("%w: %d scores for %d articles", ErrBadSnapshot, n, sn.Articles)
	}
	for _, dst := range []*[]float64{&sn.Importance, &sn.Prestige, &sn.Popularity, &sn.Hetero, &sn.RawPrestige, &sn.Percentile} {
		v, err := cr.vector(int(n))
		if err != nil {
			return nil, err
		}
		*dst = v
	}
	if sn.PrestigeStats, err = cr.stats(); err != nil {
		return nil, err
	}
	if sn.HeteroStats, err = cr.stats(); err != nil {
		return nil, err
	}
	return sn, nil
}

// WriteSnapshotFile writes the snapshot to path atomically: a
// temporary sibling file is fsynced and renamed over the target, so a
// concurrently booting reader never sees a half-written ranking.
func WriteSnapshotFile(path string, sn *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("live: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := WriteSnapshot(tmp, sn); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("live: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("live: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("live: snapshot rename: %w", err)
	}
	return nil
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("live: open snapshot: %w", err)
	}
	defer f.Close()
	return ReadSnapshot(f)
}
