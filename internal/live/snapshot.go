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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"scholarrank/internal/container"
	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
)

// A ranking snapshot is a container (package container: a section
// table of tag, offset, length and CRC-32, then 8-byte-aligned
// payloads) with magic "SRNKS" — the same framing as the SCORP corpus.
// Sections (integers little-endian; floats are IEEE-754 bit patterns):
//
//	meta  5×u64: seq, createdUnix, fingerprint, articles, citations
//	scor  scorer name and option bag: u32 nopts | nopts×f64 values |
//	      (1+nopts) × { u32 len | bytes }: the name, then the option
//	      keys in sorted order
//	impo prst popu hetr rawp pctl
//	      importance, prestige, popularity, hetero, raw prestige and
//	      percentile, articles×f64 each
//	psta hsta
//	      prestige and hetero solver stats, 4×u64 each: iterations,
//	      residual, converged (0 or 1), elapsed nanoseconds
//
// Equal snapshots encode to equal bytes. There is one version; any
// other (the varint-stream versions 1 to 3 included) is refused with
// ErrSnapshotVers, and the ranking is regenerated with
// sarank -save-scores.
const (
	// maxSnapshotLen caps vector lengths and iteration counts,
	// protecting the reader from corrupt or hostile counts.
	maxSnapshotLen = 1 << 31
	// maxSnapshotStr caps scorer/option-key lengths, and doubles as the
	// option-bag entry cap.
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
		Fingerprint:   store.Fingerprint(),
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
	if got := store.Fingerprint(); got != sn.Fingerprint {
		return fmt.Errorf("%w: fingerprint %016x, corpus %016x",
			ErrFingerprint, sn.Fingerprint, got)
	}
	return nil
}

// Fingerprint is the corpus fingerprint a snapshot is bound to; see
// corpus.Store.Fingerprint.
func Fingerprint(s *corpus.Store) uint64 { return s.Fingerprint() }

var snapshotFormat = &container.Format{
	Magic: "SRNKS", Version: 4, Regenerate: "sarank -save-scores",
	ErrBad: ErrBadSnapshot, ErrCRC: ErrSnapshotCRC, ErrVersion: ErrSnapshotVers,
}

// vectorTags names the score-vector sections in file order.
var vectorTags = [...]string{"impo", "prst", "popu", "hetr", "rawp", "pctl"}

func (sn *Snapshot) vectors() [len(vectorTags)]*[]float64 {
	return [...]*[]float64{&sn.Importance, &sn.Prestige, &sn.Popularity, &sn.Hetero, &sn.RawPrestige, &sn.Percentile}
}

// check applies the shape limits both the writer and the reader
// enforce, so the writer never produces a file the reader refuses.
func (sn *Snapshot) check() error {
	inRange := func(n int) bool { return n >= 0 && uint64(n) <= maxSnapshotLen }
	if !inRange(sn.Articles) || !inRange(sn.Citations) || !inRange(sn.PrestigeStats.Iterations) || !inRange(sn.HeteroStats.Iterations) {
		return fmt.Errorf("%w: %d articles, %d citations, %d and %d iterations", ErrBadSnapshot,
			sn.Articles, sn.Citations, sn.PrestigeStats.Iterations, sn.HeteroStats.Iterations)
	}
	for i, v := range sn.vectors() {
		if len(*v) != sn.Articles {
			return fmt.Errorf("%w: %d %s scores for %d articles", ErrBadSnapshot, len(*v), vectorTags[i], sn.Articles)
		}
	}
	long := len(sn.Scorer) > maxSnapshotStr || len(sn.ScorerOpts) > maxSnapshotStr
	for k := range sn.ScorerOpts {
		long = long || len(k) > maxSnapshotStr
	}
	if long {
		return fmt.Errorf("%w: scorer name, option count or option key over %d", ErrBadSnapshot, maxSnapshotStr)
	}
	return nil
}

// sections maps a checked snapshot to its container sections. The
// vector payloads alias the snapshot's vectors (see container.LE).
func (sn *Snapshot) sections() ([]container.Section, error) {
	if err := sn.check(); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(sn.ScorerOpts))
	for k := range sn.ScorerOpts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = sn.ScorerOpts[k]
	}
	scor := append(binary.LittleEndian.AppendUint32(nil, uint32(len(keys))), container.LE(vals)...)
	for _, str := range append([]string{sn.Scorer}, keys...) {
		scor = append(binary.LittleEndian.AppendUint32(scor, uint32(len(str))), str...)
	}
	stats := func(st sparse.IterStats) []byte {
		conv := int64(0)
		if st.Converged {
			conv = 1
		}
		return container.LE([]int64{int64(st.Iterations), int64(math.Float64bits(st.Residual)), conv, int64(st.Elapsed)})
	}
	out := []container.Section{
		{Tag: "meta", Data: container.LE([]int64{sn.Seq, sn.CreatedUnix, int64(sn.Fingerprint), int64(sn.Articles), int64(sn.Citations)})},
		{Tag: "scor", Data: scor},
	}
	for i, v := range sn.vectors() {
		out = append(out, container.Section{Tag: vectorTags[i], Data: container.LE(*v)})
	}
	return append(out,
		container.Section{Tag: "psta", Data: stats(sn.PrestigeStats)},
		container.Section{Tag: "hsta", Data: stats(sn.HeteroStats)}), nil
}

// WriteSnapshot writes the snapshot to w. A snapshot the reader would
// refuse is refused with ErrBadSnapshot before a byte is written.
func WriteSnapshot(w io.Writer, sn *Snapshot) error {
	secs, err := sn.sections()
	if err != nil {
		return err
	}
	return snapshotFormat.Write(w, secs)
}

// WriteSnapshotFile writes the snapshot to path atomically: a
// temporary sibling file is fsynced and renamed over the target, so a
// concurrently booting reader never sees a half-written ranking.
func WriteSnapshotFile(path string, sn *Snapshot) error {
	secs, err := sn.sections()
	if err != nil {
		return err
	}
	return snapshotFormat.WriteFile(path, secs)
}

// ReadSnapshot decodes a snapshot written by WriteSnapshot, verifying
// every section's checksum.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("live: read snapshot: %w", err)
	}
	return readSnapshotAt(bytes.NewReader(data), int64(len(data)))
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile,
// section by section.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("live: open snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("live: stat snapshot: %w", err)
	}
	return readSnapshotAt(f, fi.Size())
}

// readSnapshotAt decodes a snapshot through the container reader: each
// section is CRC-checked before it is decoded, the vector lengths are
// checked against the meta counts, and the result passes the writer's
// shape checks.
func readSnapshotAt(r io.ReaderAt, size int64) (*Snapshot, error) {
	rd, err := snapshotFormat.NewReader(r, size)
	if err != nil {
		return nil, err
	}
	section := func(tag string, want uint64) ([]byte, error) {
		b, ok, err := rd.Section(tag)
		if err != nil {
			return nil, err
		}
		if !ok || (want != anyLen && uint64(len(b)) != want) {
			return nil, fmt.Errorf("%w: section %q length %d, want %d", ErrBadSnapshot, tag, len(b), want)
		}
		return b, nil
	}
	b, err := section("meta", 40)
	if err != nil {
		return nil, err
	}
	meta := container.FromLE[int64](b)
	sn := &Snapshot{
		Seq: meta[0], CreatedUnix: meta[1], Fingerprint: uint64(meta[2]),
		Articles: int(meta[3]), Citations: int(meta[4]),
	}
	if b, err = section("scor", anyLen); err != nil {
		return nil, err
	}
	if err := sn.decodeScorer(b); err != nil {
		return nil, err
	}
	for i, dst := range sn.vectors() {
		if b, err = section(vectorTags[i], 8*uint64(sn.Articles)); err != nil {
			return nil, err
		}
		*dst = container.FromLE[float64](b)
	}
	for i, dst := range []*sparse.IterStats{&sn.PrestigeStats, &sn.HeteroStats} {
		if b, err = section([...]string{"psta", "hsta"}[i], 32); err != nil {
			return nil, err
		}
		st := container.FromLE[int64](b)
		*dst = sparse.IterStats{Iterations: int(st[0]), Residual: math.Float64frombits(uint64(st[1])),
			Converged: st[2] != 0, Elapsed: time.Duration(st[3])}
	}
	if err := rd.VerifyUnread(); err != nil {
		return nil, err
	}
	if err := sn.check(); err != nil {
		return nil, err
	}
	return sn, nil
}

// anyLen accepts a section of any length.
const anyLen = math.MaxUint64

// decodeScorer parses the scor section into Scorer and ScorerOpts.
func (sn *Snapshot) decodeScorer(b []byte) error {
	bad := fmt.Errorf("%w: malformed scor section", ErrBadSnapshot)
	if len(b) < 4 {
		return bad
	}
	nopts := uint64(binary.LittleEndian.Uint32(b))
	if uint64(len(b)-4) < 8*nopts {
		return bad
	}
	vals := container.FromLE[float64](b[4 : 4+8*nopts])
	var strs []string
	for b = b[4+8*nopts:]; len(b) > 0; {
		if len(b) < 4 {
			return bad
		}
		n := uint64(binary.LittleEndian.Uint32(b))
		if n > uint64(len(b)-4) {
			return bad
		}
		strs = append(strs, string(b[4:4+n]))
		b = b[4+n:]
	}
	if uint64(len(strs)) != 1+nopts {
		return bad
	}
	sn.Scorer = strs[0]
	for i, k := range strs[1:] {
		// The writer sorts the keys: a repeated or out-of-order key
		// would decode to a bag that re-encodes to other bytes.
		if i > 0 && k <= strs[i] {
			return bad
		}
		if sn.ScorerOpts == nil {
			sn.ScorerOpts = make(core.ScorerOptions, nopts)
		}
		sn.ScorerOpts[k] = vals[i]
	}
	return nil
}
