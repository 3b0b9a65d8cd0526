package live

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// rankedFixture builds a small ranked corpus.
func rankedFixture(t testing.TB) (*corpus.Store, *core.Scores) {
	t.Helper()
	b := corpus.NewBuilder()
	au, _ := b.InternAuthor("au", "Author")
	v, _ := b.InternVenue("v", "Venue")
	var ids []corpus.ArticleID
	for i, year := range []int{1995, 2000, 2005, 2010, 2015} {
		id, err := b.AddArticle(corpus.ArticleMeta{
			Key: string(rune('a' + i)), Title: "T", Year: year,
			Venue: v, Authors: []corpus.AuthorID{au},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := 0; j < i; j++ {
			if err := b.AddCitation(ids[i], ids[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := b.Freeze()
	sc, err := core.Rank(hetnet.Build(s), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s, sc
}

func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	store, sc := rankedFixture(t)
	sn := Capture(store, sc, 7, 1700000000)

	var first bytes.Buffer
	if err := WriteSnapshot(&first, sn); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.CreatedUnix != 1700000000 ||
		got.Fingerprint != sn.Fingerprint ||
		got.Articles != store.NumArticles() || got.Citations != store.NumCitations() {
		t.Errorf("header round trip: %+v", got)
	}
	for name, pair := range map[string][2][]float64{
		"Importance":  {got.Importance, sn.Importance},
		"Prestige":    {got.Prestige, sn.Prestige},
		"Popularity":  {got.Popularity, sn.Popularity},
		"Hetero":      {got.Hetero, sn.Hetero},
		"RawPrestige": {got.RawPrestige, sn.RawPrestige},
		"Percentile":  {got.Percentile, sn.Percentile},
	} {
		if sparse.MaxDiff(pair[0], pair[1]) != 0 {
			t.Errorf("%s not bit-identical", name)
		}
	}
	if got.PrestigeStats.Iterations != sn.PrestigeStats.Iterations ||
		got.PrestigeStats.Residual != sn.PrestigeStats.Residual ||
		got.PrestigeStats.Converged != sn.PrestigeStats.Converged ||
		got.HeteroStats.Iterations != sn.HeteroStats.Iterations {
		t.Errorf("stats round trip: %+v vs %+v", got.PrestigeStats, sn.PrestigeStats)
	}

	// Re-encoding the decoded snapshot must reproduce the bytes.
	var second bytes.Buffer
	if err := WriteSnapshot(&second, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("re-encode is not bit-identical")
	}
}

func TestSnapshotChecksumDetectsCorruption(t *testing.T) {
	store, sc := rankedFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, Capture(store, sc, 1, 0)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, off := range []int{len(snapshotMagic) + 1, len(raw) / 2, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Errorf("corruption at offset %d not detected", off)
		}
	}
	// A flip confined to the payload must surface as a CRC mismatch.
	bad := append([]byte(nil), raw...)
	bad[len(raw)-20] ^= 0x01
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCRC) {
		t.Errorf("payload flip: err = %v, want ErrSnapshotCRC", err)
	}
}

func TestSnapshotBadInputs(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("XXXXX"))); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte{'S', 'R', 'N', 'K', 'S', 99})); !errors.Is(err, ErrSnapshotVers) {
		t.Errorf("bad version: %v", err)
	}
	store, sc := rankedFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, Capture(store, sc, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("truncated: %v", err)
	}
}

// TestSnapshotElapsedRoundTrip checks that the per-phase solver wall
// times persist.
func TestSnapshotElapsedRoundTrip(t *testing.T) {
	store, sc := rankedFixture(t)
	sn := Capture(store, sc, 1, 1700000000)
	sn.PrestigeStats.Elapsed = 1234567 * time.Nanosecond
	sn.HeteroStats.Elapsed = 42 * time.Millisecond

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sn); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.PrestigeStats.Elapsed != sn.PrestigeStats.Elapsed ||
		got.HeteroStats.Elapsed != sn.HeteroStats.Elapsed {
		t.Errorf("elapsed round trip: %v/%v, want %v/%v",
			got.PrestigeStats.Elapsed, got.HeteroStats.Elapsed,
			sn.PrestigeStats.Elapsed, sn.HeteroStats.Elapsed)
	}
}

// snapshotV1Image returns the committed SRNKS version-1 image, written
// once by the retired v1 encoder.
func snapshotV1Image(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/snapshot-v1.srnks")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotOtherVersionsRefused: there is one snapshot version. A
// real v1 image and a valid image re-stamped 1, 2 or 4 are refused
// with ErrSnapshotVers, never decoded as if the layouts matched.
func TestSnapshotOtherVersionsRefused(t *testing.T) {
	store, sc := rankedFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, Capture(store, sc, 1, 0)); err != nil {
		t.Fatal(err)
	}
	images := map[string][]byte{"v1-image": snapshotV1Image(t)}
	for _, v := range []byte{1, 2, 4} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[len(snapshotMagic)] = v
		images["stamped-v"+strconv.Itoa(int(v))] = raw
	}
	for name, raw := range images {
		if _, err := ReadSnapshot(bytes.NewReader(raw)); !errors.Is(err, ErrSnapshotVers) {
			t.Errorf("%s: err = %v, want ErrSnapshotVers", name, err)
		}
	}
}

// goldenSnapshot is the fixed snapshot behind testdata/snapshot-v3.srnks:
// 600 articles, so every vector spans more than one 4 KiB codec block,
// with signed zeros, infinities and a NaN among the scores, and fixed
// seq, created and elapsed values.
func goldenSnapshot() *Snapshot {
	const n = 600
	rng := rand.New(rand.NewSource(3))
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	sn := &Snapshot{
		Seq: 42, CreatedUnix: 1700000000, Fingerprint: 0x0123456789abcdef,
		Articles: n, Citations: 3 * n,
		Scorer: core.DefaultScorer, ScorerOpts: core.ScorerOptions{"damping": 0.85, "alpha": 0.5},
		Importance: vec(), Prestige: vec(), Popularity: vec(), Hetero: vec(),
		RawPrestige: vec(), Percentile: vec(),
		PrestigeStats: sparse.IterStats{Iterations: 2, Residual: 3e-11, Converged: true, Elapsed: 25 * time.Millisecond},
		HeteroStats:   sparse.IterStats{Iterations: 11, Residual: 7e-10, Converged: true, Elapsed: 210 * time.Millisecond},
	}
	sn.Importance[0] = math.Copysign(0, -1)
	sn.Importance[1] = math.Inf(1)
	sn.Prestige[2] = math.Inf(-1)
	sn.Hetero[3] = math.NaN()
	sn.RawPrestige[n-1] = math.SmallestNonzeroFloat64
	return sn
}

func snapshotV3Image(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/snapshot-v3.srnks")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotV3Golden: testdata/snapshot-v3.srnks was written by the
// per-float encoder the block codec replaced. The block writer must
// reproduce it byte for byte, and the block reader must decode it back
// to the same snapshot.
func TestSnapshotV3Golden(t *testing.T) {
	want := snapshotV3Image(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("block writer does not reproduce the committed v3 image")
	}
	got, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	gs := goldenSnapshot()
	if got.Seq != gs.Seq || got.CreatedUnix != gs.CreatedUnix || got.Fingerprint != gs.Fingerprint ||
		got.PrestigeStats.Elapsed != gs.PrestigeStats.Elapsed || got.HeteroStats.Iterations != gs.HeteroStats.Iterations {
		t.Errorf("header or stats differ: %+v", got)
	}
	// Compare bit patterns: Hetero holds a NaN.
	for name, pair := range map[string][2][]float64{
		"Importance": {got.Importance, gs.Importance}, "Prestige": {got.Prestige, gs.Prestige},
		"Popularity": {got.Popularity, gs.Popularity}, "Hetero": {got.Hetero, gs.Hetero},
		"RawPrestige": {got.RawPrestige, gs.RawPrestige}, "Percentile": {got.Percentile, gs.Percentile},
	} {
		if !slices.EqualFunc(pair[0], pair[1], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%s differs after decoding", name)
		}
	}
}

// BenchmarkWriteSnapshot300k encodes a snapshot of the bench corpus
// size.
func BenchmarkWriteSnapshot300k(b *testing.B) {
	const n = 300_000
	rng := rand.New(rand.NewSource(1))
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	sn := &Snapshot{
		Articles: n, Scorer: core.DefaultScorer,
		Importance: vec(), Prestige: vec(), Popularity: vec(), Hetero: vec(),
		RawPrestige: vec(), Percentile: vec(),
	}
	b.SetBytes(6 * 8 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteSnapshot(io.Discard, sn); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzReadSnapshot drives the decoder sarserve -scores feeds with
// bytes from outside the process (typically another replica's GET
// /admin/snapshot): arbitrary input must yield an error or a snapshot
// that survives WriteSnapshot∘ReadSnapshot unchanged — never a panic.
func FuzzReadSnapshot(f *testing.F) {
	store, sc := rankedFixture(f)
	var valid bytes.Buffer
	if err := WriteSnapshot(&valid, Capture(store, sc, 7, 1700000000)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(snapshotV1Image(f))
	f.Add(valid.Bytes()[:valid.Len()/2])
	crcFlip := append([]byte(nil), valid.Bytes()...)
	crcFlip[len(crcFlip)-1] ^= 0xff
	f.Add(crcFlip)
	f.Add(snapshotV3Image(f))
	f.Fuzz(func(t *testing.T, input []byte) {
		sn, err := ReadSnapshot(bytes.NewReader(input))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteSnapshot(&out, sn); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		sn2, err := ReadSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// Compare encodings, not structs: scores may be NaN.
		var again bytes.Buffer
		if err := WriteSnapshot(&again, sn2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("round trip changed the snapshot")
		}
	})
}

func TestSnapshotMatches(t *testing.T) {
	store, sc := rankedFixture(t)
	sn := Capture(store, sc, 1, 0)
	if err := sn.Matches(store); err != nil {
		t.Errorf("self match: %v", err)
	}
	cb := store.Thaw()
	if err := sn.Matches(cb.Freeze()); err != nil {
		t.Errorf("clone match: %v", err)
	}
	a, _ := cb.ArticleByKey("a")
	e, _ := cb.ArticleByKey("e")
	if err := cb.AddCitation(a, e); err != nil {
		t.Fatal(err)
	}
	if err := sn.Matches(cb.Freeze()); !errors.Is(err, ErrFingerprint) {
		t.Errorf("mutated corpus: err = %v, want ErrFingerprint", err)
	}
}

func TestSnapshotScoresView(t *testing.T) {
	store, sc := rankedFixture(t)
	sn := Capture(store, sc, 1, 0)
	back := sn.Scores()
	if sparse.MaxDiff(back.Importance, sc.Importance) != 0 ||
		sparse.MaxDiff(back.RawPrestige, sc.RawPrestige) != 0 {
		t.Error("Scores() does not round-trip the vectors")
	}
	if back.PrestigeStats.Iterations != sc.PrestigeStats.Iterations {
		t.Error("Scores() drops stats")
	}
	// Percentiles descend with rank: the top article holds 1.0.
	top, bottom := 0.0, 2.0
	for _, p := range sn.Percentile {
		if p > top {
			top = p
		}
		if p < bottom {
			bottom = p
		}
	}
	if top != 1 || bottom != 0 {
		t.Errorf("percentile range [%v, %v], want [0, 1]", bottom, top)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	store, sc := rankedFixture(t)
	sn := Capture(store, sc, 3, 42)
	path := filepath.Join(t.TempDir(), "rank.snap")
	if err := WriteSnapshotFile(path, sn); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || got.Fingerprint != sn.Fingerprint {
		t.Errorf("file round trip: %+v", got)
	}
	if err := got.Matches(store); err != nil {
		t.Error(err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	store, _ := rankedFixture(t)
	base := Fingerprint(store)
	if Fingerprint(store.Thaw().Freeze()) != base {
		t.Error("thaw+freeze changes fingerprint")
	}
	cb := store.Thaw()
	a, _ := cb.ArticleByKey("a")
	e, _ := cb.ArticleByKey("e")
	if err := cb.AddCitation(a, e); err != nil {
		t.Fatal(err)
	}
	if Fingerprint(cb.Freeze()) == base {
		t.Error("new citation does not change fingerprint")
	}
	ab := store.Thaw()
	if _, err := ab.AddArticle(corpus.ArticleMeta{Key: "z", Year: 2016, Venue: corpus.NoVenue}); err != nil {
		t.Fatal(err)
	}
	if Fingerprint(ab.Freeze()) == base {
		t.Error("new article does not change fingerprint")
	}
}
