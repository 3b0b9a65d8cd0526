package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scholarrank/internal/container"
	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
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

// TestSnapshotChecksumDetectsCorruption flips one bit in the middle
// of every section: each flip is refused with ErrSnapshotCRC, and the
// error names the section's tag. Flips in the magic, the version and
// the section table are refused too.
func TestSnapshotChecksumDetectsCorruption(t *testing.T) {
	store, sc := rankedFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, Capture(store, sc, 1, 0)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	tab, err := snapshotFormat.ParseTable(raw, uint64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Entries) != 10 {
		t.Fatalf("%d sections, want 10", len(tab.Entries))
	}
	for _, e := range tab.Entries {
		bad := append([]byte(nil), raw...)
		bad[e.Off+e.Len/2] ^= 0x01
		_, err := ReadSnapshot(bytes.NewReader(bad))
		if !errors.Is(err, ErrSnapshotCRC) || !strings.Contains(err.Error(), strconv.Quote(e.Tag)) {
			t.Errorf("flip in %q: err = %v, want ErrSnapshotCRC naming the section", e.Tag, err)
		}
	}
	for _, off := range []int{0, len(snapshotFormat.Magic), container.HeaderLen - 4, container.HeaderLen + 5, container.HeaderLen + 12} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Errorf("corruption at header offset %d not detected", off)
		}
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

// TestReadSnapshotRefusesUnsortedOptions: the writer sorts the option
// keys, so a scor section with a repeated or out-of-order key is
// refused rather than decoded to a bag that re-encodes differently.
func TestReadSnapshotRefusesUnsortedOptions(t *testing.T) {
	for name, keys := range map[string][2]string{
		"repeated":     {"alpha", "alpha"},
		"out-of-order": {"damping", "alpha"},
	} {
		secs, err := goldenSnapshot().sections()
		if err != nil {
			t.Fatal(err)
		}
		scor := binary.LittleEndian.AppendUint32(nil, 2)
		scor = append(scor, container.LE([]float64{0.5, 0.85})...)
		for _, str := range []string{core.DefaultScorer, keys[0], keys[1]} {
			scor = append(binary.LittleEndian.AppendUint32(scor, uint32(len(str))), str...)
		}
		secs[1] = container.Section{Tag: "scor", Data: scor}
		var buf bytes.Buffer
		if err := snapshotFormat.Write(&buf, secs); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s keys: err = %v, want ErrBadSnapshot", name, err)
		}
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

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotOtherVersionsRefused: there is one snapshot version. The
// committed images of the retired varint-stream versions 1 and 3 and a
// valid image re-stamped with any other version are refused with
// ErrSnapshotVers, never decoded as if the layouts matched, and the
// error names the command that regenerates the file.
func TestSnapshotOtherVersionsRefused(t *testing.T) {
	store, sc := rankedFixture(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, Capture(store, sc, 1, 0)); err != nil {
		t.Fatal(err)
	}
	images := map[string][]byte{
		"v1-image": readTestdata(t, "snapshot-v1.srnks"),
		"v3-image": readTestdata(t, "snapshot-v3.srnks"),
	}
	for _, v := range []byte{1, 2, 3, 5} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[len(snapshotFormat.Magic)] = v
		images["stamped-v"+strconv.Itoa(int(v))] = raw
	}
	for name, raw := range images {
		_, err := ReadSnapshot(bytes.NewReader(raw))
		if !errors.Is(err, ErrSnapshotVers) || !strings.Contains(err.Error(), "sarank -save-scores") {
			t.Errorf("%s: err = %v, want ErrSnapshotVers naming sarank -save-scores", name, err)
		}
	}
}

// goldenSnapshot is the fixed snapshot behind testdata/snapshot-v4.srnks:
// 600 articles, with signed zeros, infinities and a NaN among the
// scores, two scorer options, and fixed seq, created and elapsed
// values.
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

// TestSnapshotV4Golden: testdata/snapshot-v4.srnks pins the byte
// format. The writer must reproduce it byte for byte from
// goldenSnapshot, and the reader must decode it back to the same bit
// patterns, NaN, infinities and negative zero included.
func TestSnapshotV4Golden(t *testing.T) {
	want := readTestdata(t, "snapshot-v4.srnks")
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("writer does not reproduce the committed v4 image")
	}
	got, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	gs := goldenSnapshot()
	if got.Seq != gs.Seq || got.CreatedUnix != gs.CreatedUnix || got.Fingerprint != gs.Fingerprint ||
		got.Articles != gs.Articles || got.Citations != gs.Citations ||
		got.Scorer != gs.Scorer || len(got.ScorerOpts) != 2 || got.ScorerOpts["alpha"] != 0.5 || got.ScorerOpts["damping"] != 0.85 ||
		!reflect.DeepEqual(got.PrestigeStats, gs.PrestigeStats) || !reflect.DeepEqual(got.HeteroStats, gs.HeteroStats) {
		t.Errorf("header, options or stats differ: %+v", got)
	}
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, v := range got.vectors() {
		if !slices.EqualFunc(*v, *gs.vectors()[i], bits) {
			t.Errorf("%s differs after decoding", vectorTags[i])
		}
	}
}

// TestWriteSnapshotRefusesWhatReaderRefuses: every shape the reader
// refuses is refused by the writer before a byte is written, so
// WriteSnapshotFile never renames an unreadable snapshot into place.
func TestWriteSnapshotRefusesWhatReaderRefuses(t *testing.T) {
	long := strings.Repeat("k", maxSnapshotStr+1)
	manyOpts := core.ScorerOptions{}
	for i := 0; i <= maxSnapshotStr; i++ {
		manyOpts[strconv.Itoa(i)] = 1
	}
	for name, mutate := range map[string]func(*Snapshot){
		"articles-vs-vectors": func(sn *Snapshot) { sn.Articles++ },
		"ragged-vector":       func(sn *Snapshot) { sn.Percentile = sn.Percentile[1:] },
		"negative-citations":  func(sn *Snapshot) { sn.Citations = -1 },
		"long-scorer":         func(sn *Snapshot) { sn.Scorer = long },
		"long-option-key":     func(sn *Snapshot) { sn.ScorerOpts = core.ScorerOptions{long: 1} },
		"too-many-options":    func(sn *Snapshot) { sn.ScorerOpts = manyOpts },
		"negative-iterations": func(sn *Snapshot) { sn.HeteroStats.Iterations = -1 },
	} {
		sn := goldenSnapshot()
		mutate(sn)
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, sn); !errors.Is(err, ErrBadSnapshot) || buf.Len() != 0 {
			t.Errorf("%s: err = %v after %d bytes, want ErrBadSnapshot before any", name, err, buf.Len())
		}
		dir := t.TempDir()
		if err := WriteSnapshotFile(filepath.Join(dir, "rank.snap"), sn); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: WriteSnapshotFile err = %v, want ErrBadSnapshot", name, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%s: refused write left %v", name, entries)
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

// BenchmarkReadSnapshotFile300k decodes a snapshot file of the bench
// corpus size.
func BenchmarkReadSnapshotFile300k(b *testing.B) {
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
	path := filepath.Join(b.TempDir(), "rank.snap")
	if err := WriteSnapshotFile(path, sn); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(6 * 8 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshotFile(path); err != nil {
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
	f.Add(readTestdata(f, "snapshot-v1.srnks"))
	f.Add(valid.Bytes()[:valid.Len()/2])
	crcFlip := append([]byte(nil), valid.Bytes()...)
	crcFlip[len(crcFlip)-1] ^= 0xff
	f.Add(crcFlip)
	f.Add(readTestdata(f, "snapshot-v4.srnks"))
	f.Add(readTestdata(f, "snapshot-v3.srnks"))
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

// TestFingerprintSensitivity: the fingerprint covers exactly the
// ranking-relevant content. A heap, a mapped and a re-frozen load of
// one file agree; changing any covered field changes it; a title or
// a name edit, and a new solver order, do not.
func TestFingerprintSensitivity(t *testing.T) {
	store, _ := rankedFixture(t)
	base := Fingerprint(store)
	path := filepath.Join(t.TempDir(), "corpus.scorp")
	if err := corpus.WriteSCORPFile(path, store); err != nil {
		t.Fatal(err)
	}
	heap, err := corpus.ReadSCORPFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := corpus.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	// The ingest path: a thawed store grown by a citation or an
	// article, then frozen again, is fingerprinted anew.
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

	for name, s := range map[string]*corpus.Store{
		"heap": heap, "mapped": mapped, "thaw-freeze": mapped.Thaw().Freeze(),
		"no-permutation": store.WithoutSolverPermutation(),
	} {
		if got := Fingerprint(s); got != base {
			t.Errorf("%s: fingerprint %016x, want %016x", name, got, base)
		}
	}

	// rebuild re-creates the fixture through a builder, letting edit
	// change one field on the way.
	type fixture struct {
		authorKey, authorName, venueKey, venueName string
		articles                                   []corpus.Article
	}
	rebuild := func(edit func(*fixture)) *corpus.Store {
		fx := fixture{authorKey: "au", authorName: "Author", venueKey: "v", venueName: "Venue"}
		store.VisitArticles(func(_ corpus.ArticleID, a *corpus.Article) {
			c := *a
			c.Authors = slices.Clone(a.Authors)
			c.Refs = slices.Clone(a.Refs)
			fx.articles = append(fx.articles, c)
		})
		edit(&fx)
		b := corpus.NewBuilder()
		au, err := b.InternAuthor(fx.authorKey, fx.authorName)
		if err != nil {
			t.Fatal(err)
		}
		extra, err := b.InternAuthor("au2", "Second")
		if err != nil {
			t.Fatal(err)
		}
		v, err := b.InternVenue(fx.venueKey, fx.venueName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.InternVenue("v2", "Second"); err != nil {
			t.Fatal(err)
		}
		for _, a := range fx.articles {
			authors := []corpus.AuthorID{au}
			if len(a.Authors) > 1 {
				authors = append(authors, extra)
			}
			venue := v
			if a.Venue != 0 {
				venue = a.Venue
			}
			if _, err := b.AddArticle(corpus.ArticleMeta{Key: a.Key, Title: a.Title, Year: a.Year, Venue: venue, Authors: authors}); err != nil {
				t.Fatal(err)
			}
		}
		for i, a := range fx.articles {
			for _, ref := range a.Refs {
				if err := b.AddCitation(corpus.ArticleID(i), ref); err != nil {
					t.Fatal(err)
				}
			}
		}
		return b.Freeze()
	}
	// The rebuilt fixture carries an extra author and venue, so it has
	// its own baseline.
	same := Fingerprint(rebuild(func(*fixture) {}))
	if Fingerprint(rebuild(func(*fixture) {})) != same {
		t.Fatal("fingerprint is not deterministic")
	}
	for name, edit := range map[string]func(*fixture){
		"year":        func(fx *fixture) { fx.articles[2].Year++ },
		"venue":       func(fx *fixture) { fx.articles[2].Venue = 1 },
		"author list": func(fx *fixture) { fx.articles[2].Authors = append(fx.articles[2].Authors, 1) },
		"ref":         func(fx *fixture) { fx.articles[4].Refs[0] = 3 - fx.articles[4].Refs[0] },
		"article key": func(fx *fixture) { fx.articles[2].Key = "cc" },
		"author key":  func(fx *fixture) { fx.authorKey = "au0" },
		"venue key":   func(fx *fixture) { fx.venueKey = "v0" },
		"new article": func(fx *fixture) {
			fx.articles = append(fx.articles, corpus.Article{Key: "z", Year: 2016, Refs: []corpus.ArticleID{0}})
		},
		"new citation": func(fx *fixture) { fx.articles[4].Refs = append(fx.articles[4].Refs, 0) },
	} {
		if Fingerprint(rebuild(edit)) == same {
			t.Errorf("changing the %s does not change the fingerprint", name)
		}
	}
	for name, edit := range map[string]func(*fixture){
		"title":       func(fx *fixture) { fx.articles[0].Title = "A much longer title than before" },
		"author name": func(fx *fixture) { fx.authorName = "Renamed" },
		"venue name":  func(fx *fixture) { fx.venueName = "Renamed Venue" },
	} {
		if Fingerprint(rebuild(edit)) != same {
			t.Errorf("changing the %s changes the fingerprint", name)
		}
	}
}

// fingerprintCorpus is a generated corpus of n articles.
func fingerprintCorpus(tb testing.TB, n int) *corpus.Store {
	tb.Helper()
	cfg := gen.NewDefaultConfig(n)
	cfg.Seed = 7
	c, err := gen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return c.Store
}

// TestFingerprintAllocation pins that the fingerprint reads the
// columns in place: nothing corpus-sized is allocated.
func TestFingerprintAllocation(t *testing.T) {
	store := fingerprintCorpus(t, 50_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Fingerprint(store)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("Fingerprint of %d articles allocated %d bytes, want < 64 KiB", store.NumArticles(), got)
	}
}

var fingerprint300k = sync.OnceValue(func() *corpus.Store {
	cfg := gen.NewDefaultConfig(300_000)
	cfg.Seed = 7
	c, err := gen.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return c.Store
})

var fingerprintSink uint64

// BenchmarkFingerprint300k digests a generated corpus of the bench
// size (sargen -n 300000 -seed 7).
func BenchmarkFingerprint300k(b *testing.B) {
	store := fingerprint300k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = Fingerprint(store)
	}
}
