package corpus

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// shardTestStore builds a corpus with every feature the sharded layout
// must carry: authors, venues, a venue-less and author-less article, a
// duplicate citation, a hub cited by everyone, and years out of id
// order so Freeze computes a non-identity solver permutation (the order
// shards are cut in).
func shardTestStore(t testing.TB) *Store {
	t.Helper()
	b := NewBuilder()
	var authors []AuthorID
	for i := 0; i < 3; i++ {
		a, err := b.InternAuthor(fmt.Sprintf("auth%d", i), fmt.Sprintf("Author %d", i))
		if err != nil {
			t.Fatal(err)
		}
		authors = append(authors, a)
	}
	var venues []VenueID
	for i := 0; i < 2; i++ {
		v, err := b.InternVenue(fmt.Sprintf("ven%d", i), fmt.Sprintf("Venue %d", i))
		if err != nil {
			t.Fatal(err)
		}
		venues = append(venues, v)
	}
	const n = 12
	ids := make([]ArticleID, n)
	for i := 0; i < n; i++ {
		meta := ArticleMeta{
			Key:   fmt.Sprintf("p%02d", i),
			Title: fmt.Sprintf("Article %d", i),
			Year:  1995 + i*5%n,
			Venue: venues[i%len(venues)],
		}
		if i%5 == 0 {
			meta.Venue = NoVenue
		}
		if i%4 != 3 {
			meta.Authors = []AuthorID{authors[i%len(authors)], authors[(i+1)%len(authors)]}
		}
		id, err := b.AddArticle(meta)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// The last article is the hub: every other article cites it, and it
	// cites nothing.
	hub := ids[n-1]
	for i := 0; i < n-1; i++ {
		if err := b.AddCitation(ids[i], hub); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := b.AddCitation(ids[i], ids[i-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One duplicate citation: the multiset must survive the round trip.
	if err := b.AddCitation(ids[2], hub); err != nil {
		t.Fatal(err)
	}
	s := b.Freeze()
	if s.SolverPermutation() == nil {
		t.Fatal("test corpus froze with an identity permutation; the sharded round trip needs a real one")
	}
	return s
}

func testManifest() *ShardManifest {
	return &ShardManifest{
		TotalArticles:  12,
		TotalAuthors:   3,
		TotalVenues:    2,
		TotalCitations: 23,
		Shards: []ShardEntry{
			{Lo: 0, Hi: 4, Size: 100, CRC: 0xdeadbeef, File: "c-0000.scorp"},
			{Lo: 4, Hi: 12, Size: 200, CRC: 0xcafef00d, File: "c-0001.scorp"},
		},
	}
}

func TestShardManifestRoundTrip(t *testing.T) {
	m := testManifest()
	buf, err := EncodeShardManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseShardManifest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip changed the manifest:\n got %+v\nwant %+v", got, m)
	}
	if b := got.Bounds(); !reflect.DeepEqual(b, []int32{0, 4, 12}) {
		t.Fatalf("Bounds() = %v", b)
	}
}

func TestParseShardManifestRejects(t *testing.T) {
	valid, err := EncodeShardManifest(testManifest())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), valid...))
	}
	cases := []struct {
		name  string
		input []byte
	}{
		{"empty", nil},
		{"magic only", []byte(scormMagic)},
		{"truncated header", valid[:10]},
		{"truncated entries", valid[:len(valid)-20]},
		{"truncated crc", valid[:len(valid)-2]},
		{"crc flipped", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })},
		{"version zero", mutate(func(b []byte) []byte { b[5] = 0; return b })},
		{"future version", mutate(func(b []byte) []byte { b[5] = 99; return b })},
		{"shard count mismatch", mutate(func(b []byte) []byte { b[8] = 3; return b })},
		{"trailing junk", append(append([]byte(nil), valid...), 0, 0, 0, 0)},
	}
	// Structurally invalid manifests re-encoded with a correct CRC, so
	// the semantic validation (not the checksum) must reject them.
	gap := testManifest()
	gap.Shards[1].Lo = 5
	overlap := testManifest()
	overlap.Shards[1].Lo = 3
	short := testManifest()
	short.Shards[1].Hi = 11
	badName := testManifest()
	badName.Shards[0].File = "../escape.scorp"
	dupName := testManifest()
	dupName.Shards[1].File = dupName.Shards[0].File
	for name, m := range map[string]*ShardManifest{
		"coverage gap": gap, "coverage overlap": overlap, "coverage short": short,
		"path separator in name": badName, "duplicate name": dupName,
	} {
		if buf := encodeRaw(m); buf != nil {
			cases = append(cases, struct {
				name  string
				input []byte
			}{name, buf})
		}
		if _, err := EncodeShardManifest(m); err == nil {
			t.Errorf("%s: EncodeShardManifest accepted an invalid manifest", name)
		}
	}
	for _, tc := range cases {
		if _, err := ParseShardManifest(tc.input); err == nil {
			t.Errorf("%s: ParseShardManifest accepted corrupt input", tc.name)
		}
	}
}

// encodeRaw serialises a manifest without validation, CRC-stamped, so
// the rejection tests can produce structurally invalid images whose
// checksum still passes.
func encodeRaw(m *ShardManifest) []byte {
	v := &ShardManifest{ // bypass: encode a valid shell, then patch
		TotalArticles: m.TotalArticles, TotalAuthors: m.TotalAuthors,
		TotalVenues: m.TotalVenues, TotalCitations: m.TotalCitations,
		Shards: append([]ShardEntry(nil), m.Shards...),
	}
	buf := encodeShardManifestUnchecked(v)
	return buf
}

func TestWriteShardedSCORPValidatesBounds(t *testing.T) {
	s := shardTestStore(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.scorm")
	for name, bounds := range map[string][]int32{
		"nil":            nil,
		"single element": {0},
		"nonzero start":  {1, 12},
		"short coverage": {0, 11},
		"not increasing": {0, 6, 6, 12},
	} {
		if _, err := WriteShardedSCORP(path, s, bounds); err == nil {
			t.Errorf("%s bounds accepted", name)
		}
	}
	if _, err := WriteShardedSCORP(path, NewBuilder().Freeze(), []int32{0}); err == nil {
		t.Error("empty corpus accepted")
	}
}

// articleFingerprint captures one article's identity-keyed content:
// everything the layout must preserve, independent of dense ids.
type articleFingerprint struct {
	Title   string
	Year    int
	Venue   string
	Authors []string
	Refs    []string // sorted multiset of cited article keys
}

func fingerprint(s *Store) map[string]articleFingerprint {
	out := make(map[string]articleFingerprint, s.NumArticles())
	for i := 0; i < s.NumArticles(); i++ {
		a := s.Article(ArticleID(i))
		fp := articleFingerprint{Title: a.Title, Year: a.Year}
		if a.Venue != NoVenue {
			fp.Venue = s.Venue(a.Venue).Key
		}
		for _, au := range a.Authors {
			fp.Authors = append(fp.Authors, s.Author(au).Key)
		}
		for _, r := range a.Refs {
			fp.Refs = append(fp.Refs, s.Key(r))
		}
		sort.Strings(fp.Refs)
		out[a.Key] = fp
	}
	return out
}

func TestShardedSCORPRoundTrip(t *testing.T) {
	s := shardTestStore(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.scorm")
	bounds := []int32{0, 3, 7, 12}
	m, err := WriteShardedSCORP(path, s, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 3 || m.TotalArticles != s.NumArticles() || m.TotalCitations != s.NumCitations() {
		t.Fatalf("manifest %+v does not describe the corpus", m)
	}
	sc, err := OpenShardedSCORP(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if !reflect.DeepEqual(sc.Bounds(), bounds) {
		t.Fatalf("Bounds() = %v, want %v", sc.Bounds(), bounds)
	}
	if err := sc.VerifyFiles(); err != nil {
		t.Fatalf("VerifyFiles on a pristine layout: %v", err)
	}
	fwd := s.SolverPermutation().Fwd()
	inv := s.SolverPermutation().Inv()
	for i := 0; i < sc.NumShards(); i++ {
		sub := sc.Shard(i)
		lo, hi := int(bounds[i]), int(bounds[i+1])
		if sub.NumArticles() != hi-lo {
			t.Fatalf("shard %d holds %d articles, want %d", i, sub.NumArticles(), hi-lo)
		}
		if err := sub.Verify(); err != nil {
			t.Fatalf("shard %d is not a valid standalone store: %v", i, err)
		}
		if sub.SolverPermutation() != nil {
			t.Errorf("shard %d carries a solver permutation; shard rows are already solver-ordered", i)
		}
		// Row j of shard i must be the article at global solver id lo+j.
		for j := 0; j < sub.NumArticles(); j++ {
			want := s.Key(inv[lo+j])
			if got := sub.Key(ArticleID(j)); got != want {
				t.Fatalf("shard %d row %d is %q, want %q", i, j, got, want)
			}
		}
		// Each intra edge stays in range; each cross edge leaves it.
		for j := 0; j < sub.NumArticles(); j++ {
			for _, r := range sub.Refs(ArticleID(j)) {
				if int(r) < 0 || int(r) >= hi-lo {
					t.Fatalf("shard %d intra ref %d out of range", i, r)
				}
			}
		}
	}
	// Every citation of the original store lands in exactly one shard,
	// intra or cross.
	var total int
	for i := 0; i < sc.NumShards(); i++ {
		total += sc.Shard(i).NumCitations() + len(sc.xrfIDs[i])
	}
	if total != s.NumCitations() {
		t.Fatalf("shards hold %d citations, corpus has %d", total, s.NumCitations())
	}
	asm, err := sc.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if asm.NumArticles() != s.NumArticles() || asm.NumAuthors() != s.NumAuthors() ||
		asm.NumVenues() != s.NumVenues() || asm.NumCitations() != s.NumCitations() {
		t.Fatalf("assembled counts %d/%d/%d/%d, want %d/%d/%d/%d",
			asm.NumArticles(), asm.NumAuthors(), asm.NumVenues(), asm.NumCitations(),
			s.NumArticles(), s.NumAuthors(), s.NumVenues(), s.NumCitations())
	}
	if got, want := fingerprint(asm), fingerprint(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("assembled corpus differs from the original:\n got %+v\nwant %+v", got, want)
	}
	// The assembled article order is the original's solver order.
	for g := 0; g < asm.NumArticles(); g++ {
		if got, want := asm.Key(ArticleID(g)), s.Key(inv[g]); got != want {
			t.Fatalf("assembled row %d is %q, want %q", g, got, want)
		}
	}
	_ = fwd
}

func TestShardedSCORPSingleShard(t *testing.T) {
	s := shardTestStore(t)
	path := filepath.Join(t.TempDir(), "one.scorm")
	if _, err := WriteShardedSCORP(path, s, []int32{0, int32(s.NumArticles())}); err != nil {
		t.Fatal(err)
	}
	sc, err := OpenShardedSCORP(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if len(sc.xrfIDs[0]) != 0 {
		t.Fatalf("single shard has %d cross references", len(sc.xrfIDs[0]))
	}
	asm, err := sc.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(asm), fingerprint(s)) {
		t.Fatal("single-shard round trip changed the corpus")
	}
}

func TestOpenShardedSCORPRejectsTampering(t *testing.T) {
	write := func(t *testing.T) (string, *ShardManifest) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "c.scorm")
		m, err := WriteShardedSCORP(path, shardTestStore(t), []int32{0, 5, 12})
		if err != nil {
			t.Fatal(err)
		}
		return path, m
	}
	rewrite := func(t *testing.T, path string, m *ShardManifest) {
		t.Helper()
		buf, err := EncodeShardManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("truncated manifest", func(t *testing.T) {
		path, _ := write(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-8], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardedSCORP(path); err == nil {
			t.Fatal("truncated manifest accepted")
		}
	})
	t.Run("missing shard file", func(t *testing.T) {
		path, m := write(t)
		if err := os.Remove(filepath.Join(filepath.Dir(path), m.Shards[1].File)); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardedSCORP(path); err == nil {
			t.Fatal("missing shard file accepted")
		}
	})
	t.Run("size mismatch", func(t *testing.T) {
		path, m := write(t)
		m.Shards[0].Size++
		rewrite(t, path, m)
		_, err := OpenShardedSCORP(path)
		if !errors.Is(err, ErrShardMismatch) {
			t.Fatalf("size mismatch: err = %v", err)
		}
	})
	t.Run("range mismatch", func(t *testing.T) {
		path, m := write(t)
		m.Shards[0].Hi, m.Shards[1].Lo = 6, 6
		rewrite(t, path, m)
		_, err := OpenShardedSCORP(path)
		if !errors.Is(err, ErrShardMismatch) {
			t.Fatalf("range mismatch: err = %v", err)
		}
	})
	t.Run("swapped shard files", func(t *testing.T) {
		path, m := write(t)
		m.Shards[0].File, m.Shards[1].File = m.Shards[1].File, m.Shards[0].File
		m.Shards[0].Size, m.Shards[1].Size = m.Shards[1].Size, m.Shards[0].Size
		m.Shards[0].CRC, m.Shards[1].CRC = m.Shards[1].CRC, m.Shards[0].CRC
		rewrite(t, path, m)
		if _, err := OpenShardedSCORP(path); err == nil {
			t.Fatal("swapped shard files accepted")
		}
	})
	t.Run("corrupt shard payload", func(t *testing.T) {
		path, m := write(t)
		fpath := filepath.Join(filepath.Dir(path), m.Shards[1].File)
		data, err := os.ReadFile(fpath)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one byte in the last section's payload: past the table,
		// so the open path (which trusts mapped payloads) may still
		// succeed — but the CRC sweep must catch it.
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(fpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sc, err := OpenShardedSCORP(path)
		if err != nil {
			return // heap fallback validated eagerly and refused: also fine
		}
		defer sc.Close()
		if err := sc.VerifyFiles(); !errors.Is(err, ErrCorpusCRC) {
			t.Fatalf("VerifyFiles on a corrupt shard: err = %v", err)
		}
	})
}
