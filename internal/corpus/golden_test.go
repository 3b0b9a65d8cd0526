package corpus

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// goldenStore is the corpus behind testdata/golden-v3.scorp: authors
// and venues with names, titles (one empty), an article without venue
// or authors, and the oldest article added last, so the file carries a
// perm section.
func goldenStore(t testing.TB) *Store {
	t.Helper()
	b := NewBuilder()
	ada, _ := b.InternAuthor("ada", "Ada Lovelace")
	bob, _ := b.InternAuthor("bob", "Bob")
	icde, _ := b.InternVenue("icde", "ICDE")
	kdd, _ := b.InternVenue("kdd", "KDD")
	add := func(key, title string, year int, venue VenueID, authors ...AuthorID) ArticleID {
		id, err := b.AddArticle(ArticleMeta{Key: key, Title: title, Year: year, Venue: venue, Authors: authors})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	p1 := add("p1", "Ranking articles", 2003, icde, ada, bob)
	p2 := add("p2", "Random walks", 2005, kdd, bob)
	p3 := add("p3", "", 2007, NoVenue)
	p0 := add("p0", "Origins", 1999, icde, ada)
	for _, c := range [][2]ArticleID{{p1, p0}, {p2, p0}, {p2, p1}, {p3, p2}, {p3, p0}} {
		if err := b.AddCitation(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	s := b.Freeze()
	if s.SolverPermutation() == nil {
		t.Fatal("golden corpus needs a non-identity permutation")
	}
	return s
}

// TestSCORPGolden: testdata/golden-v3.scorp was written by the SCORP
// writer that predates the shared container framing. The writer must
// still reproduce it byte for byte, and the in-memory, ReaderAt, file
// and mapped loaders must all read it back to the same corpus.
func TestSCORPGolden(t *testing.T) {
	const path = "testdata/golden-v3.scorp"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	store := goldenStore(t)
	var buf bytes.Buffer
	if err := WriteSCORP(&buf, store); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("writer does not reproduce the committed SCORP image")
	}
	written := filepath.Join(t.TempDir(), "golden.scorp")
	if err := WriteSCORPFile(written, store); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(written); err != nil || !bytes.Equal(raw, want) {
		t.Fatalf("WriteSCORPFile does not reproduce the committed image (err %v)", err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mmapAvailable && mapped.LoadMode() != "mmap" {
		t.Errorf("OpenMapped load mode %q, want mmap", mapped.LoadMode())
	}
	loaders := map[string]func() (*Store, error){
		"ReadSCORPAt":   func() (*Store, error) { return ReadSCORPAt(bytes.NewReader(want), int64(len(want))) },
		"ReadSCORPFile": func() (*Store, error) { return ReadSCORPFile(path) },
		"OpenMapped":    func() (*Store, error) { return mapped, nil },
	}
	for name, load := range loaders {
		got, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertStoresAgree(t, store, got)
		if got.Author(0).Name != "Ada Lovelace" || got.Venue(1).Name != "KDD" || got.Title(0) != "Ranking articles" {
			t.Errorf("%s: names or titles lost", name)
		}
		if fp := got.Fingerprint(); fp != goldenFingerprint {
			t.Errorf("%s: fingerprint %#016x, want %#016x", name, fp, goldenFingerprint)
		}
		var again bytes.Buffer
		if err := WriteSCORP(&again, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Errorf("%s: re-encode differs from the committed image", name)
		}
	}
}

// goldenFingerprint pins the fingerprint of goldenStore: ranking
// snapshots on disk are bound to corpora by this value, so its
// definition must not drift.
const goldenFingerprint uint64 = 0xb7e768f85f59ec81

// TestFingerprintDefinition rebuilds the fingerprint's byte stream from
// the public accessors, as documented on Store.Fingerprint, and checks
// both CRCs over it.
func TestFingerprintDefinition(t *testing.T) {
	for name, s := range map[string]*Store{"golden": goldenStore(t), "tiny": buildTiny(t), "empty": NewBuilder().Freeze()} {
		var stream []byte
		u64 := func(v int) { stream = binary.LittleEndian.AppendUint64(stream, uint64(v)) }
		strs := func(n int, get func(i int) string) {
			u64(n)
			var block []byte
			for i := 0; i < n; i++ {
				block = append(block, get(i)...)
				u64(len(block))
			}
			u64(len(block))
			stream = append(stream, block...)
		}
		ids := func(get func(i int) []int32) {
			var ends []int
			var all []byte
			for i := 0; i < s.NumArticles(); i++ {
				for _, id := range get(i) {
					all = binary.LittleEndian.AppendUint32(all, uint32(id))
				}
				ends = append(ends, len(all)/4)
			}
			u64(len(ends))
			for _, e := range ends {
				u64(e)
			}
			u64(len(all))
			stream = append(stream, all...)
		}
		n := s.NumArticles()
		strs(n, func(i int) string { return s.Key(ArticleID(i)) })
		for _, col := range []func(ArticleID) int32{
			func(id ArticleID) int32 { return int32(s.Year(id)) },
			func(id ArticleID) int32 { return s.VenueOf(id) },
		} {
			u64(4 * n)
			for i := 0; i < n; i++ {
				stream = binary.LittleEndian.AppendUint32(stream, uint32(col(ArticleID(i))))
			}
		}
		ids(func(i int) []int32 { return s.Authors(ArticleID(i)) })
		ids(func(i int) []int32 { return s.Refs(ArticleID(i)) })
		strs(s.NumAuthors(), func(i int) string { return s.Author(AuthorID(i)).Key })
		strs(s.NumVenues(), func(i int) string { return s.Venue(VenueID(i)).Key })
		want := uint64(crc32.ChecksumIEEE(stream))<<32 | uint64(crc32.Checksum(stream, crc32.MakeTable(crc32.Castagnoli)))
		if got := s.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %#016x, documented stream gives %#016x", name, got, want)
		}
	}
}
