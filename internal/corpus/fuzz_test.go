package corpus

import (
	"bytes"
	"strings"
	"testing"
)

// The codec fuzz tests assert one invariant: arbitrary input must
// produce either a valid Store or an error — never a panic — and a
// successfully decoded corpus must re-encode and decode to the same
// structure.

func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"id":"a","year":2000}`)
	f.Add(`{"id":"a","year":2000,"venue":"v","authors":["x","y"],"refs":["b"]}` + "\n" + `{"id":"b","year":1999}`)
	f.Add(`{"id":"", "year":-1}`)
	f.Add(`not json at all`)
	f.Add("\n\n\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ReadJSONL(strings.NewReader(input), ReadOptions{AllowDanglingRefs: true})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, s); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		s2, err := ReadJSONL(&buf, ReadOptions{})
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if s2.NumArticles() != s.NumArticles() || s2.NumCitations() != s.NumCitations() {
			t.Fatalf("round trip changed counts: %d/%d vs %d/%d",
				s2.NumArticles(), s2.NumCitations(), s.NumArticles(), s.NumCitations())
		}
	})
}

func FuzzReadTSV(f *testing.F) {
	f.Add("a\t2000\t\t\t\tTitle\n")
	f.Add("a\t2000\tv\tx|y\tb\tT\nb\t1999\t\t\t\tT2\n")
	f.Add("bad row")
	f.Add("a\tnotyear\t\t\t\tT\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ReadTSV(strings.NewReader(input), ReadOptions{AllowDanglingRefs: true})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, s); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, err := ReadTSV(&buf, ReadOptions{}); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// fuzzSeedStore builds the small frozen corpus the binary-format fuzz
// targets use as their valid seed input.
func fuzzSeedStore(f *testing.F) *Store {
	f.Helper()
	b := NewBuilder()
	a, _ := b.InternAuthor("a", "A")
	v, _ := b.InternVenue("v", "V")
	p0, _ := b.AddArticle(ArticleMeta{Key: "p0", Year: 2000, Venue: v, Authors: []AuthorID{a}})
	p1, _ := b.AddArticle(ArticleMeta{Key: "p1", Year: 2005, Venue: NoVenue})
	if err := b.AddCitation(p1, p0); err != nil {
		f.Fatal(err)
	}
	return b.Freeze()
}

// FuzzReadSCORP drives the sectioned columnar reader: arbitrary bytes
// must decode to a fully valid Store or an error, never a panic, and
// any store that decodes must survive a write→read round trip with
// its accessors intact.
func FuzzReadSCORP(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSCORP(&buf, fuzzSeedStore(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A corpus whose oldest article arrives last, so the freeze-time
	// chronological order is a non-identity permutation and the seed
	// exercises the optional perm section.
	pb := NewBuilder()
	h0, _ := pb.AddArticle(ArticleMeta{Key: "h0", Year: 2001, Venue: NoVenue})
	h1, _ := pb.AddArticle(ArticleMeta{Key: "h1", Year: 2002, Venue: NoVenue})
	hub, _ := pb.AddArticle(ArticleMeta{Key: "hub", Year: 2000, Venue: NoVenue})
	for _, from := range []ArticleID{h0, h1} {
		if err := pb.AddCitation(from, hub); err != nil {
			f.Fatal(err)
		}
	}
	var permed bytes.Buffer
	if err := WriteSCORP(&permed, pb.Freeze()); err != nil {
		f.Fatal(err)
	}
	f.Add(permed.Bytes())
	// testdata/fuzz/FuzzReadSCORP/seed-packed-v2 (loaded by the fuzz
	// engine) is a retired version-2 image, sections back to back. The
	// same bytes stamped with the current version are the misaligned
	// shape OpenMapped must fall back to the heap loader on, and the
	// decoder must still read.
	misaligned := readFuzzSeed(f, "testdata/fuzz/FuzzReadSCORP/seed-packed-v2")
	misaligned[len(scorpFormat.Magic)] = scorpFormat.Version
	f.Add(misaligned)
	var empty bytes.Buffer
	if err := WriteSCORP(&empty, NewBuilder().Freeze()); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte(scorpFormat.Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		got, err := decodeSCORP(input)
		if err != nil {
			return
		}
		// Exercise every accessor family; a validation gap shows up
		// here as an index panic.
		for i := 0; i < got.NumArticles(); i++ {
			id := ArticleID(i)
			_ = got.Article(id)
			_, _ = got.ArticleByKey(got.Key(id))
		}
		for i := 0; i < got.NumAuthors(); i++ {
			_ = got.Author(AuthorID(i))
		}
		for i := 0; i < got.NumVenues(); i++ {
			_ = got.Venue(VenueID(i))
		}
		_ = got.CitationGraph()
		_ = got.TemporalViolations()
		var out bytes.Buffer
		if err := WriteSCORP(&out, got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		got2, err := decodeSCORP(out.Bytes())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if got2.NumArticles() != got.NumArticles() || got2.NumCitations() != got.NumCitations() {
			t.Fatalf("round trip changed counts: %d/%d vs %d/%d",
				got2.NumArticles(), got2.NumCitations(), got.NumArticles(), got.NumCitations())
		}
	})
}
