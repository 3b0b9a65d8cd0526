package corpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// benchBuilder builds a 10k-article corpus with authors, venues and
// ~5 citations per article.
func benchBuilder(b *testing.B) *Builder {
	b.Helper()
	return sizedBuilder(b, 10_000)
}

// sizedBuilder builds an nArt-article corpus with nArt/10 authors, 20
// venues and ~5 citations per article.
func sizedBuilder(tb testing.TB, nArt int) *Builder {
	tb.Helper()
	bld := NewBuilder()
	var authors []AuthorID
	for i := 0; i < nArt/10; i++ {
		a, err := bld.InternAuthor(fmt.Sprintf("a%04d", i), fmt.Sprintf("Author %d", i))
		if err != nil {
			tb.Fatal(err)
		}
		authors = append(authors, a)
	}
	var venues []VenueID
	for i := 0; i < 20; i++ {
		v, err := bld.InternVenue(fmt.Sprintf("v%02d", i), fmt.Sprintf("Venue %d", i))
		if err != nil {
			tb.Fatal(err)
		}
		venues = append(venues, v)
	}
	for i := 0; i < nArt; i++ {
		_, err := bld.AddArticle(ArticleMeta{
			Key:     fmt.Sprintf("p%06d", i),
			Title:   "A Reasonably Long Article Title For Benchmarking",
			Year:    1970 + i%48,
			Venue:   venues[i%len(venues)],
			Authors: authors[i%len(authors) : i%len(authors)+1],
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	for i := 1; i < nArt; i++ {
		for r := 1; r <= 5; r++ {
			ref := ArticleID((i * r * 7919) % i)
			if ref != ArticleID(i) {
				_ = bld.AddCitation(ArticleID(i), ref)
			}
		}
	}
	return bld
}

// benchStore is the frozen form of benchBuilder.
func benchStore(b *testing.B) *Store {
	b.Helper()
	return benchBuilder(b).Freeze()
}

func benchEncoded(b *testing.B, write func(*bytes.Buffer, *Store) error) []byte {
	b.Helper()
	s := benchStore(b)
	var buf bytes.Buffer
	if err := write(&buf, s); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkWriteJSONL(b *testing.B) {
	s := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, s); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkReadJSONL(b *testing.B) {
	raw := benchEncoded(b, func(buf *bytes.Buffer, s *Store) error { return WriteJSONL(buf, s) })
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadJSONL(bytes.NewReader(raw), ReadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadTSV(b *testing.B) {
	raw := benchEncoded(b, func(buf *bytes.Buffer, s *Store) error { return WriteTSV(buf, s) })
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTSV(bytes.NewReader(raw), ReadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCitationGraph(b *testing.B) {
	s := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.CitationGraph()
	}
}

func BenchmarkFreeze(b *testing.B) {
	bld := benchBuilder(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bld.Freeze()
	}
}

// BenchmarkThawAddFreeze is one 0.1 % ingest's corpus work on a 300k
// store: thaw, add 300 articles, freeze, and the first key lookup on
// the frozen result, which is the one a reader makes after the swap.
func BenchmarkThawAddFreeze(b *testing.B) {
	base := sizedBuilder(b, 300_000).Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := base.Thaw()
		for j := 0; j < 300; j++ {
			if _, err := t.AddArticle(ArticleMeta{Key: fmt.Sprintf("new%03d", j), Year: 2020, Venue: NoVenue}); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := t.Freeze().ArticleByKey("new299"); !ok {
			b.Fatal("added key not found")
		}
	}
}

// BenchmarkCorpusLoadTSV and BenchmarkCorpusLoadSCORP measure the
// boot path from the same corpus in both encodings; EXPERIMENTS.md
// records the reference numbers (SCORP must stay ≥ 5× faster).
func BenchmarkCorpusLoadTSV(b *testing.B) {
	raw := benchEncoded(b, func(buf *bytes.Buffer, s *Store) error { return WriteTSV(buf, s) })
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTSV(bytes.NewReader(raw), ReadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusLoadSCORP(b *testing.B) {
	raw := benchEncoded(b, func(buf *bytes.Buffer, s *Store) error { return WriteSCORP(buf, s) })
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeSCORP(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCORPBoot measures the sarserve boot path — opening the
// 100k-article reference corpus from disk — for the heap loader
// versus OpenMapped. The ≥10× mmap advantage recorded in
// EXPERIMENTS.md E3 comes from here.
func BenchmarkSCORPBoot(b *testing.B) {
	path := filepath.Join(b.TempDir(), "boot.scorp")
	if err := WriteSCORPFile(path, sizedBuilder(b, 100_000).Freeze()); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mode=heap", func(b *testing.B) {
		b.SetBytes(fi.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadSCORPFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=mmap", func(b *testing.B) {
		b.SetBytes(fi.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := OpenMapped(path)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
