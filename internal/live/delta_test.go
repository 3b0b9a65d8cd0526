package live

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scholarrank/internal/corpus"
)

func baseStore(t *testing.T) *corpus.Builder {
	t.Helper()
	s := corpus.NewBuilder()
	for i, year := range []int{2000, 2005, 2010} {
		if _, err := s.AddArticle(corpus.ArticleMeta{
			Key: "p" + string(rune('0'+i)), Year: year, Venue: corpus.NoVenue,
		}); err != nil {
			t.Fatal(err)
		}
	}
	p1, _ := s.ArticleByKey("p1")
	p0, _ := s.ArticleByKey("p0")
	if err := s.AddCitation(p1, p0); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestApplyDeltaNewArticleAndCitations(t *testing.T) {
	s := baseStore(t)
	delta := `
{"id":"p3","title":"New","year":2016,"venue":"icde","authors":["alice"],"refs":["p0","p1"]}
{"id":"p2","refs":["p0"]}
`
	stats, err := ApplyDelta(s, strings.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewArticles != 1 || stats.NewCitations != 3 || stats.DroppedRefs != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if s.NumArticles() != 4 || s.NumCitations() != 4 || s.NumAuthors() != 1 || s.NumVenues() != 1 {
		t.Errorf("store = %d articles, %d citations, %d authors, %d venues",
			s.NumArticles(), s.NumCitations(), s.NumAuthors(), s.NumVenues())
	}
	p3, ok := s.ArticleByKey("p3")
	if !ok {
		t.Fatal("p3 missing")
	}
	if a := s.Article(p3); a.Year != 2016 || len(a.Authors) != 1 || len(a.Refs) != 2 {
		t.Errorf("p3 = %+v", a)
	}
}

// TestApplyDeltaRepeatedAuthor checks that an author listed twice on
// one article is one author of it: the article lists it once, and the
// author's row lists the article once.
func TestApplyDeltaRepeatedAuthor(t *testing.T) {
	s := baseStore(t)
	if _, err := ApplyDelta(s, strings.NewReader(`{"id":"p3","year":2016,"authors":["a","b","a"]}`)); err != nil {
		t.Fatal(err)
	}
	store := s.Freeze()
	p3, _ := store.ArticleByKey("p3")
	var keys []string
	for _, au := range store.Authors(p3) {
		keys = append(keys, store.Author(au).Key)
	}
	if strings.Join(keys, " ") != "a b" {
		t.Errorf("p3 authors = %v, want [a b]", keys)
	}
	a, _ := store.AuthorByKey("a")
	off, arts := store.AuthorArticlesCSR()
	if row := arts[off[a]:off[a+1]]; len(row) != 1 || row[0] != p3 {
		t.Errorf("author a's row = %v, want [%d]", row, p3)
	}
}

func TestApplyDeltaForwardAndUnknownRefs(t *testing.T) {
	s := baseStore(t)
	// q1 cites q2 which appears later in the same batch; q2 cites an
	// unknown key and itself.
	delta := `{"id":"q1","year":2016,"refs":["q2"]}
{"id":"q2","year":2016,"refs":["nowhere","q2","p0"]}`
	stats, err := ApplyDelta(s, strings.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewArticles != 2 || stats.NewCitations != 2 || stats.DroppedRefs != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestApplyDeltaIdempotent(t *testing.T) {
	s := baseStore(t)
	delta := `{"id":"p2","refs":["p0","p1"]}`
	first, err := ApplyDelta(s, strings.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	if first.NewCitations != 2 {
		t.Fatalf("first apply: %+v", first)
	}
	again, err := ApplyDelta(s, strings.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	if again.NewCitations != 0 || again.DuplicateCitations != 2 || !again.Empty() {
		t.Errorf("second apply: %+v", again)
	}
	if s.NumCitations() != 3 {
		t.Errorf("citations = %d after re-apply", s.NumCitations())
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	for name, delta := range map[string]string{
		"bad json":   `{"id":`,
		"missing id": `{"year":2016}`,
		"bad year":   `{"id":"x","year":-3}`,
	} {
		s := baseStore(t)
		if _, err := ApplyDelta(s, strings.NewReader(delta)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestSpool(t *testing.T) {
	dir := t.TempDir()
	if files, err := PendingDeltas(dir); err != nil || len(files) != 0 {
		t.Fatalf("empty spool: %v, %v", files, err)
	}
	if files, err := PendingDeltas(filepath.Join(dir, "missing")); err != nil || files != nil {
		t.Fatalf("missing spool dir: %v, %v", files, err)
	}
	for _, name := range []string{"002.jsonl", "001.jsonl", "ignore.txt", ".hidden.jsonl", "done.jsonl.done"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, err := PendingDeltas(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || filepath.Base(files[0].Path) != "001.jsonl" || filepath.Base(files[1].Path) != "002.jsonl" {
		t.Fatalf("pending = %+v", files)
	}
	if NewestModTime(files).IsZero() || NewestModTime(nil) != (time.Time{}) {
		t.Error("NewestModTime")
	}
	if err := MarkDone(files[0].Path); err != nil {
		t.Fatal(err)
	}
	files, err = PendingDeltas(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0].Path) != "002.jsonl" {
		t.Errorf("after MarkDone: %+v", files)
	}
	if _, err := os.Stat(filepath.Join(dir, "001.jsonl.done")); err != nil {
		t.Errorf("done file missing: %v", err)
	}
}

// FuzzApplyDelta drives the delta parser POST /admin/ingest and the
// spool directory feed with bytes from outside the process: every
// input either errors or applies, and an applied delta grows the
// corpus by exactly the articles and citations it reports and freezes
// to a store that passes full validation.
func FuzzApplyDelta(f *testing.F) {
	for _, seed := range []string{
		`{"id":"p3","title":"New","year":2016,"venue":"icde","authors":["alice"],"refs":["p0","p1"]}` + "\n" + `{"id":"p2","refs":["p0"]}`,
		`{"id":"p3","year":2016,"authors":["a","b","a"]}`,
		`{"id":"p3","year":2016,"refs":["p4","ghost","p3"]}` + "\n\n" + `{"id":"p4","year":2017,"refs":["p3","p3"]}`,
		`{"id":"p1","refs":["p0","p2"]}`,
		`{"id":`,
		`{"year":2016}`,
		`{"id":"x","year":-3}`,
		`{"id":"x","year":2016,"venue":"","authors":[""]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, delta []byte) {
		b := baseStore(t)
		articles, citations := b.NumArticles(), b.NumCitations()
		stats, err := ApplyDelta(b, bytes.NewReader(delta))
		if err != nil {
			return
		}
		if b.NumArticles() != articles+stats.NewArticles || b.NumCitations() != citations+stats.NewCitations {
			t.Fatalf("stats %+v, but the corpus grew from %d/%d to %d/%d articles/citations",
				stats, articles, citations, b.NumArticles(), b.NumCitations())
		}
		s := b.Freeze()
		if err := s.Verify(); err != nil {
			t.Fatalf("applied delta freezes to an invalid store: %v", err)
		}
		if s.NumArticles() != b.NumArticles() || s.NumCitations() != b.NumCitations() {
			t.Fatalf("freeze changed the counts: %d/%d vs %d/%d",
				s.NumArticles(), s.NumCitations(), b.NumArticles(), b.NumCitations())
		}
	})
}
