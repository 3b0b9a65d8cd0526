package corpus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scholarrank/internal/container"
)

// decodeSCORP decodes an in-memory SCORP image.
func decodeSCORP(data []byte) (*Store, error) {
	return ReadSCORPAt(bytes.NewReader(data), int64(len(data)))
}

func TestSCORPRoundTrip(t *testing.T) {
	s := buildTiny(t)
	var buf bytes.Buffer
	if err := WriteSCORP(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := decodeSCORP(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertSameCorpus(t, s, got)
	// Names survive SCORP (unlike JSONL/TSV).
	if got.Author(0).Name != "Alice" || got.Venue(0).Name != "ICDE" {
		t.Errorf("names: %q / %q", got.Author(0).Name, got.Venue(0).Name)
	}
	// The inverse CSRs are stored, not re-derived: compare directly.
	wantOff, wantArts := s.AuthorArticlesCSR()
	gotOff, gotArts := got.AuthorArticlesCSR()
	if len(wantOff) != len(gotOff) || len(wantArts) != len(gotArts) {
		t.Errorf("author CSR shape differs")
	}
	for i := range wantArts {
		if wantArts[i] != gotArts[i] {
			t.Errorf("author CSR ids differ at %d", i)
		}
	}
}

func TestSCORPEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSCORP(&buf, NewBuilder().Freeze()); err != nil {
		t.Fatal(err)
	}
	got, err := decodeSCORP(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumArticles() != 0 || got.NumAuthors() != 0 || got.NumVenues() != 0 {
		t.Errorf("empty round trip: %d/%d/%d", got.NumArticles(), got.NumAuthors(), got.NumVenues())
	}
}

func TestSCORPBadMagic(t *testing.T) {
	if _, err := decodeSCORP([]byte("NOTSCORPATALL")); !errors.Is(err, ErrBadCorpus) {
		t.Errorf("err = %v", err)
	}
	if _, err := decodeSCORP([]byte("SC")); !errors.Is(err, ErrBadCorpus) {
		t.Errorf("short err = %v", err)
	}
}

// TestSCORPBadVersion stamps every version but the current one on an
// otherwise valid image: all three loaders must refuse it with
// ErrCorpusVersion rather than decode bytes laid out for another
// format revision. The committed packed v2 seed is the real thing, not
// a re-stamp.
func TestSCORPBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSCORP(&buf, buildTiny(t)); err != nil {
		t.Fatal(err)
	}
	images := map[string][]byte{"packed-v2-seed": readFuzzSeed(t, "testdata/fuzz/FuzzReadSCORP/seed-packed-v2")}
	for _, v := range []byte{1, 2, 4} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[len(scorpFormat.Magic)] = v // the version byte is outside every section CRC
		images[fmt.Sprintf("stamped-v%d", v)] = raw
	}
	for name, raw := range images {
		if _, err := decodeSCORP(raw); !errors.Is(err, ErrCorpusVersion) {
			t.Errorf("%s: decodeSCORP err = %v", name, err)
		}
		if _, err := ReadSCORPAt(bytes.NewReader(raw), int64(len(raw))); !errors.Is(err, ErrCorpusVersion) {
			t.Errorf("%s: ReadSCORPAt err = %v", name, err)
		}
		path := filepath.Join(t.TempDir(), "old.scorp")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := OpenMapped(path); !errors.Is(err, ErrCorpusVersion) {
			t.Errorf("%s: OpenMapped err = %v", name, err)
			if err == nil {
				got.Close()
			}
		}
	}
}

// readFuzzSeed returns the []byte value of a one-argument Go fuzz
// corpus file ("go test fuzz v1" header, then []byte("…")).
func readFuzzSeed(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value []byte fuzz seed", path)
	}
	val, err := strconv.Unquote(lines[1][len("[]byte(") : len(lines[1])-1])
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(val)
}

func TestSCORPCorruptionDetected(t *testing.T) {
	s := buildTiny(t)
	var buf bytes.Buffer
	if err := WriteSCORP(&buf, s); err != nil {
		t.Fatal(err)
	}
	tableEnd := container.HeaderLen + len(scorpSections(s))*container.EntryLen
	raw := buf.Bytes()
	// Version 3 pads sections to 8-byte alignment; padding belongs to
	// no section and is outside every CRC, so a flip there must decode
	// to the same corpus rather than being rejected.
	tab, err := scorpFormat.ParseTable(raw, uint64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	inPayload := func(pos int) bool {
		for _, e := range tab.Entries {
			if uint64(pos) >= e.Off && uint64(pos) < e.Off+e.Len {
				return true
			}
		}
		return false
	}
	// Flip one byte in every position past the table: payload flips are
	// rejected by CRC, padding flips decode consistently — never a
	// panic or silent garbage.
	for i := tableEnd; i < len(raw); i++ {
		mutated := append([]byte(nil), raw...)
		mutated[i] ^= 0xFF
		got, err := decodeSCORP(mutated)
		if inPayload(i) {
			if err == nil {
				t.Fatalf("flip at %d accepted", i)
			} else if !errors.Is(err, ErrCorpusCRC) {
				t.Fatalf("flip at %d: err = %v, want CRC mismatch", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip in padding at %d rejected: %v", i, err)
		}
		assertSameCorpus(t, s, got)
	}
}

func TestSCORPTruncated(t *testing.T) {
	s := buildTiny(t)
	var buf bytes.Buffer
	if err := WriteSCORP(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{len(raw) - 1, len(raw) / 2, container.HeaderLen, 3} {
		if _, err := decodeSCORP(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestSCORPHostileSections rejects a header demanding more sections
// than the format allows, and a section table pointing outside the
// file.
func TestSCORPHostileSections(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(scorpFormat.Magic)
	buf.Write([]byte{scorpFormat.Version, 0, 0})
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], 1<<30)
	buf.Write(cnt[:])
	if _, err := decodeSCORP(buf.Bytes()); !errors.Is(err, ErrBadCorpus) {
		t.Errorf("huge section count: %v", err)
	}

	buf.Reset()
	buf.WriteString(scorpFormat.Magic)
	buf.Write([]byte{scorpFormat.Version, 0, 0})
	binary.LittleEndian.PutUint32(cnt[:], 1)
	buf.Write(cnt[:])
	entry := make([]byte, container.EntryLen)
	copy(entry, "meta")
	binary.LittleEndian.PutUint64(entry[4:], 1<<40) // offset far past EOF
	binary.LittleEndian.PutUint64(entry[12:], 32)
	buf.Write(entry)
	if _, err := decodeSCORP(buf.Bytes()); !errors.Is(err, ErrBadCorpus) {
		t.Errorf("out-of-bounds section: %v", err)
	}
}

// TestSCORPRejectsInconsistentColumns forges a CRC-valid file whose
// refs column contains a self-citation, which only semantic
// validation can catch.
func TestSCORPRejectsInconsistentColumns(t *testing.T) {
	b := NewBuilder()
	p0, _ := b.AddArticle(ArticleMeta{Key: "p0", Year: 2000, Venue: NoVenue})
	p1, _ := b.AddArticle(ArticleMeta{Key: "p1", Year: 2001, Venue: NoVenue})
	if err := b.AddCitation(p1, p0); err != nil {
		t.Fatal(err)
	}
	s := b.Freeze()
	// Corrupt in memory: make p1 cite itself, then re-encode (so all
	// CRCs are freshly valid over the bad data).
	s.refs[0] = p1
	var buf bytes.Buffer
	if err := WriteSCORP(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSCORP(buf.Bytes()); !errors.Is(err, ErrSelfCitation) {
		t.Errorf("self-citation accepted: %v", err)
	}
}

// buildPermuted returns a frozen store whose solver permutation is
// non-identity: the oldest article is added last, so the chronological
// order must move it to permuted id 0.
func buildPermuted(t *testing.T) *Store {
	t.Helper()
	b := NewBuilder()
	p0, err := b.AddArticle(ArticleMeta{Key: "p0", Year: 2001, Venue: NoVenue})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := b.AddArticle(ArticleMeta{Key: "p1", Year: 2002, Venue: NoVenue})
	if err != nil {
		t.Fatal(err)
	}
	hub, err := b.AddArticle(ArticleMeta{Key: "hub", Year: 2000, Venue: NoVenue})
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []ArticleID{p0, p1} {
		if err := b.AddCitation(from, hub); err != nil {
			t.Fatal(err)
		}
	}
	s := b.Freeze()
	if s.SolverPermutation() == nil {
		t.Fatal("expected a non-identity solver permutation")
	}
	return s
}

func TestSCORPPermRoundTrip(t *testing.T) {
	s := buildPermuted(t)
	var buf bytes.Buffer
	if err := WriteSCORP(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := decodeSCORP(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertSameCorpus(t, s, got)
	gp := got.SolverPermutation()
	if gp == nil {
		t.Fatal("perm section lost in round trip")
	}
	want, have := s.SolverPermutation().Fwd(), gp.Fwd()
	if len(want) != len(have) {
		t.Fatalf("perm length %d vs %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("perm fwd[%d] = %d, want %d", i, have[i], want[i])
		}
	}
	var again bytes.Buffer
	if err := WriteSCORP(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("re-encode with perm section is not byte-stable")
	}
}

// TestSCORPCorruptPermRejected forges a CRC-valid perm section that
// is not a bijection and requires semantic rejection.
func TestSCORPCorruptPermRejected(t *testing.T) {
	s := buildPermuted(t)
	var buf bytes.Buffer
	if err := WriteSCORP(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The perm section is the last table entry; rewrite its payload to
	// a duplicate-id map and refresh the CRC so only bijection
	// validation can reject it.
	entry := raw[container.HeaderLen+(len(scorpSections(s))-1)*container.EntryLen:]
	if tag := string(entry[:4]); tag != "perm" {
		t.Fatalf("last section is %q, want perm", tag)
	}
	off := binary.LittleEndian.Uint64(entry[4:])
	length := binary.LittleEndian.Uint64(entry[12:])
	payload := raw[off : off+length]
	for i := range payload {
		payload[i] = 0 // fwd = [0,0,0]: every article maps to id 0
	}
	binary.LittleEndian.PutUint32(entry[20:], crc32.ChecksumIEEE(payload))
	if _, err := decodeSCORP(raw); !errors.Is(err, ErrBadCorpus) {
		t.Errorf("duplicate perm accepted: %v", err)
	}
}

func TestSCORPFileRoundTripAtomic(t *testing.T) {
	s := buildTiny(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.scorp")
	if err := WriteSCORPFile(path, s); err != nil {
		t.Fatal(err)
	}
	// The atomic-write discipline must leave no temp files behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "corpus.scorp" {
		t.Errorf("directory after write: %v", entries)
	}
	got, err := ReadSCORPFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCorpus(t, s, got)
}

func TestSCORPReadMissingFile(t *testing.T) {
	if _, err := ReadSCORPFile(filepath.Join(t.TempDir(), "nope.scorp")); err == nil {
		t.Error("missing file accepted")
	}
}
