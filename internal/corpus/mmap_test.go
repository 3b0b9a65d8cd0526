package corpus

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeTempSCORP writes s to a fresh file and returns its path.
func writeTempSCORP(t *testing.T, s *Store) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.scorp")
	if err := WriteSCORPFile(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertStoresAgree compares every accessor family between the two
// stores — the property the mapped loader must preserve exactly.
func assertStoresAgree(t *testing.T, want, got *Store) {
	t.Helper()
	assertSameCorpus(t, want, got)
	if got.NumAuthors() != want.NumAuthors() || got.NumVenues() != want.NumVenues() {
		t.Fatalf("entity counts: %d/%d vs %d/%d",
			got.NumAuthors(), got.NumVenues(), want.NumAuthors(), want.NumVenues())
	}
	for i := 0; i < want.NumArticles(); i++ {
		id := ArticleID(i)
		if got.Key(id) != want.Key(id) || got.Title(id) != want.Title(id) {
			t.Fatalf("article %d key/title differ", i)
		}
		if got.Year(id) != want.Year(id) || got.VenueOf(id) != want.VenueOf(id) {
			t.Fatalf("article %d year/venue differ", i)
		}
	}
	for i := 0; i < want.NumAuthors(); i++ {
		if got.Author(AuthorID(i)) != want.Author(AuthorID(i)) {
			t.Fatalf("author %d differs", i)
		}
	}
	for i := 0; i < want.NumVenues(); i++ {
		if got.Venue(VenueID(i)) != want.Venue(VenueID(i)) {
			t.Fatalf("venue %d differs", i)
		}
	}
	csrEq := func(name string, wo, go_ []int64, wi, gi []int32) {
		if len(wo) != len(go_) || len(wi) != len(gi) {
			t.Fatalf("%s CSR shape: %d/%d vs %d/%d", name, len(go_), len(gi), len(wo), len(wi))
		}
		for i := range wo {
			if wo[i] != go_[i] {
				t.Fatalf("%s CSR offset %d differs", name, i)
			}
		}
		for i := range wi {
			if wi[i] != gi[i] {
				t.Fatalf("%s CSR id %d differs", name, i)
			}
		}
	}
	wo, wi := want.ArticleAuthorsCSR()
	gOff, gi := got.ArticleAuthorsCSR()
	csrEq("article-author", wo, gOff, wi, gi)
	wo, wi = want.RefsCSR()
	gOff, gi = got.RefsCSR()
	csrEq("refs", wo, gOff, wi, gi)
	wo, wi = want.AuthorArticlesCSR()
	gOff, gi = got.AuthorArticlesCSR()
	csrEq("author-article", wo, gOff, wi, gi)
	wo, wi = want.VenueArticlesCSR()
	gOff, gi = got.VenueArticlesCSR()
	csrEq("venue-article", wo, gOff, wi, gi)
	wp, gp := want.SolverPermutation(), got.SolverPermutation()
	if (wp == nil) != (gp == nil) {
		t.Fatalf("permutation presence: %v vs %v", gp != nil, wp != nil)
	}
	if wp != nil {
		wf, gf := wp.Fwd(), gp.Fwd()
		if len(wf) != len(gf) {
			t.Fatalf("perm length %d vs %d", len(gf), len(wf))
		}
		for i := range wf {
			if wf[i] != gf[i] {
				t.Fatalf("perm fwd[%d] differs", i)
			}
		}
	}
	wn, wx := want.YearRange()
	gn, gx := got.YearRange()
	if wn != gn || wx != gx {
		t.Fatalf("year range (%d,%d) vs (%d,%d)", gn, gx, wn, wx)
	}
	if got.TemporalViolations() != want.TemporalViolations() {
		t.Fatal("temporal violations differ")
	}
}

// TestOpenMappedMatchesHeap is the equality property test: a store
// opened via OpenMapped and via the heap loader agree on every
// accessor, including the solver permutation and the inverse CSRs.
func TestOpenMappedMatchesHeap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store *Store
	}{
		{"tiny", buildTiny(t)},
		{"permuted", buildPermuted(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTempSCORP(t, tc.store)
			heap, err := ReadSCORPFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			if mmapAvailable {
				if mapped.LoadMode() != "mmap" || !mapped.Mapped() {
					t.Fatalf("load mode %q, mapped %v; want mmap", mapped.LoadMode(), mapped.Mapped())
				}
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if mapped.MappedBytes() != fi.Size() {
					t.Errorf("MappedBytes = %d, file size %d", mapped.MappedBytes(), fi.Size())
				}
			}
			if heap.LoadMode() != "heap" || heap.Mapped() || heap.MappedBytes() != 0 {
				t.Errorf("heap store reports %q/%v/%d", heap.LoadMode(), heap.Mapped(), heap.MappedBytes())
			}
			assertStoresAgree(t, heap, mapped)
			// Opt-in full validation of a mapped store must pass on a
			// file our own writer produced.
			if err := mapped.Verify(); err != nil {
				t.Errorf("Verify: %v", err)
			}
			// The mapped store must round-trip byte-identically: writing
			// it reproduces the exact file it aliases.
			var out bytes.Buffer
			if err := WriteSCORP(&out, mapped); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), raw) {
				t.Error("mapped store re-encode is not byte-stable")
			}
		})
	}
}

// TestOpenMappedEmptyCorpus maps a corpus with no articles.
func TestOpenMappedEmptyCorpus(t *testing.T) {
	path := writeTempSCORP(t, NewBuilder().Freeze())
	s, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumArticles() != 0 || s.NumAuthors() != 0 || s.NumVenues() != 0 {
		t.Fatalf("empty corpus: %d/%d/%d", s.NumArticles(), s.NumAuthors(), s.NumVenues())
	}
}

// TestOpenMappedMisalignedV3FallsBack stamps the committed packed v2
// seed with the current version byte (which no section CRC covers):
// the offsets are then misaligned, and OpenMapped must detect that and
// fall back to the heap loader rather than handing out columns that
// would fault on aligned access.
func TestOpenMappedMisalignedV3FallsBack(t *testing.T) {
	want := buildPermuted(t) // the corpus the seed was written from
	raw := readFuzzSeed(t, "testdata/fuzz/FuzzReadSCORP/seed-packed-v2")
	raw[len(scorpFormat.Magic)] = scorpFormat.Version
	// Sanity: the forged file really is misaligned.
	tab, err := scorpFormat.ParseTable(raw, uint64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Aligned() {
		t.Fatal("forged v3 file is unexpectedly aligned; test is vacuous")
	}
	path := filepath.Join(t.TempDir(), "misaligned.scorp")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.LoadMode() != "heap" || got.Mapped() {
		t.Errorf("misaligned file load mode = %q, mapped %v; want heap fallback", got.LoadMode(), got.Mapped())
	}
	assertStoresAgree(t, want, got)
}

// TestMappedStoreRefcount exercises the Retain/Close lifetime: the
// mapping survives until the last reference is closed, and closing
// past zero reports ErrCorpusClosed instead of double-unmapping.
func TestMappedStoreRefcount(t *testing.T) {
	if !mmapAvailable {
		t.Skip("no mmap on this platform")
	}
	s, err := OpenMapped(writeTempSCORP(t, buildTiny(t)))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Retain() {
		t.Fatal("Retain on live mapping failed")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if !s.Mapped() {
		t.Fatal("mapping gone with a reference outstanding")
	}
	// The store must still be fully readable through the held ref.
	if s.Key(0) == "" {
		t.Fatal("accessor failed with a reference outstanding")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	if s.Mapped() {
		t.Fatal("mapping alive after final close")
	}
	if s.Retain() {
		t.Fatal("Retain succeeded after final close")
	}
	if err := s.Close(); !errors.Is(err, ErrCorpusClosed) {
		t.Fatalf("close past zero: %v, want ErrCorpusClosed", err)
	}
	if s.LoadMode() != "mmap" {
		t.Errorf("load mode after close = %q (provenance should persist)", s.LoadMode())
	}
}

// TestMappedStoreViewsShareLifetime checks that views derived from a
// mapped store (WithoutSolverPermutation) share its mapping and stay
// readable while any handle holds a reference.
func TestMappedStoreViewsShareLifetime(t *testing.T) {
	if !mmapAvailable {
		t.Skip("no mmap on this platform")
	}
	s, err := OpenMapped(writeTempSCORP(t, buildPermuted(t)))
	if err != nil {
		t.Fatal(err)
	}
	view := s.WithoutSolverPermutation()
	if !view.Mapped() || view.LoadMode() != "mmap" {
		t.Fatalf("view load mode = %q, mapped %v", view.LoadMode(), view.Mapped())
	}
	if view.SolverPermutation() != nil {
		t.Fatal("view kept the permutation")
	}
	if view.Key(0) != s.Key(0) {
		t.Fatal("view and parent disagree")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if view.Mapped() {
		t.Error("view outlived the mapping it shares")
	}
}

// TestMappedThawFreezeProducesHeapStore checks the ingest path:
// thawing a mapped store and re-freezing must yield a heap-backed
// store that no longer depends on the mapping.
func TestMappedThawFreezeProducesHeapStore(t *testing.T) {
	if !mmapAvailable {
		t.Skip("no mmap on this platform")
	}
	want := buildTiny(t)
	s, err := OpenMapped(writeTempSCORP(t, want))
	if err != nil {
		t.Fatal(err)
	}
	frozen := s.Thaw().Freeze()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The mapping is gone; the re-frozen store must own its columns.
	if frozen.LoadMode() != "heap" || frozen.Mapped() {
		t.Fatalf("re-frozen store load mode = %q", frozen.LoadMode())
	}
	assertSameCorpus(t, want, frozen)
}
