package corpus

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// keyOracle is the Go-map model of a corpus's three key columns.
type keyOracle struct {
	articles, authors, venues map[string]int32
}

func newKeyOracle() *keyOracle {
	return &keyOracle{map[string]int32{}, map[string]int32{}, map[string]int32{}}
}

// addKeys feeds keys to b, each to the column its first byte picks,
// and checks every answer against the oracle: a new key gets the next
// id, a repeated article key ErrDuplicateKey, a repeated author or
// venue key the id it already has, an empty key ErrEmptyKey.
func (o *keyOracle) addKeys(t *testing.T, b *Builder, keys []string) {
	t.Helper()
	for _, k := range keys {
		var kind byte
		if k != "" {
			kind = k[0] % 3
		}
		var (
			id   int32
			err  error
			seen map[string]int32
		)
		switch kind {
		case 0:
			seen = o.articles
			id, err = b.AddArticle(ArticleMeta{Key: k, Year: 2000, Venue: NoVenue})
		case 1:
			seen = o.authors
			id, err = b.InternAuthor(k, "name "+k)
		default:
			seen = o.venues
			id, err = b.InternVenue(k, "name "+k)
		}
		old, dup := seen[k]
		switch {
		case k == "":
			if !errors.Is(err, ErrEmptyKey) {
				t.Fatalf("empty key: err %v, want ErrEmptyKey", err)
			}
		case dup && kind == 0:
			if !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("repeated article key %q: err %v, want ErrDuplicateKey", k, err)
			}
		case dup:
			if err != nil || id != old {
				t.Fatalf("repeated key %q: id %d, err %v; want %d", k, id, err, old)
			}
		case err != nil:
			t.Fatalf("new key %q: %v", k, err)
		case id != int32(len(seen)):
			t.Fatalf("new key %q got id %d, want %d", k, id, len(seen))
		default:
			seen[k] = id
		}
	}
}

// check resolves every oracle key and every probe through lookup
// functions of one store or builder, against the oracle.
func (o *keyOracle) check(t *testing.T, label string, probes []string,
	article, author, venue func(string) (int32, bool)) {
	t.Helper()
	for _, c := range []struct {
		name   string
		want   map[string]int32
		lookup func(string) (int32, bool)
	}{{"article", o.articles, article}, {"author", o.authors, author}, {"venue", o.venues, venue}} {
		if c.lookup == nil {
			continue
		}
		for k, id := range c.want {
			if got, ok := c.lookup(k); !ok || got != id {
				t.Fatalf("%s: %s %q resolves to %d, %v; want %d", label, c.name, k, got, ok, id)
			}
		}
		for _, k := range probes {
			if _, known := c.want[k]; known {
				continue
			}
			if got, ok := c.lookup(k); ok {
				t.Fatalf("%s: unknown %s %q resolves to %d", label, c.name, k, got)
			}
		}
	}
}

func (o *keyOracle) checkStore(t *testing.T, label string, s *Store, probes []string) {
	t.Helper()
	o.check(t, label, probes, s.ArticleByKey, s.AuthorByKey, s.VenueByKey)
}

// clone copies the oracle, so a store frozen earlier keeps its own.
func (o *keyOracle) clone() *keyOracle {
	c := newKeyOracle()
	for _, p := range [][2]map[string]int32{{c.articles, o.articles}, {c.authors, o.authors}, {c.venues, o.venues}} {
		for k, v := range p[1] {
			p[0][k] = v
		}
	}
	return c
}

// FuzzKeyIndex runs key sets through the whole life of the carried key
// index — NewBuilder, Freeze, Thaw, adds, Freeze, adds to the same
// builder after that Freeze, Freeze again, and a SCORP round trip that
// builds the index on first use — and checks every lookup of every
// store and builder against a Go map.
func FuzzKeyIndex(f *testing.F) {
	f.Add("a,b,c,a,b,c,", "d,a,e,b,f,c", "a,g,h", uint16(40))
	f.Add("", "x", "", uint16(0))
	f.Add("p,p,p", "p,q,q", "q,r", uint16(300))
	f.Fuzz(func(t *testing.T, first, second, third string, extra uint16) {
		phase := func(i int, s string) []string {
			keys := strings.Split(s, ",")
			for j := 0; j < int(extra%500); j++ {
				keys = append(keys, fmt.Sprintf("%d/%d", i, j), fmt.Sprintf("%d/%d", i, j/2))
			}
			return keys
		}
		k1, k2, k3 := phase(1, first), phase(2, second), phase(3, third)
		probes := append(append(append([]string{"zz", "nope"}, k1...), k2...), k3...)

		o := newKeyOracle()
		b := NewBuilder()
		o.addKeys(t, b, k1)
		s1 := b.Freeze()
		o1 := o.clone()
		o1.checkStore(t, "first freeze", s1, probes)

		thawed := s1.Thaw()
		o.check(t, "thawed", probes, thawed.ArticleByKey, nil, nil)
		o.addKeys(t, thawed, k2)
		o.check(t, "thawed after adds", probes, thawed.ArticleByKey, nil, nil)
		s2 := thawed.Freeze()
		o2 := o.clone()
		o2.checkStore(t, "second freeze", s2, probes)

		o.addKeys(t, thawed, k3)
		s3 := thawed.Freeze()
		o.checkStore(t, "freeze after freeze", s3, probes)
		o2.checkStore(t, "second freeze, after more adds", s2, probes)
		o1.checkStore(t, "first freeze, after all", s1, probes)

		var buf bytes.Buffer
		if err := WriteSCORP(&buf, s3); err != nil {
			t.Fatal(err)
		}
		loaded, err := decodeSCORP(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		o.checkStore(t, "decoded", loaded, probes)
		again := loaded.Thaw()
		o.addKeys(t, again, k1)
		o.checkStore(t, "decoded, thawed and frozen", again.Freeze(), probes)
	})
}

func TestKeyIndexGrowsAndCopies(t *testing.T) {
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	keyOf := func(id int32) string { return keys[id] }
	var own keyIndex
	for i := range keys {
		own.add(int32(i), keyOf)
		if 2*own.n > len(own.slots) {
			t.Fatalf("%d keys in %d slots: over half full", own.n, len(own.slots))
		}
	}
	if len(own.slots) != slotsFor(len(keys)) {
		t.Errorf("grown table has %d slots, want %d", len(own.slots), slotsFor(len(keys)))
	}
	base := extendKeyIndex(nil, 600, keyOf)
	ext := extendKeyIndex(base, len(keys), keyOf)
	if base.n != 600 {
		t.Fatalf("extending wrote the base table: %d ids", base.n)
	}
	for i, k := range keys {
		for _, tab := range []*keyIndex{&own, ext} {
			if id, ok := tab.find(k, keyOf); !ok || id != int32(i) {
				t.Fatalf("%q resolves to %d, %v; want %d", k, id, ok, i)
			}
		}
		if id, ok := base.find(k, keyOf); ok != (i < 600) || ok && id != int32(i) {
			t.Fatalf("base: %q resolves to %d, %v", k, id, ok)
		}
	}
}
