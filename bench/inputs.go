package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"strconv"

	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/query"
)

// Every input below is a pure function of the run's seed (and of the
// corpus generated from that seed); the programs under test receive
// only the generated files and requests.

// newRNG returns an independent stream for one purpose, so adding a
// draw to one generator never shifts another.
func newRNG(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// corpusArticles is the size of the corpus every run measures on. It
// is a constant and not a flag: a result line from another size is a
// result of another benchmark.
const corpusArticles = 300000

// generateCorpus builds the synthetic corpus of the run and writes it
// as a SCORP file, the form sarserve -corpus maps and sarank -in loads.
func generateCorpus(articles int, seed int64, path string) (*corpus.Store, error) {
	cfg := gen.NewDefaultConfig(articles)
	cfg.Seed = seed
	c, err := gen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	if err := corpus.WriteSCORPFile(path, c.Store); err != nil {
		return nil, fmt.Errorf("write corpus: %w", err)
	}
	return c.Store, nil
}

// queryReq is one /query request: an entity filter, a year window and
// a page size. An empty key or a zero year leaves that filter open.
type queryReq struct {
	Venue, Author string
	From, To      int
	K             int
}

func (q queryReq) path() string {
	v := url.Values{}
	if q.Venue != "" {
		v.Set("venue", q.Venue)
	}
	if q.Author != "" {
		v.Set("author", q.Author)
	}
	if q.From != 0 {
		v.Set("from", strconv.Itoa(q.From))
	}
	if q.To != 0 {
		v.Set("to", strconv.Itoa(q.To))
	}
	v.Set("k", strconv.Itoa(q.K))
	return "/query?" + v.Encode()
}

// filter resolves the request against the corpus: entity keys to ids,
// open year bounds to the corpus's range.
func (q queryReq) filter(store *corpus.Store) (query.Filter, error) {
	f := query.Filter{Author: -1, Venue: -1, From: q.From, To: q.To, K: q.K}
	lo, hi := store.YearRange()
	if f.From == 0 {
		f.From = lo
	}
	if f.To == 0 {
		f.To = hi
	}
	var ok bool
	if q.Venue != "" {
		if f.Venue, ok = store.VenueByKey(q.Venue); !ok {
			return f, fmt.Errorf("%s: venue unknown to the corpus", q.path())
		}
	}
	if q.Author != "" {
		if f.Author, ok = store.AuthorByKey(q.Author); !ok {
			return f, fmt.Errorf("%s: author unknown to the corpus", q.path())
		}
	}
	return f, nil
}

// Page sizes of the miss class: a venue page is the heavy shape (long
// candidate rows, 200 views to build and marshal), an author page the
// light one.
const (
	venuePageK  = 200
	authorPageK = 50
	hotPageK    = 20
)

// missUniverse enumerates the distinct filter combinations the miss
// class draws from: every venue with every closed year window, then
// every author with every open-ended window. It must stay far larger
// than the server's response cache (4096 entries by default).
type missUniverse struct {
	store   *corpus.Store
	windows [][2]int // closed [from, to] windows over the corpus years
	years   []int
}

func newMissUniverse(store *corpus.Store) *missUniverse {
	lo, hi := store.YearRange()
	u := &missUniverse{store: store}
	for y := lo; y <= hi; y++ {
		u.years = append(u.years, y)
		for z := y; z <= hi; z++ {
			u.windows = append(u.windows, [2]int{y, z})
		}
	}
	return u
}

func (u *missUniverse) venueCombos() int { return u.store.NumVenues() * len(u.windows) }

func (u *missUniverse) size() int { return u.venueCombos() + u.store.NumAuthors()*len(u.years) }

// request maps an index in [0, size) to its filter combination.
func (u *missUniverse) request(i int) queryReq {
	if i < u.venueCombos() {
		w := u.windows[i%len(u.windows)]
		return queryReq{Venue: u.store.Venue(corpus.VenueID(i / len(u.windows))).Key,
			From: w[0], To: w[1], K: venuePageK}
	}
	i -= u.venueCombos()
	return queryReq{Author: u.store.Author(corpus.AuthorID(i / len(u.years))).Key,
		From: u.years[i%len(u.years)], K: authorPageK}
}

// hotSetSize is the number of fixed requests of the hit class; it
// fits the response cache sixteen times over.
const hotSetSize = 256

// hotSet returns the hit class: 256 fixed requests over /article,
// /top and /query, in popularity order (index 0 is the most popular
// under the zipf draw). /query pages use their own page size, so no
// miss-class request ever shares a cache key with them.
func hotSet(u *missUniverse, seed int64) []string {
	rng := newRNG(seed, "hot")
	out := make([]string, hotSetSize)
	for i := range out {
		switch i % 8 {
		case 0, 1, 2:
			id := corpus.ArticleID(rng.Intn(u.store.NumArticles()))
			out[i] = "/article?key=" + url.QueryEscape(u.store.Key(id))
		case 3:
			out[i] = "/top?k=" + strconv.Itoa(10*(1+i/8))
		default:
			q := u.request(rng.Intn(u.size()))
			q.K = hotPageK
			out[i] = q.path()
		}
	}
	return out
}

// hotZipf draws hit-class indices with popularity exponent 1.2.
func hotZipf(seed int64) *rand.Zipf {
	return rand.NewZipf(newRNG(seed, "zipf"), 1.2, 1, hotSetSize-1)
}

// Delta sizes: 0.1 % of a 300k corpus.
const (
	deltaArticles = 300
	deltaRefs     = 3
)

// delta is one ingest batch with what applying it must report.
type delta struct {
	body      []byte
	articles  int
	citations int
	probeKey  string // a new key that must resolve once the batch is visible
}

// makeDelta generates ingest batch number round: new articles in the
// corpus's last year, each with an existing venue, two existing
// authors and three distinct references to existing articles, so no
// reference is dropped or duplicate and the counts are exact.
func makeDelta(store *corpus.Store, seed int64, round int) delta {
	rng := newRNG(seed, "delta"+strconv.Itoa(round))
	_, lastYear := store.YearRange()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	d := delta{articles: deltaArticles, citations: deltaArticles * deltaRefs}
	for j := 0; j < deltaArticles; j++ {
		rec := struct {
			ID      string   `json:"id"`
			Title   string   `json:"title"`
			Year    int      `json:"year"`
			Venue   string   `json:"venue"`
			Authors []string `json:"authors"`
			Refs    []string `json:"refs"`
		}{
			ID:    fmt.Sprintf("n%02d-%05d", round, j),
			Title: fmt.Sprintf("Ingested %d/%d", round, j),
			Year:  lastYear,
			Venue: store.Venue(corpus.VenueID(rng.Intn(store.NumVenues()))).Key,
		}
		for len(rec.Authors) < 2 {
			k := store.Author(corpus.AuthorID(rng.Intn(store.NumAuthors()))).Key
			if len(rec.Authors) == 0 || rec.Authors[0] != k {
				rec.Authors = append(rec.Authors, k)
			}
		}
		seen := map[int]bool{}
		for len(rec.Refs) < deltaRefs {
			id := rng.Intn(store.NumArticles())
			if !seen[id] {
				seen[id] = true
				rec.Refs = append(rec.Refs, store.Key(corpus.ArticleID(id)))
			}
		}
		_ = enc.Encode(rec) // a bytes.Buffer write cannot fail
		d.probeKey = rec.ID
	}
	d.body = buf.Bytes()
	return d
}
