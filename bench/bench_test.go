package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"scholarrank/internal/corpus"
	"scholarrank/internal/live"
)

func TestHighestPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{8, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {35000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(v, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(v, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(v, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
	q1, q3 = quartiles([]float64{2, 4, 4, 5, 9})
	if q1 != 3 || q3 != 7 {
		t.Errorf("quartiles = %v, %v, want 3, 7", q1, q3)
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("queue;dur=0.001, cache;dur=0.003, index;dur=0.926, corpus;dur=0.020, total;dur=1.228")
	want := map[string]float64{"queue": 0.001, "cache": 0.003, "index": 0.926, "corpus": 0.02, "total": 1.228}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	got = parseServerTiming(`walk;desc="personalised walk";dur=12.5,miss, bad;dur=x, ;dur=1`)
	if !reflect.DeepEqual(got, map[string]float64{"walk": 12.5}) {
		t.Errorf("parsed %v, want only walk=12.5", got)
	}
	if got := parseServerTiming(""); len(got) != 0 {
		t.Errorf("empty header parsed to %v", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsarserve\nVmPeak:\t 1000000 kB\nVmHWM:\t  520248 kB\nVmRSS:\t  400000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 520248.0/1024 {
		t.Errorf("parseVmHWM = %v, %v; want %v", got, err, 520248.0/1024)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) did not fail", bad)
		}
	}
}

func TestSelfTimeIsDurationMinusCoveredChildTime(t *testing.T) {
	spans := []*span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},   // overlaps span 2 by 10
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120},  // sticks out of the parent by 20
		{ID: 5, Parent: 2, StartNS: 15, EndNS: 20},   // a grandchild covers nothing of span 1
		{ID: 6, Parent: 0, StartNS: 200, EndNS: 250}, // a second root
	}
	fillSelfTimes(spans)
	want := map[int]int64{1: 100 - (50 + 10), 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 50}
	for _, s := range spans {
		if s.SelfNS != want[s.ID] {
			t.Errorf("span %d self time %d, want %d", s.ID, s.SelfNS, want[s.ID])
		}
	}
}

func TestRecorderLinksSpansAndMeasuresAllocation(t *testing.T) {
	rec := newRecorder("run-1")
	root := rec.start("root", 0, false)
	var sink []byte
	child := rec.timed("child", root.ID, func() { sink = make([]byte, 1<<20) })
	rec.end(root)
	_ = sink
	if child.Parent != root.ID || child.Run != "run-1" || root.Run != "run-1" {
		t.Errorf("child %+v not linked to root %+v in run-1", child, root)
	}
	if child.AllocBytes < 1<<20 || child.Allocs == 0 {
		t.Errorf("child recorded %d bytes in %d allocations, want at least 1 MiB", child.AllocBytes, child.Allocs)
	}
	if child.StartNS < root.StartNS || child.EndNS > root.EndNS {
		t.Errorf("child [%d,%d] outside root [%d,%d]", child.StartNS, child.EndNS, root.StartNS, root.EndNS)
	}
	path, err := rec.write(t.TempDir(), "w", map[string]string{"seed": "1"}, map[string]float64{"m": 2})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "trace-w.json" {
		t.Errorf("trace written to %s", path)
	}
}

// testCorpus generates a small corpus; the generators under test only
// need keys, years and sizes.
func testCorpus(t *testing.T, seed int64) *corpus.Store {
	return testCorpusOf(t, 2000, seed)
}

func testCorpusOf(t *testing.T, articles int, seed int64) *corpus.Store {
	t.Helper()
	store, err := generateCorpus(articles, seed, filepath.Join(t.TempDir(), "c.scorp"))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	a, b := testCorpus(t, 5), testCorpus(t, 5)
	if live.Fingerprint(a) != live.Fingerprint(b) {
		t.Fatal("the same seed generated two different corpora")
	}
	if other := testCorpus(t, 6); live.Fingerprint(a) == live.Fingerprint(other) {
		t.Fatal("different seeds generated the same corpus")
	}

	if !reflect.DeepEqual(hotSet(newMissUniverse(a), 5), hotSet(newMissUniverse(b), 5)) {
		t.Error("hot set differs between two runs of one seed")
	}
	if reflect.DeepEqual(hotSet(newMissUniverse(a), 5), hotSet(newMissUniverse(a), 6)) {
		t.Error("hot set does not depend on the seed")
	}

	d1, d2 := makeDelta(a, 5, 0), makeDelta(b, 5, 0)
	if !bytes.Equal(d1.body, d2.body) || d1.probeKey != d2.probeKey {
		t.Error("delta differs between two runs of one seed")
	}
	if bytes.Equal(d1.body, makeDelta(a, 5, 1).body) {
		t.Error("successive deltas of one run are identical")
	}

	ra, rb := newRNG(5, "miss"), newRNG(5, "miss")
	ua, ub := newMissUniverse(a), newMissUniverse(b)
	for i := 0; i < 100; i++ {
		if pa, pb := ua.request(ra.Intn(ua.size())).path(), ub.request(rb.Intn(ub.size())).path(); pa != pb {
			t.Fatalf("miss request %d differs between two runs of one seed: %s vs %s", i, pa, pb)
		}
	}
	za, zb := hotZipf(5), hotZipf(5)
	for i := 0; i < 100; i++ {
		if za.Uint64() != zb.Uint64() {
			t.Fatal("zipf draws differ between two runs of one seed")
		}
	}
}

func TestMissUniverseAndHotSetSizes(t *testing.T) {
	// The benchmark corpus has 600 venues and 30k authors over 48
	// years: 600*1176 + 30000*48 combinations. Already a tenth of it
	// must clear 100k, and every index must give its own request.
	store := testCorpusOf(t, 30000, 5)
	u := newMissUniverse(store)
	if u.size() < 100000 {
		t.Errorf("miss universe holds %d combinations, want at least 100000", u.size())
	}
	seen := map[string]bool{}
	step := u.size()/5000 + 1
	for i := 0; i < u.size(); i += step {
		p := u.request(i).path()
		if seen[p] {
			t.Fatalf("miss universe repeats %s", p)
		}
		seen[p] = true
	}
	first, last := u.request(0), u.request(u.size()-1)
	if first.Venue == "" || first.K != venuePageK || last.Author == "" || last.K != authorPageK {
		t.Errorf("universe ends are %+v and %+v, want a venue page and an author page", first, last)
	}

	hot := hotSet(u, 5)
	if len(hot) != hotSetSize || hotSetSize != 256 {
		t.Errorf("hot set has %d requests, want 256", len(hot))
	}
	routes := map[string]int{}
	for _, p := range hot {
		routes[p[:strings.Index(p, "?")]]++
		if strings.HasPrefix(p, "/query") && !strings.Contains(p, "k=20") {
			t.Errorf("hot request %s shares a page size with the miss class", p)
		}
	}
	if routes["/article"] != 96 || routes["/top"] != 32 || routes["/query"] != 128 {
		t.Errorf("hot set routes %v, want 96 /article, 32 /top, 128 /query", routes)
	}
	z := hotZipf(5)
	for i := 0; i < 10000; i++ {
		if v := z.Uint64(); v >= hotSetSize {
			t.Fatalf("zipf drew %d, outside the hot set", v)
		}
	}
}

func TestDeltaAppliesExactly(t *testing.T) {
	store := testCorpus(t, 5)
	for round := 0; round < 2; round++ {
		d := makeDelta(store, 5, round)
		b := store.Thaw()
		stats, err := live.ApplyDelta(b, bytes.NewReader(d.body))
		if err != nil {
			t.Fatal(err)
		}
		if stats.NewArticles != d.articles || stats.NewCitations != d.citations ||
			stats.DuplicateCitations != 0 || stats.DroppedRefs != 0 {
			t.Errorf("round %d applied as %+v, generated %d articles and %d citations", round, stats, d.articles, d.citations)
		}
		if d.articles != 300 || d.citations != 900 {
			t.Errorf("delta holds %d articles and %d citations, want 300 and 900", d.articles, d.citations)
		}
		if _, ok := b.ArticleByKey(d.probeKey); !ok {
			t.Errorf("probe key %s is not in the applied delta", d.probeKey)
		}
	}
}

func TestCheckQueryPage(t *testing.T) {
	store := testCorpus(t, 5)
	venue := store.Venue(0).Key
	lo, hi := store.YearRange()
	var matching []articleView
	for id := 0; id < store.NumArticles(); id++ {
		if store.VenueOf(corpus.ArticleID(id)) == 0 {
			matching = append(matching, articleView{Key: store.Key(corpus.ArticleID(id)), Rank: len(matching) + 1})
		}
	}
	if len(matching) < 3 {
		t.Skip("venue 0 too small in this corpus")
	}
	req := queryReq{Venue: venue, From: lo, To: hi, K: 2}
	body := func(p queryResponse) []byte {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	good := queryResponse{Count: 2, Results: matching[:2], NextCursor: "x"}
	if err := checkQueryPage(store, req, body(good)); err != nil {
		t.Errorf("a correct page was rejected: %v", err)
	}
	noCursor := good
	noCursor.NextCursor = ""
	short := queryResponse{Count: 1, Results: matching[:1], NextCursor: "x"}
	unordered := queryResponse{Count: 2, Results: []articleView{matching[1], matching[0]}, NextCursor: "x"}
	var stranger articleView
	for id := 0; id < store.NumArticles(); id++ {
		if store.VenueOf(corpus.ArticleID(id)) != 0 {
			stranger = articleView{Key: store.Key(corpus.ArticleID(id)), Rank: 1}
			break
		}
	}
	wrongVenue := queryResponse{Count: 2, Results: []articleView{stranger, matching[1]}, NextCursor: "x"}
	for name, p := range map[string]queryResponse{"missing cursor": noCursor, "short page": short,
		"ranks out of order": unordered, "result outside the filter": wrongVenue} {
		if err := checkQueryPage(store, req, body(p)); err == nil {
			t.Errorf("%s was accepted", name)
		}
	}
}

func TestResultLineCarriesEveryWantedMetric(t *testing.T) {
	res := &result{workload: "w"}
	res.add("setup_s", "s", 1.5, 1)
	res.op(nil)
	want := []specMetric{{Name: "setup_s", Unit: "s"}, {Name: "not.exercised", Unit: "ms"}}
	line, err := resultLine(res, want)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 1 || got.Failed != 0 || len(got.Metrics) != 2 ||
		got.Metrics["setup_s"].Value != 1.5 || got.Metrics["not.exercised"].Value != 0 || got.Metrics["not.exercised"].Unit != "ms" {
		t.Errorf("result line %s", line)
	}
	res.op(errNoSamples)
	line, _ = resultLine(res, want)
	if !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"failed":1`) {
		t.Errorf("a failed check left the result line %s", line)
	}
}

func TestRepeatForMeetsItsShareToTheNearestOperation(t *testing.T) {
	n := 0
	took, err := repeatFor(0, 3, func() (time.Duration, error) { n++; return time.Millisecond, nil })
	if err != nil || len(took) != 3 || n != 3 {
		t.Errorf("a zero share ran %d operations, want the minimum of 3", n)
	}
}

func TestHostDrift(t *testing.T) {
	a := calibration{triadGBps: 10, rttUS: 20}
	if hostDrift(a, calibration{triadGBps: 10.9, rttUS: 21}) {
		t.Error("9 % and 5 % apart flagged as drift")
	}
	if !hostDrift(a, calibration{triadGBps: 8.9, rttUS: 20}) {
		t.Error("triad 12 % apart not flagged")
	}
	if !hostDrift(a, calibration{triadGBps: 10, rttUS: 23}) {
		t.Error("round trip 15 % apart not flagged")
	}
}

func TestPairBoundsAgreeWithTheSpec(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > 0.25 {
			t.Errorf("BENCHMARK.json bounds %s at %v, above the gate's cap", m.Name, m.Bound)
		}
		for _, w := range workloads {
			b, ok := pairBounds[w.name][m.Name]
			if !ok || b <= 0 || b > m.Bound {
				t.Errorf("%s on %s has bound %v, want one in (0, %v], the file's bound for the name", m.Name, w.name, b, m.Bound)
			}
		}
	}
}

func TestDerivedBound(t *testing.T) {
	for _, c := range []struct{ maxDiff, spread, want float64 }{
		{0.01, 0.03, 0.10}, // never below 10 %
		{0.06, 0.04, 0.15}, // twice the difference, rounded up to 5 %
		{0.02, 0.16, 0.20}, // never below the spread
		{0.05, 0.10, 0.10}, // an exact multiple stays
	} {
		if got := derivedBound(c.maxDiff, c.spread); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("derivedBound(%v, %v) = %v, want %v", c.maxDiff, c.spread, got, c.want)
		}
	}
}

func TestStageSumCheckCountsAsAnOperation(t *testing.T) {
	r := &run{res: &result{}}
	secs := func(v ...float64) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, s := range v {
			out[i] = time.Duration(s * float64(time.Second))
		}
		return out
	}
	r.checkStageSum("w.stage_sum_ratio", secs(4.4, 3.9, 4.0), secs(5.5, 5.3, 4.1))
	if r.res.attempted != 1 || r.res.failed != 0 {
		t.Errorf("3.9 of 4.1 s: %d attempted, %d failed, want 1 and 0", r.res.attempted, r.res.failed)
	}
	r.checkStageSum("w.stage_sum_ratio", secs(3.0, 3.1, 3.2), secs(4.1, 4.2, 4.0))
	if r.res.attempted != 2 || r.res.failed != 1 {
		t.Errorf("3.0 of 4.0 s: %d attempted, %d failed, want 2 and 1", r.res.attempted, r.res.failed)
	}
}
