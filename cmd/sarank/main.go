// Command sarank ranks a scholarly corpus with any registered scorer —
// QISA-Rank, its single signals, or one of the compared baselines —
// and prints the top articles (and optionally the top authors and
// venues derived from the article scores).
//
// Usage:
//
//	sarank -in corpus.jsonl -k 20
//	sarank -in corpus.tsv -scorer all -k 5
//	sarank -in corpus.jsonl -scorer citerank -scorer-opt rho=0.5 -k 20
//	sarank -in corpus.scorp -entities
//	sarank -in corpus.jsonl -save-scores ranking.snap
//	sarank -in corpus.tsv -save-corpus corpus.scorp -k 0
//
// With -save-scores the ranking (with every signal component the
// scorer computes) is persisted as a checksummed snapshot, bound to
// the corpus by its fingerprint, that sarserve -scores boots from
// without re-solving; a snapshot of an older format version is
// refused and regenerated with this flag. With -save-corpus
// the loaded corpus is re-emitted as a columnar SCORP file, the
// converter path from any text format to the zero-parse boot format
// sarserve -corpus reads.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"scholarrank/internal/cliutil"
	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/live"
	"scholarrank/internal/obs"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sarank: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run executes the tool against the given arguments and streams; it
// is the testable core of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sarank", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "corpus file ("+cliutil.FormatList()+"; .gz ok); required")
		format   = fs.String("format", "", "corpus format override")
		scorer   = fs.String("scorer", core.DefaultScorer, "registered scorer, or 'all' ("+strings.Join(core.ScorerNames(), ", ")+")")
		k        = fs.Int("k", 20, "number of top articles to print")
		workers  = fs.Int("workers", 0, "mat-vec workers (0 = NumCPU)")
		entities = fs.Bool("entities", false, "also print top authors and venues (derived from article scores)")
		save     = fs.String("save-scores", "", "write the ranking as a snapshot file for sarserve -scores")
		saveCorp = fs.String("save-corpus", "", "write the loaded corpus as a columnar SCORP file for sarserve -corpus")
		trace    = fs.Bool("trace", false, "print per-iteration solver residuals of every iterative stage")
		version  = fs.Bool("version", false, "print build version and exit")
	)
	var sopts core.ScorerOptions
	fs.Func("scorer-opt", "scorer option as key=value (repeatable; see -scorer)", func(kv string) error {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("want key=value, got %q", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("option %s: %w", key, err)
		}
		if sopts == nil {
			sopts = core.ScorerOptions{}
		}
		sopts[key] = f
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, obs.VersionString("sarank"))
		return nil
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("missing -in")
	}
	names := []string{*scorer}
	if *scorer == "all" {
		if *save != "" || sopts != nil {
			return fmt.Errorf("-save-scores and -scorer-opt apply to one scorer, not -scorer all")
		}
		names = core.ScorerNames()
	}

	store, err := cliutil.LoadCorpus(*in, *format)
	if err != nil {
		return err
	}
	if *saveCorp != "" {
		if err := corpus.WriteSCORPFile(*saveCorp, store); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote columnar corpus %s (%d articles, %d bytes resident)\n",
			*saveCorp, store.NumArticles(), store.Bytes())
		// -k 0 with no other output turns the run into a pure format
		// conversion: skip the solve entirely.
		if *k == 0 && *save == "" && !*entities && !*trace {
			return nil
		}
	}
	net := hetnet.Build(store)
	fmt.Fprintf(stderr, "loaded %d articles, %d citations, %d authors, %d venues\n",
		store.NumArticles(), store.NumCitations(), store.NumAuthors(), store.NumVenues())

	opts := core.DefaultOptions()
	opts.Workers = *workers
	if *trace {
		opts.Trace = func(ev core.TraceEvent) {
			fmt.Fprintf(stderr, "trace %-8s iter=%-3d residual=%.3e elapsed=%s\n",
				ev.Phase, ev.Iteration, ev.Residual, ev.Elapsed.Round(time.Microsecond))
		}
	}
	// One engine for every scorer: warm caches are scorer-namespaced,
	// so -scorer all ranks each method exactly as a lone run would.
	eng := core.NewEngine(net)
	for _, name := range names {
		if err := runScorer(stdout, stderr, store, eng, name, sopts, opts, *k, *entities, *save, *trace); err != nil {
			return err
		}
	}
	return nil
}

// printTop prints the top-k articles by score as a table.
func printTop(w io.Writer, store *corpus.Store, scores []float64, k int) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tscore\tyear\tkey\ttitle")
	for pos, i := range rank.TopK(scores, k) {
		a := store.Article(corpus.ArticleID(i))
		title := a.Title
		if len(title) > 60 {
			title = title[:57] + "..."
		}
		fmt.Fprintf(tw, "%d\t%.6g\t%d\t%s\t%s\n", pos+1, scores[i], a.Year, a.Key, title)
	}
	return tw.Flush()
}

// runScorer ranks with one registered scorer, prints its top k
// (headed by the scorer name; the default scorer keeps its historical
// QISA-Rank heading), and optionally persists the ranking as a serving
// snapshot.
func runScorer(stdout, stderr io.Writer, store *corpus.Store, eng *core.Engine, scorer string,
	sopts core.ScorerOptions, opts core.Options, k int, entities bool, savePath string, trace bool) error {
	sc, err := eng.RankScorer(scorer, sopts, opts)
	if err != nil {
		return fmt.Errorf("%s: %w", scorer, err)
	}
	if trace {
		fmt.Fprintf(stderr, "trace solver   back_edge_fraction=%.4g\n", sc.BackEdgeFraction)
	}
	label := scorer
	if scorer == core.DefaultScorer {
		label = "QISA-Rank"
	}
	fmt.Fprintf(stdout, "\n# %s", label)
	// Single-stage scorers report in the prestige slot, under the phase
	// name their trace lines carry: the scorer's own.
	stage := scorer
	if scorer == core.DefaultScorer || scorer == core.ScorerPrestige {
		stage = core.PhasePrestige
	}
	for _, st := range []struct {
		phase string
		stats sparse.IterStats
	}{{stage, sc.PrestigeStats}, {core.PhaseHetero, sc.HeteroStats}} {
		// No wall time here: identical flags must give identical output
		// (-trace reports timings on stderr).
		if st.stats.Iterations > 0 {
			fmt.Fprintf(stdout, " (%s: %d iterations, residual %.2e)", st.phase, st.stats.Iterations, st.stats.Residual)
		}
	}
	fmt.Fprintln(stdout)
	if err := printTop(stdout, store, sc.Importance, k); err != nil {
		return err
	}
	if entities {
		if err := printEntities(stdout, store, eng.Network(), sc.Importance, k); err != nil {
			return err
		}
	}
	if savePath == "" {
		return nil
	}
	snap := live.Capture(store, sc, 1, time.Now().Unix())
	if err := live.WriteSnapshotFile(savePath, snap); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote ranking snapshot %s (%d articles, fingerprint %016x)\n",
		savePath, snap.Articles, snap.Fingerprint)
	return nil
}

// printEntities derives and prints author and venue rankings from the
// article scores, using the shrunk mean so single-article entities do
// not dominate.
func printEntities(w io.Writer, store *corpus.Store, net *hetnet.Network, scores []float64, k int) error {
	authors, err := rank.AuthorRank(net, scores, rank.EntityRankOptions{})
	if err != nil {
		return fmt.Errorf("author ranking: %w", err)
	}
	fmt.Fprintln(w, "\n## top authors")
	for pos, i := range rank.TopK(authors, k) {
		a := store.Author(corpus.AuthorID(i))
		fmt.Fprintf(w, "%3d  %.6g  %s (%d articles)\n",
			pos+1, authors[i], a.Name, len(net.AuthorArticles(corpus.AuthorID(i))))
	}
	venues, err := rank.VenueRank(net, scores, rank.EntityRankOptions{})
	if err != nil {
		return fmt.Errorf("venue ranking: %w", err)
	}
	fmt.Fprintln(w, "\n## top venues")
	for pos, i := range rank.TopK(venues, k) {
		v := store.Venue(corpus.VenueID(i))
		fmt.Fprintf(w, "%3d  %.6g  %s (%d articles)\n",
			pos+1, venues[i], v.Name, len(net.VenueArticles(corpus.VenueID(i))))
	}
	return nil
}
