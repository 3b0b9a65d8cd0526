// Command sarank ranks a scholarly corpus with any of the implemented
// algorithms and prints the top articles (and optionally the top
// authors and venues derived from the article scores).
//
// Usage:
//
//	sarank -in corpus.jsonl -algo QISA-Rank -k 20
//	sarank -in corpus.tsv -algo all -k 5
//	sarank -in corpus.scorp -entities
//	sarank -in corpus.jsonl -save-scores ranking.snap
//	sarank -in corpus.tsv -save-corpus corpus.scorp -k 0
//	sarank -in corpus.jsonl -scorer ewpr -scorer-opt damping=0.9 -k 20
//
// With -save-scores the full QISA ranking (all signal components) is
// persisted as a checksummed snapshot that sarserve -scores boots
// from without re-solving. With -save-corpus the loaded corpus is
// re-emitted as a columnar SCORP file, the converter path from any
// text format to the zero-parse boot format sarserve -corpus reads.
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
	"scholarrank/internal/experiments"
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
		algo     = fs.String("algo", "QISA-Rank", "algorithm, or 'all' ("+cliutil.MethodNames()+")")
		scorer   = fs.String("scorer", "", "registered core scorer ("+strings.Join(core.ScorerNames(), ", ")+"); overrides -algo and works with -save-scores and -trace")
		k        = fs.Int("k", 20, "number of top articles to print")
		workers  = fs.Int("workers", 0, "mat-vec workers (0 = NumCPU)")
		entities = fs.Bool("entities", false, "also print top authors and venues (derived from article scores)")
		save     = fs.String("save-scores", "", "write the QISA ranking as a snapshot file for sarserve -scores")
		saveCorp = fs.String("save-corpus", "", "write the loaded corpus as a columnar SCORP file for sarserve -corpus")
		trace    = fs.Bool("trace", false, "print per-iteration solver residuals for the prestige and hetero phases (QISA-Rank only)")
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
	if *scorer == "" {
		if *save != "" && !strings.EqualFold(*algo, "QISA-Rank") {
			return fmt.Errorf("-save-scores persists the full signal breakdown and needs -algo QISA-Rank or -scorer, not %q", *algo)
		}
		if *trace && !strings.EqualFold(*algo, "QISA-Rank") {
			return fmt.Errorf("-trace hooks the core solver loops and needs -algo QISA-Rank or -scorer, not %q", *algo)
		}
	}
	if sopts != nil && *scorer == "" {
		return fmt.Errorf("-scorer-opt needs -scorer")
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

	if *scorer != "" || *save != "" || *trace {
		name := *scorer
		if name == "" {
			name = core.DefaultScorer
		}
		return runScorer(stdout, stderr, store, net, name, sopts, *workers, *k, *entities, *save, *trace)
	}

	var methods []experiments.Method
	if strings.EqualFold(*algo, "all") {
		methods = experiments.Methods()
	} else {
		m, err := cliutil.MethodByName(*algo)
		if err != nil {
			return err
		}
		methods = []experiments.Method{m}
	}

	for _, m := range methods {
		res, err := m.Run(net, *workers)
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
		fmt.Fprintf(stdout, "\n# %s", m.Name)
		if res.Stats.Iterations > 0 {
			fmt.Fprintf(stdout, " (%d iterations, residual %.2e)", res.Stats.Iterations, res.Stats.Residual)
		}
		fmt.Fprintln(stdout)
		if err := printTop(stdout, store, res.Scores, *k); err != nil {
			return err
		}
		if *entities {
			if err := printEntities(stdout, store, net, res.Scores, *k); err != nil {
				return err
			}
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

// runScorer runs one registered core scorer (all signal components it
// produces, not just the blended score), optionally streaming
// per-iteration solver residuals and optionally persisting the result
// as a serving snapshot. The default scorer keeps its historical
// QISA-Rank heading.
func runScorer(stdout, stderr io.Writer, store *corpus.Store, net *hetnet.Network,
	scorer string, sopts core.ScorerOptions, workers, k int, entities bool, savePath string, trace bool) error {
	opts := core.DefaultOptions()
	opts.Workers = workers
	if trace {
		opts.Trace = func(ev core.TraceEvent) {
			fmt.Fprintf(stderr, "trace %-8s iter=%-3d residual=%.3e elapsed=%s\n",
				ev.Phase, ev.Iteration, ev.Residual, ev.Elapsed.Round(time.Microsecond))
		}
	}
	sc, err := core.RankScorer(net, scorer, sopts, opts)
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
	for _, st := range []struct {
		phase string
		stats sparse.IterStats
	}{{"prestige", sc.PrestigeStats}, {"hetero", sc.HeteroStats}} {
		if st.stats.Iterations > 0 {
			fmt.Fprintf(stdout, " (%s: %d iterations, residual %.2e, %s)",
				st.phase, st.stats.Iterations, st.stats.Residual, st.stats.Elapsed.Round(time.Microsecond))
		}
	}
	fmt.Fprintln(stdout)
	if err := printTop(stdout, store, sc.Importance, k); err != nil {
		return err
	}
	if entities {
		if err := printEntities(stdout, store, net, sc.Importance, k); err != nil {
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
