// Command sargen generates a synthetic scholarly corpus and writes it
// in JSONL, TSV or columnar SCORP form, optionally together with the
// oracle quality file the evaluation harness consumes.
//
// Usage:
//
//	sargen -n 100000 -seed 7 -out corpus.jsonl [-quality quality.tsv]
//	sargen -n 100000 -seed 7 -out corpus.jsonl -emit-corpus corpus.scorp
//
// -emit-corpus additionally freezes the generated corpus into the
// SCORP columnar format that sarserve -corpus boots from with zero
// parsing.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"scholarrank/internal/cliutil"
	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/graph"
	"scholarrank/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sargen: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run executes the tool against the given arguments and streams; it
// is the testable core of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sargen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n         = fs.Int("n", 20000, "number of articles")
		seed      = fs.Int64("seed", 1, "generator seed")
		out       = fs.String("out", "", "output path (default stdout)")
		format    = fs.String("format", "", "output format, one of "+cliutil.FormatList()+" (default: by extension, jsonl on stdout; aminer is read-only)")
		qualOut   = fs.String("quality", "", "also write per-article latent quality TSV to this path")
		scorpOut  = fs.String("emit-corpus", "", "also write the corpus as a columnar SCORP file to this path")
		meanRefs  = fs.Float64("refs", 12, "mean references per article")
		startYear = fs.Int("start-year", 1970, "first publication year")
		endYear   = fs.Int("end-year", 2017, "last publication year")
		pref      = fs.Float64("pref-attach", 1.0, "preferential attachment exponent")
		rho       = fs.Float64("recency", 0.25, "citing recency decay per year")
		stats     = fs.Bool("stats", false, "print corpus statistics to stderr")
		version   = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, obs.VersionString("sargen"))
		return nil
	}

	cfg := gen.NewDefaultConfig(*n)
	cfg.Seed = *seed
	cfg.MeanRefs = *meanRefs
	cfg.StartYear, cfg.EndYear = *startYear, *endYear
	cfg.PrefAttach = *pref
	cfg.RecencyRho = *rho

	c, err := gen.Generate(cfg)
	if err != nil {
		return err
	}

	if *out != "" {
		// SaveCorpus handles format detection and .gz compression.
		if err := cliutil.SaveCorpus(*out, *format, c.Store); err != nil {
			return err
		}
	} else {
		f := cliutil.FormatJSONL
		if *format != "" {
			f, err = cliutil.DetectFormat("", *format)
			if err != nil {
				return err
			}
		}
		w := bufio.NewWriter(stdout)
		if err := cliutil.WriteCorpus(w, c.Store, f); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}

	if *scorpOut != "" {
		if err := corpus.WriteSCORPFile(*scorpOut, c.Store); err != nil {
			return err
		}
	}

	if *qualOut != "" {
		if err := writeQuality(*qualOut, c); err != nil {
			return err
		}
	}

	if *stats {
		st := graph.ComputeStats(c.Store.CitationGraph())
		fmt.Fprintf(stderr, "%s authors=%d venues=%d\n", st, c.Store.NumAuthors(), c.Store.NumVenues())
	}
	return nil
}

// writeQuality exports the oracle quality vector as key<TAB>value.
func writeQuality(path string, c *gen.Corpus) error {
	qf, err := os.Create(path)
	if err != nil {
		return err
	}
	qw := bufio.NewWriter(qf)
	c.Store.VisitArticles(func(id corpus.ArticleID, a *corpus.Article) {
		fmt.Fprintf(qw, "%s\t%g\n", a.Key, c.Quality[id])
	})
	if err := qw.Flush(); err != nil {
		qf.Close()
		return err
	}
	return qf.Close()
}
