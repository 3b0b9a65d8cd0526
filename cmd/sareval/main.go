// Command sareval runs the reproduction experiment suite (DESIGN.md
// §3) and renders every table and figure as text, optionally also as
// CSV files.
//
// Usage:
//
//	sareval -run all            # full-size corpora (~1 minute)
//	sareval -run T2 -quick      # one experiment on shrunken corpora
//	sareval -run all -csv out/  # also write out/T2.csv etc.
//	sareval -leaderboard -quick # rank one corpus with every registered scorer
//	sareval -leaderboard -json leaderboard.json
//
// With -leaderboard the experiment suite is skipped: instead every
// registered core scorer ranks the same synthetic corpus on a shared
// engine, and the tool prints per-scorer solve cost plus the pairwise
// agreement matrix (Kendall τ-b, Spearman ρ, top-K overlap). -json
// additionally writes the results as a machine-readable artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"scholarrank/internal/experiments"
	"scholarrank/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sareval: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run executes the tool against the given arguments and streams; it
// is the testable core of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sareval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID       = fs.String("run", "all", "experiment id ("+experimentIDs()+") or 'all'")
		quick       = fs.Bool("quick", false, "use shrunken corpora (seconds instead of minutes)")
		workers     = fs.Int("workers", 0, "mat-vec workers (0 = NumCPU)")
		seed        = fs.Int64("seed", 0, "seed offset for variance studies")
		csvDir      = fs.String("csv", "", "directory to also write per-table CSV files")
		leaderboard = fs.Bool("leaderboard", false, "rank one corpus with every registered core scorer and print the agreement matrix")
		topK        = fs.Int("topk", 100, "top-K cutoff for the leaderboard overlap metric")
		jsonPath    = fs.String("json", "", "write leaderboard results as a JSON artifact")
		version     = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, obs.VersionString("sareval"))
		return nil
	}

	opts := experiments.Options{Quick: *quick, Workers: *workers, Seed: *seed}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	if *leaderboard {
		if *topK <= 0 {
			return fmt.Errorf("-topk must be positive, got %d", *topK)
		}
		return runLeaderboard(stdout, opts, *topK, *jsonPath, *csvDir)
	}
	if *jsonPath != "" {
		return fmt.Errorf("-json only applies to -leaderboard runs")
	}

	var list []experiments.Experiment
	if strings.EqualFold(*runID, "all") {
		list = experiments.All()
	} else {
		e, err := experiments.ByID(strings.ToUpper(*runID))
		if err != nil {
			return err
		}
		list = []experiments.Experiment{e}
	}

	for _, e := range list {
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			fmt.Fprintln(stdout)
			if err := t.Render(stdout); err != nil {
				return err
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(stdout, "(%s finished in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// experimentIDs lists every registered experiment id for the -run
// help, so the help cannot drift from the registry.
func experimentIDs() string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

func writeCSV(dir string, t *experiments.Table) error {
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
