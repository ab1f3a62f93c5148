// Command experiments regenerates the paper-reproduction tables E1–E20
// (see DESIGN.md §4 for the experiment index). By default it runs every
// experiment with the quick profile and prints aligned text tables;
// -profile full produces the heavyweight numbers, -format md/csv switches
// the output format, and -doc emits the whole generated EXPERIMENTS.md
// document (index, every table, per-experiment seeds and wall-clock).
//
// Replicates run on the internal/mc pool with pre-derived seeds, so any
// table — and the -doc output up to its wall-clock lines — is
// byte-reproducible from (-profile, -seed) regardless of -workers. That
// is what lets CI regenerate EXPERIMENTS.md and fail on drift.
//
//	experiments                      # all experiments, quick profile
//	experiments -id E5               # one experiment
//	experiments -profile full -format md > results.md
//	experiments -profile quick -doc > EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"plurality/internal/expt"
)

func main() {
	var (
		id      = flag.String("id", "all", "experiment id (E1..E20) or 'all'")
		profile = flag.String("profile", "quick", "workload profile: quick | full")
		format  = flag.String("format", "text", "output format: text | md | csv")
		seed    = flag.Uint64("seed", 2014, "base random seed (2014 = SPAA year of the paper)")
		workers = flag.Int("workers", 0, "replicate parallelism (0 = GOMAXPROCS)")
		list    = flag.Bool("list", false, "list the registered experiments and exit")
		doc     = flag.Bool("doc", false, "emit the generated EXPERIMENTS.md document to stdout")
	)
	flag.Parse()

	if *list {
		for _, e := range expt.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	var p expt.Profile
	switch *profile {
	case "quick":
		p = expt.Quick
	case "full":
		p = expt.Full
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown profile %q\n", *profile)
		os.Exit(1)
	}
	p.Workers = *workers

	if *doc {
		// The doc is the whole document — a partial or reformatted one
		// would silently diverge from the committed EXPERIMENTS.md.
		if *id != "all" || *format != "text" {
			fmt.Fprintln(os.Stderr, "experiments: -doc emits the full markdown document; it cannot be combined with -id or -format")
			os.Exit(1)
		}
		writeDoc(os.Stdout, p, *seed)
		return
	}

	var toRun []expt.Experiment
	if *id == "all" {
		toRun = expt.All()
	} else {
		e, ok := expt.ByID(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q\n", *id)
			os.Exit(1)
		}
		toRun = []expt.Experiment{e}
	}

	for _, e := range toRun {
		start := time.Now()
		tables := e.Run(p, *seed)
		elapsed := time.Since(start).Round(time.Millisecond)
		for _, t := range tables {
			switch *format {
			case "md":
				fmt.Println(t.Markdown())
			case "csv":
				fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			default:
				fmt.Println(t.Text())
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %s]\n", e.ID, elapsed)
	}
}

// writeDoc renders the full EXPERIMENTS.md document: provenance header,
// experiment index, and every table in markdown with a wall-clock line.
// Everything except the "_wall-clock:" lines is deterministic for a fixed
// (profile, seed), which is what the CI staleness check relies on (it
// normalizes those lines before diffing).
func writeDoc(w io.Writer, p expt.Profile, seed uint64) {
	fmt.Fprintf(w, "# EXPERIMENTS — generated paper-reproduction tables\n\n")
	fmt.Fprintf(w, "**Generated file — do not edit by hand.** Regenerate with:\n\n")
	fmt.Fprintf(w, "```\ngo run ./cmd/experiments -profile %s -seed %d -doc > EXPERIMENTS.md\n```\n\n", p.Name, seed)
	fmt.Fprintf(w, "Profile `%s` (n=%d, %d replicates per sweep point), base seed %d.\n", p.Name, p.N, p.Reps, seed)
	fmt.Fprintf(w, "Every table is reproducible from the seed and independent of `-workers`;\n")
	fmt.Fprintf(w, "CI regenerates this file (normalizing the wall-clock lines) and fails on\n")
	fmt.Fprintf(w, "drift. `-profile full` yields tighter numbers with the same layout; see\n")
	fmt.Fprintf(w, "DESIGN.md §4 for what each experiment reproduces.\n\n")

	all := expt.All()
	fmt.Fprintf(w, "## Index\n\n| ID | Title |\n|---|---|\n")
	for _, e := range all {
		fmt.Fprintf(w, "| %s | %s |\n", e.ID, e.Title)
	}
	fmt.Fprintln(w)

	for _, e := range all {
		start := time.Now()
		tables := e.Run(p, seed)
		elapsed := time.Since(start).Round(time.Millisecond)
		for _, t := range tables {
			fmt.Fprintln(w, t.Markdown())
		}
		fmt.Fprintf(w, "_wall-clock: %s (%s, profile %s, seed %d)_\n\n", elapsed, e.ID, p.Name, seed)
	}
}
