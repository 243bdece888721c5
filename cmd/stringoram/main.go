// Command stringoram regenerates the paper's evaluation tables and
// figures from the simulator. Each subcommand corresponds to one
// experiment; see DESIGN.md for the experiment index.
//
// Usage:
//
//	stringoram <experiment> [flags]
//
// Run it without arguments for the experiments and flags: usage prints
// them from the subcommands list, which also drives dispatch and "all".
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stringoram/internal/experiments"
	"stringoram/internal/stats"
)

// subcommand is one experiment the CLI runs by name.
type subcommand struct {
	name, desc string
	inAll      bool // "all" runs it
	run        func(c *cli) error
}

// cli is what a subcommand runs against: the runner at the parsed scale,
// the parsed flags and the output.
type cli struct {
	r     *experiments.Runner
	csv   bool
	stash int
	dir   string
	w     io.Writer
}

// show renders t, or returns err if it is set, and ends with a blank line.
func (c *cli) show(t *stats.Table, err error) error {
	if err != nil {
		return err
	}
	if c.csv {
		err = t.RenderCSV(c.w)
	} else {
		err = t.Render(c.w)
	}
	if err == nil {
		_, err = fmt.Fprintln(c.w)
	}
	return err
}

// subcommands lists every experiment in the order "all" runs them.
var subcommands = []subcommand{
	{"fig4", "Ring ORAM memory space utilization (analytic)", true,
		func(c *cli) error { return c.show(experiments.Fig4(), nil) }},
	{"tablev", "CB configurations and space saving (analytic)", true,
		func(c *cli) error { return c.show(experiments.TableV(), nil) }},
	{"fig5b", "row-buffer conflict rate, read path vs eviction", true,
		func(c *cli) error { return c.show(c.r.Fig5b()) }},
	{"fig10", "normalized execution time (Baseline/CB/PB/ALL)", true,
		func(c *cli) error { return c.show(c.r.Fig10()) }},
	{"fig11", "normalized request queuing time", true,
		func(c *cli) error { return c.show(c.r.Fig11()) }},
	{"fig12", "bank idle time and early-command proportions", true, func(c *cli) error {
		a, b, err := c.r.Fig12()
		if err = c.show(a, err); err != nil {
			return err
		}
		return c.show(b, nil)
	}},
	{"fig13", "CB rate sensitivity sweep", true,
		func(c *cli) error { return c.show(c.r.Fig13()) }},
	{"fig14", "stash size vs background evictions", true,
		func(c *cli) error { return c.show(c.r.Fig14()) }},
	{"fig15", "run-time stash occupancy traces at -stash", true,
		func(c *cli) error { return c.show(c.r.Fig15(c.stash, experiments.Fig15Points)) }},
	{"bandwidth", "Ring vs Path ORAM bandwidth comparison", true,
		func(c *cli) error { return c.show(experiments.Bandwidth(2000, c.r.Scale.Seed)) }},
	{"protocols", "Path vs Ring vs String ORAM execution time", true,
		func(c *cli) error { return c.show(c.r.Protocols()) }},
	{"ablations", "layout, page policy and slot-selection ablations", true,
		func(c *cli) error { return c.show(c.r.Ablations()) }},
	{"timeline", "per-bank command timelines (Fig. 6 vs Fig. 8)", true, func(c *cli) error {
		s, err := c.r.Timeline(120)
		if err == nil {
			_, err = fmt.Fprintln(c.w, s)
		}
		return err
	}},
	{"stashbound", "Monte Carlo tail of peak stash occupancy", false,
		func(c *cli) error { return c.show(c.r.StashBound(40, c.r.Scale.Accesses, nil)) }},
	{"hardware", "controller SRAM and DRAM-metadata budget (analytic)", false,
		func(c *cli) error { return c.show(experiments.Hardware(c.r.Scale.System()), nil) }},
	{"plot", "render the charted figures as SVG files into -dir", false, func(c *cli) error {
		paths, err := c.r.RenderFigures(c.dir, c.stash)
		for _, p := range paths {
			fmt.Fprintln(c.w, "wrote", p)
		}
		return err
	}},
}

func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "usage: stringoram <experiment> [flags]\n\nexperiments:")
	all := ""
	for _, s := range subcommands {
		fmt.Fprintf(w, "  %-11s %s\n", s.name, s.desc)
		if s.inAll {
			all += " " + s.name
		}
	}
	fmt.Fprintf(w, "  %-11s %s\n", "all", "in order:"+all)
	fmt.Fprintf(w, "  %-11s %s\n", "run", "one custom simulation; see stringoram run -h")
	fmt.Fprintln(w, "flags:")
	fs.SetOutput(w)
	fs.PrintDefaults()
}

func main() {
	// SIGINT/SIGTERM cancel the context: the "all" loop stops between
	// experiments and plot's atomic writes mean output files are either
	// complete or absent, never truncated.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stringoram:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stringoram", flag.ContinueOnError)
	scaleName := fs.String("scale", "quick", "simulation scale: quick or full")
	accesses := fs.Int("accesses", 0, "override ORAM accesses per run")
	levels := fs.Int("levels", 0, "override ORAM tree levels")
	seed := fs.Uint64("seed", 0, "override random seed")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	stash := fs.Int("stash", 200, "stash size of Fig. 15, for fig15 and plot")
	dir := fs.String("dir", "figures", "output directory for plot")
	if len(args) == 0 {
		usage(os.Stderr, fs)
		return fmt.Errorf("missing experiment name")
	}
	exp := args[0]
	if exp == "run" {
		return runSingle(args[1:], w)
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick()
	case "full":
		scale = experiments.Full()
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}
	if *accesses > 0 {
		scale.Accesses = *accesses
	}
	if *levels > 0 {
		scale.Levels = *levels
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	c := &cli{r: experiments.NewRunner(scale), csv: *csv, stash: *stash, dir: *dir, w: w}

	if exp == "all" {
		start := time.Now()
		for _, s := range subcommands {
			if !s.inAll {
				continue
			}
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("interrupted before %s: %w", s.name, err)
			}
			if err := s.run(c); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		fmt.Fprintf(w, "all experiments completed in %v (scale=%s, accesses=%d, levels=%d)\n",
			time.Since(start).Round(time.Millisecond), *scaleName, scale.Accesses, scale.Levels)
		return nil
	}
	for _, s := range subcommands {
		if s.name == exp {
			return s.run(c)
		}
	}
	usage(os.Stderr, fs)
	return fmt.Errorf("unknown experiment %q", exp)
}
