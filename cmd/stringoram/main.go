// Command stringoram regenerates the paper's evaluation tables and
// figures from the simulator. Each subcommand corresponds to one
// experiment; see DESIGN.md for the experiment index.
//
// Usage:
//
//	stringoram <experiment> [flags]
//
// Experiments:
//
//	fig4       Ring ORAM memory space utilization (analytic)
//	fig5b      row-buffer conflict rate, read path vs eviction
//	fig10      normalized execution time (Baseline/CB/PB/ALL)
//	fig11      normalized request queuing time
//	fig12      bank idle time and early-command proportions
//	fig13      CB rate sensitivity sweep
//	fig14      stash size vs background evictions
//	fig15      run-time stash occupancy traces
//	tablev     CB configurations and space saving (analytic)
//	bandwidth  Ring vs Path ORAM bandwidth comparison
//	all        every experiment above, in order
//
// Flags:
//
//	-scale quick|full   simulation scale (default quick)
//	-accesses N         override ORAM accesses per run
//	-levels N           override tree levels
//	-seed N             override random seed
//	-csv                emit CSV instead of aligned tables
//	-stash N            stash size for fig15 (default 200)
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

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: stringoram <experiment> [flags]

experiments: fig4 fig5b fig10 fig11 fig12 fig13 fig14 fig15 tablev bandwidth protocols ablations mixes timeline stashbound hardware all
             run    (single custom simulation; see stringoram run -h)
             plot   (render the figures as SVG files into -dir)
flags:`)
	flag.CommandLine.SetOutput(w)
	flag.PrintDefaults()
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
	if len(args) == 0 {
		usage(os.Stderr)
		return fmt.Errorf("missing experiment name")
	}
	exp := args[0]
	if exp == "run" {
		return runSingle(args[1:], w)
	}

	fs := flag.NewFlagSet("stringoram", flag.ContinueOnError)
	scaleName := fs.String("scale", "quick", "simulation scale: quick or full")
	accesses := fs.Int("accesses", 0, "override ORAM accesses per run")
	levels := fs.Int("levels", 0, "override ORAM tree levels")
	seed := fs.Uint64("seed", 0, "override random seed")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	stash := fs.Int("stash", 200, "stash size for fig15")
	dir := fs.String("dir", "figures", "output directory for plot")
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

	render := func(t *stats.Table) error {
		var err error
		if *csv {
			err = t.RenderCSV(w)
		} else {
			err = t.Render(w)
		}
		if err == nil {
			_, err = fmt.Fprintln(w)
		}
		return err
	}

	r := experiments.NewRunner(scale)
	dispatch := map[string]func() error{
		"fig4":   func() error { return render(experiments.Fig4()) },
		"tablev": func() error { return render(experiments.TableV()) },
		"fig5b": func() error {
			t, err := r.Fig5b()
			if err != nil {
				return err
			}
			return render(t)
		},
		"fig10": func() error {
			t, err := r.Fig10()
			if err != nil {
				return err
			}
			return render(t)
		},
		"fig11": func() error {
			t, err := r.Fig11()
			if err != nil {
				return err
			}
			return render(t)
		},
		"fig12": func() error {
			a, b, err := r.Fig12()
			if err != nil {
				return err
			}
			if err := render(a); err != nil {
				return err
			}
			return render(b)
		},
		"fig13": func() error {
			t, err := r.Fig13()
			if err != nil {
				return err
			}
			return render(t)
		},
		"fig14": func() error {
			t, err := r.Fig14()
			if err != nil {
				return err
			}
			return render(t)
		},
		"fig15": func() error {
			t, err := r.Fig15(*stash, 40)
			if err != nil {
				return err
			}
			return render(t)
		},
		"bandwidth": func() error {
			t, err := experiments.Bandwidth(2000, scale.Seed)
			if err != nil {
				return err
			}
			return render(t)
		},
		"ablations": func() error {
			t, err := r.Ablations()
			if err != nil {
				return err
			}
			return render(t)
		},
		"timeline": func() error {
			s, err := r.Timeline(120)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, s)
			return err
		},
		"mixes": func() error {
			t, err := r.Mixes()
			if err != nil {
				return err
			}
			return render(t)
		},
		"protocols": func() error {
			t, err := r.Protocols()
			if err != nil {
				return err
			}
			return render(t)
		},
		"hardware": func() error {
			return render(experiments.Hardware(scale.System()))
		},
		"stashbound": func() error {
			t, err := r.StashBound(40, scale.Accesses, nil)
			if err != nil {
				return err
			}
			return render(t)
		},
		"plot": func() error {
			paths, err := r.RenderFigures(*dir)
			if err != nil {
				return err
			}
			for _, p := range paths {
				fmt.Fprintln(w, "wrote", p)
			}
			return nil
		},
	}

	order := []string{"fig4", "tablev", "fig5b", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "bandwidth", "protocols", "ablations", "mixes", "timeline"}
	if exp == "all" {
		start := time.Now()
		for _, name := range order {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("interrupted before %s: %w", name, err)
			}
			if err := dispatch[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		fmt.Fprintf(w, "all experiments completed in %v (scale=%s, accesses=%d, levels=%d)\n",
			time.Since(start).Round(time.Millisecond), *scaleName, scale.Accesses, scale.Levels)
		return nil
	}
	fn, ok := dispatch[exp]
	if !ok {
		usage(os.Stderr)
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return fn()
}
