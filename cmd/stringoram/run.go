package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"stringoram/internal/atomicfile"
	"stringoram/internal/config"
	"stringoram/internal/obs"
	"stringoram/internal/sched"
	"stringoram/internal/sim"
	"stringoram/internal/stats"
	"stringoram/internal/trace"
)

// runSingle implements the "run" subcommand: one fully configurable
// simulation with a human-readable report, the Swiss-army knife for
// exploring the design space beyond the paper's fixed experiments.
func runSingle(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "ferret", "suite workload name (tracegen list)")
	scheduler := fs.String("scheduler", "transaction", "transaction or pb")
	y := fs.Int("y", 8, "CB rate Y")
	stash := fs.Int("stash", 500, "stash size in blocks")
	levels := fs.Int("levels", 16, "ORAM tree levels")
	accesses := fs.Int("accesses", 1000, "ORAM accesses to simulate")
	traceLen := fs.Int("tracelen", 10000, "trace records to generate")
	seed := fs.Uint64("seed", 7, "random seed")
	layout := fs.String("layout", "subtree", "subtree or flat")
	policy := fs.String("policy", "open", "open or close (page policy)")
	uniform := fs.Bool("uniform", false, "uniform slot selection instead of dummy-first")
	warm := fs.Float64("warm", 0.5, "warm-fill occupancy in [0, 0.9]")
	traceFile := fs.String("trace", "", "replay a trace file (tracegen gen) instead of -workload")
	flightrec := fs.String("flightrec", "", "write a cycle-stamped Chrome trace of the run here (open in Perfetto)")
	flightrecCap := fs.Int("flightrec-cap", 1<<16, "flight-recorder capacity in events (ring; oldest dropped)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sys := config.Default()
	sys.ORAM.Levels = *levels
	sys.ORAM.Y = *y
	sys.ORAM.StashSize = *stash
	sys.ORAM.WarmFill = *warm
	sys.ORAM.UniformSelect = *uniform
	sys.Seed = *seed
	switch *scheduler {
	case "transaction":
		sys.Scheduler = config.SchedTransaction
	case "pb":
		sys.Scheduler = config.SchedProactiveBank
	default:
		return fmt.Errorf("unknown scheduler %q (want transaction or pb)", *scheduler)
	}
	switch *layout {
	case "subtree":
		sys.Layout = config.LayoutSubtree
	case "flat":
		sys.Layout = config.LayoutFlat
	default:
		return fmt.Errorf("unknown layout %q (want subtree or flat)", *layout)
	}
	switch *policy {
	case "open":
		sys.DRAM.Policy = config.OpenPage
	case "close":
		sys.DRAM.Policy = config.ClosePage
	default:
		return fmt.Errorf("unknown page policy %q (want open or close)", *policy)
	}
	if err := sys.Validate(); err != nil {
		return err
	}

	// "a+b+c" runs a heterogeneous mix, one workload per core; -trace
	// replays a recorded trace file instead.
	var trs []*trace.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		trs = append(trs, tr)
	} else {
		for _, name := range strings.Split(*workload, "+") {
			p, err := trace.ByName(name)
			if err != nil {
				return err
			}
			tr, err := trace.Generate(p, *traceLen, trace.SeedFor(*seed, p.Name))
			if err != nil {
				return err
			}
			trs = append(trs, tr)
		}
	}
	var res *sim.Result
	var err error
	simOpts := sim.Options{MaxAccesses: *accesses}
	var rec *obs.Recorder[obs.Event]
	if *flightrec != "" {
		if *flightrecCap <= 0 {
			return fmt.Errorf("-flightrec-cap must be positive, got %d", *flightrecCap)
		}
		rec = obs.NewRecorder[obs.Event](*flightrecCap)
		simOpts.FlightRecorder = rec
	}
	if len(trs) == 1 {
		res, err = sim.Run(sys, trs[0], simOpts)
	} else {
		res, err = sim.RunMulti(sys, trs, simOpts)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeFlightRecording(*flightrec, rec); err != nil {
			return err
		}
		fmt.Fprintf(w, "flight recording: %d of %d events retained -> %s (load at https://ui.perfetto.dev)\n",
			rec.Len(), rec.Total(), *flightrec)
	}

	fmt.Fprintf(w, "workload %s: %d ORAM accesses, %d instructions retired, LLC hit rate %s\n",
		res.Workload, res.ORAMAccesses, res.Retired, stats.Pct(res.LLCHitRate))
	if len(trs) > 1 {
		fmt.Fprintf(w, "per-core instructions retired: %v\n", res.PerCore)
	}
	fmt.Fprintf(w, "configuration: Z=%d S=%d Y=%d A=%d levels=%d stash=%d %v/%v/%v\n\n",
		sys.ORAM.Z, sys.ORAM.S, sys.ORAM.Y, sys.ORAM.A, sys.ORAM.Levels, sys.ORAM.StashSize,
		sys.Scheduler, sys.Layout, sys.DRAM.Policy)

	t := stats.NewTable("results", "metric", "value")
	t.AddRowf("execution cycles (memory clock)", res.Cycles)
	t.AddRowf("cycles/access", float64(res.Cycles)/float64(res.ORAMAccesses))
	t.AddRowf("read-path phase", stats.Pct(float64(res.PhaseCycles[sched.TagReadPath])/float64(res.Cycles)))
	t.AddRowf("eviction phase", stats.Pct(float64(res.PhaseCycles[sched.TagEvict])/float64(res.Cycles)))
	t.AddRowf("reshuffle phase", stats.Pct(float64(res.PhaseCycles[sched.TagReshuffle])/float64(res.Cycles)))
	t.AddRowf("bank idle proportion", stats.Pct(res.BankIdle))
	t.AddRowf("read-path row conflicts", stats.Pct(res.Sched.ConflictRate(sched.TagReadPath)))
	t.AddRowf("eviction row conflicts", stats.Pct(res.Sched.ConflictRate(sched.TagEvict)))
	t.AddRowf("avg read-queue wait (cycles)", res.Sched.AvgReadWait())
	t.AddRowf("avg write-queue wait (cycles)", res.Sched.AvgWriteWait())
	t.AddRowf("early PRE / ACT", fmt.Sprintf("%s / %s",
		stats.Pct(res.Sched.EarlyPREFrac()), stats.Pct(res.Sched.EarlyACTFrac())))
	energy := res.Sched.EnergyNJ(config.DDR31600Energy(), res.Cycles,
		sys.DRAM.Channels*sys.DRAM.Ranks)
	t.AddRowf("DRAM energy (uJ, first-order)", energy/1000)
	t.AddRowf("energy per access (nJ)", energy/float64(res.ORAMAccesses))
	t.AddRowf("green blocks per read path", res.ORAM.GreenPerReadPath())
	t.AddRowf("stash peak", res.ORAM.StashPeak)
	t.AddRowf("background evictions", res.ORAM.BackgroundEvictions)
	t.AddRowf("early reshuffles", res.ORAM.EarlyReshuffles)
	return t.Render(w)
}

// writeFlightRecording dumps the recorder as Chrome trace-event JSON
// with atomicfile.Write, so the output file is never a torn document.
func writeFlightRecording(path string, rec *obs.Recorder[obs.Event]) error {
	if err := atomicfile.Write(path, ".flightrec-*", 0o600, func(w io.Writer) error {
		return obs.WriteTrace(w, rec.Snapshot(nil))
	}); err != nil {
		return fmt.Errorf("flightrec: %w", err)
	}
	return nil
}
