// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VII): each Fig*/Table* function runs the necessary
// simulations and renders the same rows/series the paper reports.
// cmd/stringoram exposes them as subcommands and the repository-root
// benchmarks invoke them as testing.B benchmarks.
//
// Absolute numbers differ from the paper (their substrate was USIMM with
// MSC SimPoint traces; ours is a from-scratch simulator with calibrated
// synthetic traces) — the reproduction targets the paper's *shape*: who
// wins, by roughly what factor, and where behaviour crosses over.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"stringoram/internal/config"
	"stringoram/internal/oram"
	"stringoram/internal/sched"
	"stringoram/internal/sim"
	"stringoram/internal/stats"
	"stringoram/internal/trace"
)

// Scale sizes the simulated runs. The paper simulates 500M-instruction
// SimPoints; these scales trade fidelity for laptop runtime.
type Scale struct {
	// Accesses caps the logical ORAM accesses per run.
	Accesses int
	// TraceLen is the number of memory records generated per workload.
	TraceLen int
	// Levels overrides the ORAM tree height (0 keeps the paper's 24).
	Levels int
	// Seed drives all randomness.
	Seed uint64
}

// Quick is the default scale for smoke runs (every experiment in ~5 s).
func Quick() Scale { return Scale{Accesses: 800, TraceLen: 8000, Levels: 16, Seed: 7} }

// Full is the larger scale used to generate EXPERIMENTS.md (every
// experiment in ~45 s on two cores).
func Full() Scale { return Scale{Accesses: 4000, TraceLen: 40000, Levels: 24, Seed: 7} }

// system builds the paper-default system at this scale. The tree is
// warmed to steady-state occupancy: the paper's setting is a memory full
// of real data (that is what Compact Bucket borrows for obfuscation), so
// an empty tree would understate green-block availability and stash
// pressure alike.
func (s Scale) system() config.System {
	sys := config.Default()
	if s.Levels > 0 {
		sys.ORAM.Levels = s.Levels
	}
	if s.Seed != 0 {
		sys.Seed = s.Seed
	}
	sys.ORAM.WarmFill = 0.5
	return sys
}

// System exposes the scale's configured system (the paper defaults at
// this scale's tree height, warm tree at 0.5).
func (s Scale) System() config.System { return s.system() }

// Scheme enumerates the four evaluated configurations of Fig. 10-12.
type Scheme int

const (
	// SchemeBaseline is Ring ORAM (Y=0) with transaction scheduling.
	SchemeBaseline Scheme = iota
	// SchemeCB adds the Compact Bucket only.
	SchemeCB
	// SchemePB adds the Proactive Bank scheduler only.
	SchemePB
	// SchemeAll is the full String ORAM (CB + PB).
	SchemeAll
	numSchemes
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeBaseline:
		return "Baseline"
	case SchemeCB:
		return "CB"
	case SchemePB:
		return "PB"
	case SchemeAll:
		return "ALL"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Apply configures a system for the scheme, using cbRate as the Y value
// of the CB-enabled schemes.
func (s Scheme) Apply(sys config.System, cbRate int) config.System {
	switch s {
	case SchemeBaseline:
		return sys.WithCBRate(0).WithScheduler(config.SchedTransaction)
	case SchemeCB:
		return sys.WithCBRate(cbRate).WithScheduler(config.SchedTransaction)
	case SchemePB:
		return sys.WithCBRate(0).WithScheduler(config.SchedProactiveBank)
	case SchemeAll:
		return sys.WithCBRate(cbRate).WithScheduler(config.SchedProactiveBank)
	default:
		panic("experiments: unknown scheme")
	}
}

// Runner caches simulation results so Fig. 10, 11 and 12 share one run
// matrix. It is safe for sequential use only.
type Runner struct {
	Scale Scale

	matrixOnce sync.Once
	matrix     map[string][numSchemes]*sim.Result
	matrixErr  error
}

// NewRunner returns a runner at the given scale.
func NewRunner(s Scale) *Runner { return &Runner{Scale: s} }

// workloadTrace generates the synthetic trace for one suite profile.
func (r *Runner) workloadTrace(p trace.Profile) (*trace.Trace, error) {
	return trace.Generate(p, r.Scale.TraceLen, trace.SeedFor(r.Scale.Seed, p.Name))
}

// runJob is one (workload, scheme) simulation.
type runJob struct {
	profile trace.Profile
	scheme  Scheme
}

// Matrix runs (or returns the cached) full workload x scheme simulation
// grid used by Fig. 10-12.
func (r *Runner) Matrix() (map[string][numSchemes]*sim.Result, error) {
	r.matrixOnce.Do(func() {
		suite := trace.Suite()
		var jobs []runJob
		for _, p := range suite {
			for s := SchemeBaseline; s < numSchemes; s++ {
				jobs = append(jobs, runJob{profile: p, scheme: s})
			}
		}
		results := make([]*sim.Result, len(jobs))
		errs := make([]error, len(jobs))
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for i, job := range jobs {
			wg.Add(1)
			//oramlint:allow gostmt each simulation is seed-deterministic in isolation; results land in index-addressed slots and wg.Wait joins before any read
			go func(i int, job runJob) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				tr, err := r.workloadTrace(job.profile)
				if err != nil {
					errs[i] = err
					return
				}
				sys := job.scheme.Apply(r.Scale.system(), config.Default().ORAM.Y)
				res, err := sim.Run(sys, tr, sim.Options{MaxAccesses: r.Scale.Accesses})
				if err != nil {
					errs[i] = fmt.Errorf("%s/%v: %w", job.profile.Name, job.scheme, err)
					return
				}
				results[i] = res
			}(i, job)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				r.matrixErr = err
				return
			}
		}
		m := make(map[string][numSchemes]*sim.Result)
		for i, job := range jobs {
			row := m[job.profile.Name]
			row[job.scheme] = results[i]
			m[job.profile.Name] = row
		}
		r.matrix = m
	})
	return r.matrix, r.matrixErr
}

// Fig4 reproduces Fig. 4: real vs dummy capacity of the bandwidth-optimal
// Ring ORAM configurations at L=23 with 64 B blocks. Purely analytic.
func Fig4() *stats.Table {
	t := stats.NewTable(
		"Fig. 4 — Ring ORAM memory space utilization (L=23, 64B blocks)",
		"config", "Z", "A", "S", "real-GB", "dummy-GB", "total-GB", "efficiency")
	for _, rc := range config.Fig4Configs() {
		o := config.ORAMForRing(rc)
		t.AddRowf(rc.Name, rc.Z, rc.A, rc.S,
			gb(o.RealCapacityBytes()), gb(o.DummyCapacityBytes()),
			gb(o.TotalCapacityBytes()), stats.Pct(o.SpaceEfficiency()))
	}
	return t
}

// TableV reproduces Table V: CB configurations and their space savings
// for Z=8, S=12, L=23. Purely analytic.
func TableV() *stats.Table {
	t := stats.NewTable(
		"Table V — CB configurations and space saving (Z=8, S=12, L=23)",
		"config", "Y", "total-GB", "dummy-%", "paper-total-GB", "paper-dummy-%")
	paperGB := []float64{20, 18, 16, 14, 12}
	paperPct := []string{"60%", "55.6%", "50%", "42.9%", "33.3%"}
	for i, cb := range config.TableVConfigs() {
		o := config.Default().WithCBRate(cb.Y).ORAM
		t.AddRowf(cb.Name, cb.Y, gb(o.TotalCapacityBytes()),
			stats.Pct(o.DummyPercentage()), paperGB[i], paperPct[i])
	}
	return t
}

// Fig5b reproduces Fig. 5(b): row-buffer conflict rate of the read path
// versus the eviction under the subtree layout, per workload.
func (r *Runner) Fig5b() (*stats.Table, error) {
	m, err := r.Matrix()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Fig. 5(b) — Row-buffer conflict rate with subtree layout (paper: read ~0.74, evict ~0.10)",
		"workload", "read-path", "eviction")
	var reads, evicts []float64
	for _, name := range trace.Names() {
		res := m[name][SchemeBaseline]
		rd := res.Sched.ConflictRate(sched.TagReadPath)
		ev := res.Sched.ConflictRate(sched.TagEvict)
		reads = append(reads, rd)
		evicts = append(evicts, ev)
		t.AddRowf(name, rd, ev)
	}
	t.AddRowf("MEAN", stats.Mean(reads), stats.Mean(evicts))
	return t, nil
}

// Fig10 reproduces Fig. 10: normalized execution time of Baseline, CB,
// PB and ALL per workload, with the read/evict/reshuffle/other breakdown
// of the ALL configuration.
func (r *Runner) Fig10() (*stats.Table, error) {
	m, err := r.Matrix()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Fig. 10 — Normalized execution time (paper avg: CB 0.883, PB 0.811, ALL 0.700)",
		"workload", "baseline", "CB", "PB", "ALL", "ALL-read", "ALL-evict", "ALL-reshuffle", "ALL-other")
	var cbs, pbs, alls []float64
	for _, name := range trace.Names() {
		row := m[name]
		base := float64(row[SchemeBaseline].Cycles)
		cb := float64(row[SchemeCB].Cycles) / base
		pb := float64(row[SchemePB].Cycles) / base
		all := float64(row[SchemeAll].Cycles) / base
		cbs, pbs, alls = append(cbs, cb), append(pbs, pb), append(alls, all)
		ar := row[SchemeAll]
		at := float64(ar.Cycles)
		t.AddRowf(name, 1.0, cb, pb, all,
			float64(ar.PhaseCycles[sched.TagReadPath])/at*all,
			float64(ar.PhaseCycles[sched.TagEvict])/at*all,
			float64(ar.PhaseCycles[sched.TagReshuffle])/at*all,
			float64(ar.OtherCycles)/at*all)
	}
	t.AddRowf("AVG", 1.0, stats.Mean(cbs), stats.Mean(pbs), stats.Mean(alls), "", "", "", "")
	return t, nil
}

// Fig11 reproduces Fig. 11: normalized read- and write-queue queuing
// time for the four schemes.
func (r *Runner) Fig11() (*stats.Table, error) {
	m, err := r.Matrix()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Fig. 11 — Normalized request queuing time, total cycles spent queued (paper avg: read CB 0.896/PB 0.775/ALL 0.671; write CB 0.882/PB 0.805/ALL 0.687)",
		"workload", "read-CB", "read-PB", "read-ALL", "write-CB", "write-PB", "write-ALL")
	var acc [6][]float64
	for _, name := range trace.Names() {
		row := m[name]
		baseR := float64(row[SchemeBaseline].Sched.ReadQueueWait)
		baseW := float64(row[SchemeBaseline].Sched.WriteQueueWait)
		vals := []float64{
			float64(row[SchemeCB].Sched.ReadQueueWait) / baseR,
			float64(row[SchemePB].Sched.ReadQueueWait) / baseR,
			float64(row[SchemeAll].Sched.ReadQueueWait) / baseR,
			float64(row[SchemeCB].Sched.WriteQueueWait) / baseW,
			float64(row[SchemePB].Sched.WriteQueueWait) / baseW,
			float64(row[SchemeAll].Sched.WriteQueueWait) / baseW,
		}
		for i, v := range vals {
			acc[i] = append(acc[i], v)
		}
		t.AddRowf(name, vals[0], vals[1], vals[2], vals[3], vals[4], vals[5])
	}
	t.AddRowf("AVG", stats.Mean(acc[0]), stats.Mean(acc[1]), stats.Mean(acc[2]),
		stats.Mean(acc[3]), stats.Mean(acc[4]), stats.Mean(acc[5]))
	return t, nil
}

// Fig12 reproduces Fig. 12: (a) average bank idle time proportion for
// baseline vs PB and (b) the fraction of PRE/ACT PB issues early.
func (r *Runner) Fig12() (*stats.Table, *stats.Table, error) {
	m, err := r.Matrix()
	if err != nil {
		return nil, nil, err
	}
	a := stats.NewTable(
		"Fig. 12(a) — Average bank idle time proportion (paper: baseline 0.660 -> PB 0.407)",
		"workload", "baseline", "PB")
	b := stats.NewTable(
		"Fig. 12(b) — Proportion of commands PB issues early (paper: PRE 0.593, ACT 0.569)",
		"workload", "early-PRE", "early-ACT")
	var bi, pi, ep, ea []float64
	for _, name := range trace.Names() {
		row := m[name]
		bIdle := row[SchemeBaseline].BankIdle
		pIdle := row[SchemePB].BankIdle
		bi, pi = append(bi, bIdle), append(pi, pIdle)
		a.AddRowf(name, bIdle, pIdle)
		pre := row[SchemePB].Sched.EarlyPREFrac()
		act := row[SchemePB].Sched.EarlyACTFrac()
		ep, ea = append(ep, pre), append(ea, act)
		b.AddRowf(name, pre, act)
	}
	a.AddRowf("AVG", stats.Mean(bi), stats.Mean(pi))
	b.AddRowf("AVG", stats.Mean(ep), stats.Mean(ea))
	return a, b, nil
}

// Fig13 reproduces Fig. 13: execution time (CB alone and CB+PB) and
// green blocks fetched per read path as the CB rate Y sweeps over the
// Table V configurations, averaged over a representative workload subset.
func (r *Runner) Fig13() (*stats.Table, error) {
	subset := []string{"black", "libq", "mummer", "stream"}
	t := stats.NewTable(
		"Fig. 13 — CB rate sensitivity (paper: CB 0.98..0.88, ALL 0.79..0.70; green/read 0.167..3.255)",
		"config", "Y", "CB-exec", "ALL-exec", "green/read")
	type point struct{ cb, all, green float64 }
	var baseCycles map[string]float64

	run := func(y int, kind config.SchedulerKind, name string) (*sim.Result, error) {
		p, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		tr, err := r.workloadTrace(p)
		if err != nil {
			return nil, err
		}
		sys := r.Scale.system().WithCBRate(y).WithScheduler(kind)
		return sim.Run(sys, tr, sim.Options{MaxAccesses: r.Scale.Accesses})
	}

	baseCycles = make(map[string]float64)
	for _, name := range subset {
		res, err := run(0, config.SchedTransaction, name)
		if err != nil {
			return nil, err
		}
		baseCycles[name] = float64(res.Cycles)
	}
	for _, cb := range config.TableVConfigs() {
		if cb.Y == 0 {
			t.AddRowf(cb.Name, 0, 1.0, "", 0.0)
			continue
		}
		var pt point
		var cbv, allv, greens []float64
		for _, name := range subset {
			resCB, err := run(cb.Y, config.SchedTransaction, name)
			if err != nil {
				return nil, err
			}
			resAll, err := run(cb.Y, config.SchedProactiveBank, name)
			if err != nil {
				return nil, err
			}
			cbv = append(cbv, float64(resCB.Cycles)/baseCycles[name])
			allv = append(allv, float64(resAll.Cycles)/baseCycles[name])
			greens = append(greens, resCB.ORAM.GreenPerReadPath())
		}
		pt = point{stats.Mean(cbv), stats.Mean(allv), stats.Mean(greens)}
		t.AddRowf(cb.Name, cb.Y, pt.cb, pt.all, pt.green)
	}
	return t, nil
}

// Fig14 reproduces Fig. 14: normalized execution time and background
// eviction counts across stash sizes and CB rates on a mixed workload.
func (r *Runner) Fig14() (*stats.Table, error) {
	t := stats.NewTable(
		"Fig. 14 — Stash size vs performance and background evictions (paper: stash 200 + Y>=6 triggers background evictions; stash 500 none).\n"+
			"Green-block inflow scales with tree occupancy; the 20/40-block rows show the same crossover at this run's proportionally lower stash pressure.",
		"stash", "Y", "norm-exec", "bg-evictions", "bg-dummy-reads", "stash-peak")
	tr, err := r.mixTrace()
	if err != nil {
		return nil, err
	}
	// Normalize against the paper's default point (stash 500, Y=0).
	baseRes, err := sim.Run(r.Scale.system().WithCBRate(0).WithStashSize(500), tr,
		sim.Options{MaxAccesses: r.Scale.Accesses})
	if err != nil {
		return nil, err
	}
	base := float64(baseRes.Cycles)
	for _, stash := range []int{20, 40, 200, 500} {
		for _, cb := range config.TableVConfigs() {
			sys := r.Scale.system().WithCBRate(cb.Y).WithStashSize(stash)
			res, err := sim.Run(sys, tr, sim.Options{MaxAccesses: r.Scale.Accesses})
			if err != nil {
				return nil, err
			}
			t.AddRowf(stash, cb.Y, float64(res.Cycles)/base, res.ORAM.BackgroundEvictions,
				res.ORAM.BackgroundDummyReads, res.ORAM.StashPeak)
		}
	}
	return t, nil
}

// mixTrace builds the mixed-pressure workload used by the stash studies:
// write-heavy with a concentrated hot set so green fetches accumulate.
func (r *Runner) mixTrace() (*trace.Trace, error) {
	p := trace.Profile{
		Name: "stashmix", MPKI: 20, WriteFrac: 0.4,
		FootprintBytes: 32 << 20, StreamFrac: 0.2, ZipfTheta: 0.4, Streams: 4,
	}
	return trace.Generate(p, r.Scale.TraceLen, trace.SeedFor(r.Scale.Seed, p.Name))
}

// Fig15 reproduces Fig. 15: run-time stash occupancy for each CB rate at
// the given stash size, downsampled to at most points entries per curve.
func (r *Runner) Fig15(stashSize, points int) (*stats.Table, error) {
	tr, err := r.mixTrace()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("Fig. 15 — Run-time stash occupancy (stash size %d)", stashSize),
		"access#", "Y=0", "Y=2", "Y=4", "Y=6", "Y=8")
	curves := make(map[int][]float64)
	var xs []int
	for _, cb := range config.TableVConfigs() {
		sys := r.Scale.system().WithCBRate(cb.Y).WithStashSize(stashSize)
		res, err := sim.Run(sys, tr, sim.Options{MaxAccesses: r.Scale.Accesses, CollectStash: true})
		if err != nil {
			return nil, err
		}
		x, y := stats.Downsample(res.StashSamples, points)
		curves[cb.Y] = y
		if len(x) > len(xs) {
			xs = x
		}
	}
	for i, x := range xs {
		cell := func(y int) interface{} {
			if i < len(curves[y]) {
				return curves[y][i]
			}
			return ""
		}
		t.AddRowf(x, cell(0), cell(2), cell(4), cell(6), cell(8))
	}
	return t, nil
}

// Ablations quantifies the design choices DESIGN.md calls out, on one
// representative workload at the runner's scale:
//
//   - subtree vs flat layout (the Fig. 5(a) motivation): row-buffer
//     conflict rates and execution time;
//   - open-page vs close-page policy (Section II-C's assumption);
//   - dummy-first vs uniform read-path slot selection (green-block
//     aggressiveness vs stash pressure).
func (r *Runner) Ablations() (*stats.Table, error) {
	p, err := trace.ByName("ferret")
	if err != nil {
		return nil, err
	}
	tr, err := r.workloadTrace(p)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Ablations — design choices on workload ferret (normalized to the default configuration)",
		"variant", "norm-exec", "read-conflict", "evict-conflict", "green/read", "stash-peak")

	run := func(sys config.System) (*sim.Result, error) {
		return sim.Run(sys, tr, sim.Options{MaxAccesses: r.Scale.Accesses})
	}
	def := r.Scale.system()
	baseRes, err := run(def)
	if err != nil {
		return nil, err
	}
	base := float64(baseRes.Cycles)
	add := func(name string, res *sim.Result) {
		t.AddRowf(name, float64(res.Cycles)/base,
			res.Sched.ConflictRate(sched.TagReadPath),
			res.Sched.ConflictRate(sched.TagEvict),
			res.ORAM.GreenPerReadPath(), res.ORAM.StashPeak)
	}
	add("default (subtree, open-page, dummy-first)", baseRes)

	flat, err := run(def.WithLayout(config.LayoutFlat))
	if err != nil {
		return nil, err
	}
	add("flat layout", flat)

	closePage, err := run(def.WithPagePolicy(config.ClosePage))
	if err != nil {
		return nil, err
	}
	add("close-page policy", closePage)

	uni := def
	uni.ORAM.UniformSelect = true
	uniRes, err := run(uni)
	if err != nil {
		return nil, err
	}
	add("uniform slot selection", uniRes)

	balanced, err := sim.Run(def, tr, sim.Options{MaxAccesses: r.Scale.Accesses, BalanceChannels: true})
	if err != nil {
		return nil, err
	}
	add("imbalance-aware selection [35]", balanced)

	return t, nil
}

// Mixes evaluates heterogeneous multiprogrammed workloads (the CMP
// setting the paper's related work CP-ORAM [34] targets): four-core
// mixes of memory-bound and compute-bound applications under the
// baseline and full String ORAM. Reported per mix: normalized execution
// time of ALL vs baseline, and each configuration's fairness (minimum /
// maximum per-core retired instructions — 1.0 is perfectly fair).
func (r *Runner) Mixes() (*stats.Table, error) {
	mixes := [][]string{
		{"libq", "mummer", "libq", "mummer"},  // memory-bound pair
		{"black", "swapt", "black", "swapt"},  // compute-leaning pair
		{"libq", "black", "mummer", "stream"}, // mixed pressure
		{"leslie", "freq", "face", "ferret"},  // four-way mix
	}
	t := stats.NewTable(
		"Mixes — heterogeneous 4-core workloads: String ORAM speedup and fairness",
		"mix", "ALL-norm-exec", "fairness-base", "fairness-ALL")

	fairness := func(perCore []int64) float64 {
		if len(perCore) == 0 {
			return 0
		}
		mn, mx := perCore[0], perCore[0]
		for _, v := range perCore {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if mx == 0 {
			return 0
		}
		return float64(mn) / float64(mx)
	}

	for _, names := range mixes {
		var trs []*trace.Trace
		for _, n := range names {
			p, err := trace.ByName(n)
			if err != nil {
				return nil, err
			}
			tr, err := r.workloadTrace(p)
			if err != nil {
				return nil, err
			}
			trs = append(trs, tr)
		}
		opts := sim.Options{MaxAccesses: r.Scale.Accesses}
		base, err := sim.RunMulti(SchemeBaseline.Apply(r.Scale.system(), 8), trs, opts)
		if err != nil {
			return nil, err
		}
		all, err := sim.RunMulti(SchemeAll.Apply(r.Scale.system(), 8), trs, opts)
		if err != nil {
			return nil, err
		}
		t.AddRowf(strings.Join(names, "+"),
			float64(all.Cycles)/float64(base.Cycles),
			fairness(base.PerCore), fairness(all.PerCore))
	}
	return t, nil
}

// Protocols measures the introduction's Ring-vs-Path claim in execution
// time on the full cycle-accurate memory system: the same workload under
// Path ORAM (Z=4), baseline Ring ORAM and full String ORAM, on identical
// DRAM. This is the end-to-end justification for building on Ring ORAM.
func (r *Runner) Protocols() (*stats.Table, error) {
	p, err := trace.ByName("ferret")
	if err != nil {
		return nil, err
	}
	tr, err := r.workloadTrace(p)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Protocols — execution time on identical DRAM (paper intro: Ring cuts overall bandwidth 2.3-4x vs Path)",
		"protocol", "cycles", "norm", "blocks/access")

	pathSys := r.Scale.system().WithCBRate(0)
	pathSys.ORAM.Z = 4 // the canonical Path ORAM bucket size
	pathRes, err := sim.Run(pathSys, tr, sim.Options{MaxAccesses: r.Scale.Accesses, PathORAM: true})
	if err != nil {
		return nil, err
	}
	ringRes, err := sim.Run(r.Scale.system().WithCBRate(0), tr, sim.Options{MaxAccesses: r.Scale.Accesses})
	if err != nil {
		return nil, err
	}
	allRes, err := sim.Run(SchemeAll.Apply(r.Scale.system(), config.Default().ORAM.Y), tr,
		sim.Options{MaxAccesses: r.Scale.Accesses})
	if err != nil {
		return nil, err
	}
	base := float64(pathRes.Cycles)
	blocks := func(res *sim.Result) float64 {
		return float64(res.Sched.ReadReqs+res.Sched.WriteReqs) / float64(res.ORAMAccesses)
	}
	t.AddRowf("Path ORAM (Z=4)", pathRes.Cycles, 1.0, blocks(pathRes))
	t.AddRowf("Ring ORAM baseline", ringRes.Cycles, float64(ringRes.Cycles)/base, blocks(ringRes))
	t.AddRowf("String ORAM (CB+PB)", allRes.Cycles, float64(allRes.Cycles)/base, blocks(allRes))
	return t, nil
}

// Bandwidth reproduces the introduction's Ring-vs-Path bandwidth claims:
// analytic online/overall blocks per access for Path ORAM (Z=4) and each
// Fig. 4 Ring configuration (with the XOR technique), plus a measured
// functional run of both protocols.
func Bandwidth(accesses int, seed uint64) (*stats.Table, error) {
	t := stats.NewTable(
		"Ring vs Path ORAM bandwidth (paper intro: overall 2.3-4x, online >60x)",
		"construction", "online-blk", "overall-blk", "overall-vs-path", "online-vs-path")
	path := oram.PathBandwidth(4, 24)
	t.AddRowf("Path ORAM Z=4 (analytic)", path.Online, path.Overall, 1.0, 1.0)
	for _, rc := range config.Fig4Configs() {
		o := config.ORAMForRing(rc)
		o.TreeTopCacheLevels = 0
		bw := oram.RingBandwidth(o, true)
		t.AddRowf(fmt.Sprintf("Ring %s Z=%d,A=%d,S=%d (analytic, XOR)", rc.Name, rc.Z, rc.A, rc.S),
			bw.Online, bw.Overall, path.Overall/bw.Overall, path.Online/bw.Online)
	}

	// Measured: run both protocols functionally over the same stream.
	ringCfg := config.ORAM{Z: 8, S: 12, Y: 0, A: 8, Levels: 14, TreeTopCacheLevels: 0, BlockSize: 64, StashSize: 500}
	ring, err := oram.NewRing(ringCfg, seed, nil)
	if err != nil {
		return nil, err
	}
	po, err := oram.NewPath(4, 14, 64, 500, seed, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < accesses; i++ {
		id := oram.BlockID(i % 512)
		if _, _, err := ring.Access(id, i%3 == 0, nil); err != nil {
			return nil, err
		}
		if _, _, err := po.Access(id, i%3 == 0, nil); err != nil {
			return nil, err
		}
	}
	rb := oram.MeasuredBandwidth(ring.Stats())
	pb := oram.MeasuredBandwidth(po.Stats())
	t.AddRowf("Path ORAM Z=4 (measured, L=13)", pb.Online, pb.Overall, 1.0, 1.0)
	t.AddRowf("Ring Z=8,A=8,S=12 (measured, L=13, no XOR)", rb.Online, rb.Overall, pb.Overall/rb.Overall, pb.Online/rb.Online)
	return t, nil
}

// gb converts bytes to GiB.
func gb(b int64) float64 { return float64(b) / float64(1<<30) }
