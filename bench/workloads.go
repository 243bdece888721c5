package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"stringoram"
	"stringoram/internal/config"
	"stringoram/internal/experiments"
	"stringoram/internal/sim"
	"stringoram/internal/trace"
)

// runCfg is one run of one workload, as the driver asks for it.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks data sizes and sets up once, for the self-test.
	smoke  bool
	outDir string    // where the traced run writes its trace file
	log    io.Writer // named metrics, human-readable
}

// runResult is the driver's result line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (rc runCfg) dur(share float64) time.Duration {
	return time.Duration(rc.seconds * share * float64(time.Second))
}

func (rc runCfg) setupReps() int {
	if rc.smoke {
		return 1
	}
	return 5
}

// scaled shrinks a data size for the smoke run.
func (rc runCfg) scaled(n int) int {
	if rc.smoke {
		return n / 8
	}
	return n
}

// Workload sizes (ISSUE 13): trees one level above the preloaded key
// count, so no shard approaches its capacity.
const (
	ringLevels = 16
	ringBlocks = 16384
	// inFlight is the closed-loop depth per connection in the saturating
	// phase.
	inFlight = 16
	// phaseSlices is how many interleaved slices the serial and the
	// saturating phase of a run are each cut into.
	phaseSlices = 4
)

func (rc runCfg) kvParams() kvParams {
	switch rc.workload {
	case wNode:
		return kvParams{nodes: 1, shards: 2, levels: 14, keys: rc.scaled(8192)}
	case wClusterGet, wClusterPut:
		return kvParams{nodes: 3, shards: 6, levels: 12, keys: rc.scaled(4096)}
	}
	panic("bench: " + rc.workload + " is not a key-value workload")
}

func (rc runCfg) putPct() int {
	switch rc.workload {
	case wClusterGet:
		return 0
	case wClusterPut:
		return 100
	}
	return 50
}

// run measures one workload and returns the result line.
func run(rc runCfg) (runResult, error) {
	var (
		ms  *metricSet
		acc tally
		err error
	)
	switch {
	case rc.workload == wRing && !rc.trace:
		ms, acc, err = ringEndToEnd(rc)
	case rc.workload == wRing:
		ms, acc, err = ringLayers(rc)
	case rc.workload == wSim && !rc.trace:
		ms, acc, err = simEndToEnd(rc)
	case rc.workload == wSim:
		ms, acc, err = simLayers(rc)
	case !rc.trace:
		ms, acc, err = kvEndToEnd(rc)
	default:
		ms, acc, err = kvLayers(rc)
	}
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", rc.workload, err)
	}
	for _, d := range ms.defs {
		fmt.Fprintf(rc.log, "%-14s %-38s %16.4f %s\n", rc.workload, d.name, ms.get(d.name), d.unit)
	}
	return runResult{
		Correct:   acc.failed == 0,
		Attempted: acc.attempted,
		Failed:    acc.failed,
		Metrics:   ms.json(),
	}, nil
}

// tally is the correctness account of a run: every operation attempted
// (preload included) against those that failed, were refused or returned
// a wrong value, or, for a simulation, did not repeat its reference.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(attempted, failed int64) {
	t.attempted += attempted
	t.failed += failed
}

func (t *tally) addPhase(r phaseResult) { t.add(r.ops, r.failed) }

// heapMiB forces a collection and returns the live heap. HeapAlloc, not
// HeapInuse: span granularity and the fragmentation earlier set-ups leave
// moved HeapInuse by 10% on the small heap of the simulator workload.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// repeatSetup builds the system reps times, tearing down all but the last,
// and returns the last one with the median set-up time and the median
// heap after set-up. build returns the system's teardown.
func repeatSetup[T any](reps int, build func() (T, func(), error)) (sys T, teardown func(), setupS, heap float64, err error) {
	var times, heaps []float64
	for i := 0; i < reps; i++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC() // the previous round's garbage is not this round's cost
		t0 := time.Now()
		sys, teardown, err = build()
		if err != nil {
			return sys, nil, 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		heaps = append(heaps, heapMiB())
	}
	return sys, teardown, median(times), median(heaps), nil
}

// reportLatency prints the sample count beside the percentiles and flags
// a p99 the sample does not support.
func reportLatency(rc runCfg, label string, sorted []uint32) {
	n := len(sorted)
	fmt.Fprintf(rc.log, "%-14s %s over the whole run: n=%d, p50=%.3f us, p99=%.3f us (%d beyond), p999=%.3f us, highest supported percentile p%g\n",
		rc.workload, label, n, quantileNs(sorted, 0.5), quantileNs(sorted, 0.99), samplesBeyond(n, 0.99), quantileNs(sorted, 0.999), highestSupported(n)*100)
}

// ---- ring-sealed ----

type ringSystem struct {
	ring *stringoram.Ring
	o    *oracle
	load tally
}

func buildRing(rc runCfg) (*ringSystem, func(), error) {
	cfg := stringoram.DefaultServerORAM(ringLevels)
	ring, err := stringoram.NewFunctionalRing(cfg, rc.seed, benchKey)
	if err != nil {
		return nil, nil, err
	}
	rs := &ringSystem{ring: ring, o: newOracle(rc.scaled(ringBlocks))}
	rs.load.add(preload(rs.o, []target{ringTarget{ring}}, 1, cfg.BlockSize))
	return rs, func() {}, nil
}

func ringEndToEnd(rc runCfg) (*metricSet, tally, error) {
	rs, _, setupS, heap, err := repeatSetup(rc.setupReps(), func() (*ringSystem, func(), error) { return buildRing(rc) })
	if err != nil {
		return nil, tally{}, err
	}
	acc := rs.load
	ph := phase{
		name: "ring", seed: rc.seed, targets: []target{ringTarget{rs.ring}}, workers: 1,
		dur: rc.dur(1), putPct: rc.putPct(), valLen: rs.ring.Config().BlockSize,
		sampleCap: int(rc.seconds * 400e3),
	}
	res := ph.run(rs.o)
	acc.addPhase(res)
	reportLatency(rc, "access latency", res.all)

	ms := newMetricSet(endToEnd)
	ms.set("setup_s", setupS)
	ms.set("heap_mb", heap)
	ms.set("ops_per_s", windowThroughput(res.counts, res.window))
	ms.set("p50_us", windowLatency(res.perWindow, 0.50))
	return ms, acc, nil
}

// ---- node1-treetop, cluster3-get, cluster3-put ----

type kvSystem struct {
	*system
	o    *oracle
	load tally
}

func buildKV(p kvParams, seed uint64) (*kvSystem, func(), error) {
	sys, err := startSystem(p, seed)
	if err != nil {
		return nil, nil, err
	}
	ks := &kvSystem{system: sys, o: newOracle(p.keys)}
	ks.load.add(preload(ks.o, sys.targets, len(sys.targets)*inFlight, kvValueLen))
	return ks, sys.close, nil
}

// serialPhase is the unloaded phase: one connection, one in flight.
func (ks *kvSystem) serialPhase(rc runCfg, name string, t target, dur time.Duration) phase {
	return phase{
		name: name, seed: rc.seed, targets: []target{t}, workers: 1, dur: dur,
		putPct: rc.putPct(), valLen: kvValueLen, sampleCap: int(dur.Seconds()*100e3) + 1,
	}
}

// satPhase is the saturating phase: every connection, inFlight deep.
func (ks *kvSystem) satPhase(rc runCfg, name string, dur time.Duration) phase {
	workers := len(ks.targets) * inFlight
	return phase{
		name: name, seed: rc.seed, targets: ks.targets, workers: workers, dur: dur,
		putPct: rc.putPct(), valLen: kvValueLen, sampleCap: int(dur.Seconds()*400e3)/workers + 1,
	}
}

func kvEndToEnd(rc runCfg) (*metricSet, tally, error) {
	p := rc.kvParams()
	ks, teardown, setupS, heap, err := repeatSetup(rc.setupReps(), func() (*kvSystem, func(), error) { return buildKV(p, rc.seed) })
	if err != nil {
		return nil, tally{}, err
	}
	defer teardown()
	acc := ks.load

	// Latency comes from the unloaded phase, throughput from the
	// saturated one: unloaded latency repeats and the layer ladder can
	// decompose it; saturated tails are a layer metric.
	var serial, sat phaseResult
	for i := 0; i < phaseSlices; i++ {
		sp := ks.serialPhase(rc, fmt.Sprintf("serial-%d", i), ks.targets[0], rc.dur(0.5/phaseSlices))
		serial.merge(sp.run(ks.o))
		st := ks.satPhase(rc, fmt.Sprintf("sat-%d", i), rc.dur(0.5/phaseSlices))
		sat.merge(st.run(ks.o))
	}
	acc.addPhase(serial)
	acc.addPhase(sat)
	reportLatency(rc, "unloaded latency", serial.all)

	ms := newMetricSet(endToEnd)
	ms.set("setup_s", setupS)
	ms.set("heap_mb", heap)
	ms.set("ops_per_s", windowThroughput(sat.counts, sat.window))
	ms.set("p50_us", windowLatency(serial.perWindow, 0.50))
	return ms, acc, nil
}

// ---- sim-fig10 ----

// The scale bench_test.go's BenchmarkFig10ExecutionTime uses.
const (
	simWorkload = "mummer"
	simAccesses = 500
	simTraceLen = 5000
	simLevels   = 14
	simCBRate   = 8
)

var simSchemes = []experiments.Scheme{
	experiments.SchemeBaseline, experiments.SchemeCB, experiments.SchemePB, experiments.SchemeAll,
}

type simSystem struct {
	sys config.System
	tr  *trace.Trace
	// ref is each scheme's result from the untimed reference pass every
	// timed pass must reproduce.
	ref []*sim.Result
}

func buildSim(rc runCfg) (*simSystem, func(), error) {
	p, err := trace.ByName(simWorkload)
	if err != nil {
		return nil, nil, err
	}
	tr, err := trace.Generate(p, simTraceLen, trace.SeedFor(rc.seed, p.Name))
	if err != nil {
		return nil, nil, err
	}
	ss := &simSystem{sys: config.Default(), tr: tr}
	ss.sys.ORAM.Levels = simLevels
	ss.sys.Seed = rc.seed
	ss.sys.ORAM.WarmFill = 0.5
	ss.ref, err = ss.pass(nil)
	return ss, func() {}, err
}

// pass simulates the trace once under each of the four schemes; observe,
// when set, is told when each simulation ran.
func (ss *simSystem) pass(observe func(scheme int, t0, t1 time.Time)) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(simSchemes))
	for i, scheme := range simSchemes {
		t0 := time.Now()
		res, err := sim.Run(scheme.Apply(ss.sys, simCBRate), ss.tr, sim.Options{MaxAccesses: simAccesses})
		if err != nil {
			return nil, fmt.Errorf("%v: %w", scheme, err)
		}
		if observe != nil {
			observe(i, t0, time.Now())
		}
		out[i] = res
	}
	return out, nil
}

// check counts a pass against the reference pass. A simulator speed-up must
// leave every simulated statistic identical, so all are compared, not just
// the cycle count.
func (ss *simSystem) check(got []*sim.Result, acc *tally) {
	for i, res := range got {
		ref := ss.ref[i]
		acc.attempted++
		if res.Cycles != ref.Cycles || res.ORAMAccesses != ref.ORAMAccesses || res.Retired != ref.Retired ||
			res.ORAM != ref.ORAM || res.Sched != ref.Sched || res.BankIdle != ref.BankIdle {
			acc.failed++
		}
	}
}

// simWindow is the window of the simulator's loop: a four-scheme pass
// takes ~70 ms, so a window of a second holds about fourteen.
func simWindow(dur time.Duration) time.Duration {
	if dur >= 8*time.Second {
		return time.Second
	}
	return dur / 8
}

type simRun struct {
	window    time.Duration
	counts    []float64  // simulated ORAM accesses per window
	perWindow [][]uint32 // pass times in ns, by the window a pass ended in
	passes    []uint32   // every pass time, sorted
}

// simLoop runs passes for dur. An operation is one four-scheme pass (the
// unit a user of the simulator waits for); throughput counts simulated
// ORAM accesses per host second. A scheme whose statistics differ from the
// reference pass is a failure.
func (ss *simSystem) simLoop(dur time.Duration, acc *tally) (simRun, error) {
	run := simRun{window: simWindow(dur)}
	start := time.Now()
	for {
		t0 := time.Now()
		got, err := ss.pass(nil)
		if err != nil {
			return run, err
		}
		t1 := time.Now()
		ss.check(got, acc)
		var accesses int64
		for _, res := range got {
			accesses += res.ORAMAccesses
		}
		// A pass is long against a window: spread its accesses evenly
		// over the windows it ran in, or throughput reads in steps.
		begin, since := t0.Sub(start), t1.Sub(start)
		last := int(since / run.window)
		for len(run.counts) <= last {
			run.counts = append(run.counts, 0)
			run.perWindow = append(run.perWindow, nil)
		}
		for w := int(begin / run.window); w <= last; w++ {
			lo := max(begin, time.Duration(w)*run.window)
			hi := min(since, time.Duration(w+1)*run.window)
			run.counts[w] += float64(accesses) * float64(hi-lo) / float64(since-begin)
		}
		ns := uint32(min(t1.Sub(t0), putFlag-1))
		run.perWindow[last] = append(run.perWindow[last], ns)
		run.passes = append(run.passes, ns)
		if since >= dur {
			break
		}
	}
	full := len(fullWindows(run.perWindow, func(w []uint32) bool { return len(w) == 0 }))
	run.counts, run.perWindow = run.counts[:full], run.perWindow[:full]
	for _, win := range run.perWindow {
		slices.Sort(win)
	}
	slices.Sort(run.passes)
	return run, nil
}

func simEndToEnd(rc runCfg) (*metricSet, tally, error) {
	ss, _, setupS, heap, err := repeatSetup(rc.setupReps(), func() (*simSystem, func(), error) { return buildSim(rc) })
	if err != nil {
		return nil, tally{}, err
	}
	var acc tally
	sr, err := ss.simLoop(rc.dur(1), &acc)
	if err != nil {
		return nil, acc, err
	}
	reportLatency(rc, "four-scheme pass time", sr.passes)

	ms := newMetricSet(endToEnd)
	ms.set("setup_s", setupS)
	ms.set("heap_mb", heap)
	ms.set("ops_per_s", windowThroughput(sr.counts, sr.window))
	ms.set("p50_us", windowLatency(sr.perWindow, 0.50))
	return ms, acc, nil
}
