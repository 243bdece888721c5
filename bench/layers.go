package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"stringoram"
	"stringoram/internal/config"
	"stringoram/internal/obs"
	"stringoram/internal/oram"
	"stringoram/internal/sched"
	"stringoram/internal/trace"
)

// The traced run (-trace 1). Every layer is measured from outside, by
// timing and counting calls into its public functions; the only spans read
// from inside the program are the ones it already emits (PR 10). A layer
// the workload never executes keeps its metrics at 0.

// exactOps is the fixed number of operations the exact counts are taken
// over, so that they repeat bit for bit on one seed whatever the host does.
const exactOps = 8192

// procMeter measures what the process spent over a stretch of work.
type procMeter struct {
	cpu time.Duration
	mem runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startProcMeter() *procMeter {
	pm := &procMeter{cpu: cpuTime()}
	runtime.ReadMemStats(&pm.mem)
	return pm
}

// stop reports the process cost of ops operations since start.
func (pm *procMeter) stop(ms *metricSet, ops int64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	n := float64(max(ops, 1))
	ms.set("proc.cpu_us_per_op", float64(cpuTime()-pm.cpu)/1e3/n)
	ms.set("proc.allocs_per_op", float64(now.Mallocs-pm.mem.Mallocs)/n)
	ms.set("proc.gc_pause_ms", float64(now.PauseTotalNs-pm.mem.PauseTotalNs)/1e6)
	ms.set("proc.gc_cycles", float64(now.NumGC-pm.mem.NumGC))
}

func meanNs(sorted []uint32) float64 {
	var sum float64
	for _, s := range sorted {
		sum += float64(s)
	}
	return sum / float64(max(len(sorted), 1)) / 1e3
}

// ---- oram.* : the data plane, from meta-only to sealed ----

// ringProbe is what one ring of the ladder leaves behind; the ring itself
// and its store are dropped before the next is built, so that no ring is
// timed under the heap of the others.
type ringProbe struct {
	meanUs, p50Us float64
	// Over the exactOps replay.
	stats         oram.Stats
	reads, writes int64
	// Per-call store cost and the bytes the store holds.
	readNs, writeNs float64
	storedBytes     float64
}

// probeRing preloads a ring in the given mode, replays exactOps operations
// for the exact counters (recording spans on rung when rec is set) and then
// times the op stream for dur.
func probeRing(rc runCfg, acc *tally, cfg config.ORAM, blocks int, mode ringMode, dur time.Duration, rec *spanRecorder, rung int) (ringProbe, error) {
	var pr ringProbe
	ring, store, err := newProbeRing(cfg, rc.seed, mode)
	if err != nil {
		return pr, err
	}
	o := newOracle(blocks)
	o.unchecked = !mode.store
	t := []target{ringTarget{ring}}
	acc.add(preload(o, t, 1, cfg.BlockSize))

	before := ring.Stats()
	var r0, w0 int64
	if store != nil {
		r0, w0 = store.reads, store.writes
	}
	exact := phase{
		name: "ladder", seed: rc.seed, targets: t, workers: 1, maxOps: exactOps,
		putPct: rc.putPct(), valLen: cfg.BlockSize, sampleCap: exactOps, rec: rec, rung: rung,
	}
	acc.addPhase(exact.run(o))
	pr.stats = statsDelta(ring.Stats(), before)
	if store != nil {
		pr.reads, pr.writes = store.reads-r0, store.writes-w0
	}
	timed := phase{
		name: "ladder-timed", seed: rc.seed, targets: t, workers: 1, dur: dur,
		putPct: rc.putPct(), valLen: cfg.BlockSize, sampleCap: int(dur.Seconds()*200e3) + 1,
	}
	res := timed.run(o)
	acc.addPhase(res)
	pr.meanUs, pr.p50Us = meanNs(res.all), quantileNs(res.all, 0.5)
	if store != nil {
		pr.readNs, pr.writeNs = store.probe(200000)
		pr.storedBytes = float64(store.inner.TouchedBuckets()) * float64(cfg.SlotsPerBucket()) * float64(cfg.BlockSize+oram.SealOverhead)
	}
	return pr, nil
}

// oramLadder replays one op stream on four rings of the same geometry and
// seed: metadata only, plaintext store, sealed store (the workload's own
// mode) and sealed with the treetop cache flipped. Differences between
// neighbours are the store and crypt shares; the sealed ring's counters
// are the exact ones. rungs names the recorder's rung of the first three
// rings, -1 for none; the fourth stands outside the nesting.
func oramLadder(rc runCfg, ms *metricSet, acc *tally, cfg config.ORAM, blocks int, treetop bool, dur time.Duration, rec *spanRecorder, rungs [3]int) error {
	modes := []ringMode{
		{},
		{store: true, treetop: treetop},
		{store: true, crypt: true, treetop: treetop},
		{store: true, crypt: true, treetop: !treetop},
	}
	var probes [4]ringProbe
	for i, mode := range modes {
		var r *spanRecorder
		rung := -1
		if i < len(rungs) && rungs[i] >= 0 {
			r, rung = rec, rungs[i]
		}
		var err error
		if probes[i], err = probeRing(rc, acc, cfg, blocks, mode, dur/4, r, rung); err != nil {
			return err
		}
		runtime.GC() // the ring just dropped is not the next one's load
	}
	meta, plain, sealed, flipped := probes[0], probes[1], probes[2], probes[3]
	on, off := sealed, flipped
	if !treetop {
		on, off = flipped, sealed
	}
	ms.set("oram.ring.meta_us_per_access", meta.meanUs)
	ms.set("oram.ring.plain_us_per_access", plain.meanUs)
	ms.set("oram.ring.sealed_us_per_access", sealed.meanUs)
	ms.set("oram.ring.access_p50_us", sealed.p50Us)
	ms.set("oram.crypt.us_per_access", sealed.meanUs-plain.meanUs)
	ms.set("oram.treetop.cached_us_per_access", on.meanUs)
	if ops := off.reads + off.writes; ops > 0 {
		ms.set("oram.treetop.store_ops_saved_ratio", 1-float64(on.reads+on.writes)/float64(ops))
	}

	n := float64(exactOps)
	readsPer, writesPer := float64(sealed.reads)/n, float64(sealed.writes)/n
	ms.set("oram.store.reads_per_access", readsPer)
	ms.set("oram.store.writes_per_access", writesPer)
	ms.set("oram.store.read_ns", sealed.readNs)
	ms.set("oram.store.write_ns", sealed.writeNs)
	storeUs := (readsPer*sealed.readNs + writesPer*sealed.writeNs) / 1e3
	ms.set("oram.store.us_per_access", storeUs)
	// What the plaintext ring adds over the timing-only one beyond its
	// store calls: the Ring moving block bytes (stash, scratch, cache).
	ms.set("oram.ring.move_us_per_access", plain.meanUs-meta.meanUs-storeUs)
	ms.set("oram.store.bytes_per_user_byte", sealed.storedBytes/float64(blocks*cfg.BlockSize))

	st := sealed.stats
	ms.set("oram.ring.slots_per_access", float64(st.ReadPathBlocks+st.EvictBlocks+st.ReshuffleBlocks)/n)
	ms.set("oram.ring.evicts_per_access", float64(st.EvictPaths)/n)
	ms.set("oram.ring.reshuffles_per_access", float64(st.EarlyReshuffles)/n)
	ms.set("oram.ring.bg_dummies_per_access", float64(st.BackgroundDummyReads)/n)
	ms.set("oram.ring.green_per_readpath", st.GreenPerReadPath())
	ms.set("oram.ring.stash_peak", float64(st.StashPeak))
	return nil
}

// statsDelta subtracts the counters the ladder reports.
func statsDelta(a, b oram.Stats) oram.Stats {
	a.ReadPaths -= b.ReadPaths
	a.EvictPaths -= b.EvictPaths
	a.EarlyReshuffles -= b.EarlyReshuffles
	a.ReadPathBlocks -= b.ReadPathBlocks
	a.EvictBlocks -= b.EvictBlocks
	a.ReshuffleBlocks -= b.ReshuffleBlocks
	a.GreenFetches -= b.GreenFetches
	a.BackgroundDummyReads -= b.BackgroundDummyReads
	return a
}

// cryptProbe times SealInto and OpenInto on one block.
func cryptProbe(ms *metricSet, blockSize int) error {
	crypt, err := oram.NewCrypt(benchKey, blockSize)
	if err != nil {
		return err
	}
	const n = 200000
	plain := make([]byte, blockSize)
	fillValue(plain, 1, 1)
	var sealed, opened []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sealed = crypt.SealInto(sealed, plain)
	}
	t1 := time.Now()
	for i := 0; i < n; i++ {
		if opened, err = crypt.OpenInto(opened, sealed); err != nil {
			return err
		}
	}
	t2 := time.Now()
	if !slices.Equal(opened, plain) {
		return fmt.Errorf("crypt probe: opened block differs from the sealed one")
	}
	ms.set("oram.crypt.seal_ns", float64(t1.Sub(t0))/n)
	ms.set("oram.crypt.open_ns", float64(t2.Sub(t1))/n)
	return nil
}

func ringLayers(rc runCfg) (*metricSet, tally, error) {
	ms := newMetricSet(perLayer)
	rs, _, err := buildRing(rc)
	if err != nil {
		return nil, tally{}, err
	}
	acc := rs.load
	cfg := rs.ring.Config()

	// The workload itself, as the untraced run drives it.
	base := phase{
		name: "ring", seed: rc.seed, targets: []target{ringTarget{rs.ring}}, workers: 1,
		dur: rc.dur(0.3), putPct: rc.putPct(), valLen: cfg.BlockSize, sampleCap: int(rc.seconds * 100e3),
	}
	pm := startProcMeter()
	res := base.run(rs.o)
	pm.stop(ms, res.ops)
	acc.addPhase(res)
	ms.set("loadgen.get_p50_us", quantileNs(res.get, 0.5))
	ms.set("loadgen.put_p50_us", quantileNs(res.put, 0.5))
	ms.set("loadgen.p99_us", windowLatency(res.perWindow, 0.99))

	rec := newSpanRecorder(true, "oram.ring.meta", "oram.ring.plain", "oram.ring.sealed")
	if err := oramLadder(rc, ms, &acc, cfg, len(rs.o.ver), false, rc.dur(0.6), rec, [3]int{0, 1, 2}); err != nil {
		return nil, acc, err
	}
	if err := cryptProbe(ms, cfg.BlockSize); err != nil {
		return nil, acc, err
	}
	return ms, acc, finishTrace(rc, rec)
}

// finishTrace writes the trace file and prints the ladder's self times.
func finishTrace(rc runCfg, rec *spanRecorder) error {
	path, err := rec.write(rc.outDir, rc.workload)
	if err != nil {
		return err
	}
	fmt.Fprintf(rc.log, "%-14s trace: %d spans in %s\n", rc.workload, len(rec.spans), path)
	if rec.nested {
		for i, self := range rec.rungSelfUs() {
			fmt.Fprintf(rc.log, "%-14s ladder rung %-18s mean self %10.3f us\n", rc.workload, rec.rungs[i], self)
		}
	}
	return nil
}

// ---- sim.*, sched.*, dram.*, trace.* ----

func simLayers(rc runCfg) (*metricSet, tally, error) {
	ms := newMetricSet(perLayer)
	p, err := trace.ByName(simWorkload)
	if err != nil {
		return nil, tally{}, err
	}
	var gen []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := trace.Generate(p, simTraceLen, trace.SeedFor(rc.seed, p.Name)); err != nil {
			return nil, tally{}, err
		}
		gen = append(gen, float64(time.Since(t0))/1e6)
	}
	ms.set("trace.generate_ms", median(gen))

	ss, _, err := buildSim(rc)
	if err != nil {
		return nil, tally{}, err
	}
	var acc tally
	rec := newSpanRecorder(false, "sim.Run baseline", "sim.Run CB", "sim.Run PB", "sim.Run ALL")
	var hostNs, cycles, passes int64
	var passNs []uint32
	pm := startProcMeter()
	for start := time.Now(); time.Since(start) < rc.dur(1) || passes == 0; passes++ {
		passStart := time.Now()
		got, err := ss.pass(func(scheme int, t0, t1 time.Time) {
			rec.add(scheme, int(passes), false, t0.Sub(rec.epoch), t1.Sub(rec.epoch))
			hostNs += int64(t1.Sub(t0))
		})
		if err != nil {
			return nil, acc, err
		}
		passNs = append(passNs, uint32(min(time.Since(passStart), putFlag-1)))
		ss.check(got, &acc)
		for _, res := range got {
			cycles += res.Cycles
		}
	}
	pm.stop(ms, passes*int64(len(simSchemes)))
	slices.Sort(passNs)
	ms.set("loadgen.p99_us", quantileNs(passNs, 0.99))
	ms.set("sim.host_ns_per_cycle", float64(hostNs)/float64(cycles))

	base, cb, pb, all := ss.ref[0], ss.ref[1], ss.ref[2], ss.ref[3]
	ms.set("sim.cycles_baseline", float64(base.Cycles))
	ms.set("sim.cycles_all", float64(all.Cycles))
	ms.set("sim.cb_exec_norm", float64(cb.Cycles)/float64(base.Cycles))
	ms.set("sim.pb_exec_norm", float64(pb.Cycles)/float64(base.Cycles))
	ms.set("sim.all_exec_norm", float64(all.Cycles)/float64(base.Cycles))
	ms.set("sched.readpath_conflict_rate", base.Sched.ConflictRate(sched.TagReadPath))
	ms.set("sched.evict_conflict_rate", base.Sched.ConflictRate(sched.TagEvict))
	ms.set("sched.early_pre_frac", pb.Sched.EarlyPREFrac())
	ms.set("sched.early_act_frac", pb.Sched.EarlyACTFrac())
	ms.set("sched.read_queue_norm", all.Sched.AvgReadWait()/base.Sched.AvgReadWait())
	ms.set("sched.write_queue_norm", all.Sched.AvgWriteWait()/base.Sched.AvgWriteWait())
	ms.set("dram.bank_idle_baseline", base.BankIdle)
	ms.set("dram.bank_idle_pb", pb.BankIdle)
	return ms, acc, finishTrace(rc, rec)
}

// ---- server.*, cluster.*, obs.*, span.* ----

// ownerTarget sends each key to the entry of kvs that serves it as primary.
type ownerTarget struct {
	kvs   []kvStore
	owner []int // key index -> entry of kvs
	names []string
}

func (t ownerTarget) get(key int) ([]byte, error) {
	return kvTarget{t.kvs[t.owner[key]], t.names}.get(key)
}

func (t ownerTarget) put(key int, val []byte) error {
	return t.kvs[t.owner[key]].Put(t.names[key], val)
}

// tracedTarget is a plain client minting a trace context per operation,
// which is what makes a single node record serve spans.
type tracedTarget struct {
	c     *stringoram.ServerClient
	src   *obs.TraceSource
	names []string
}

func (t tracedTarget) get(key int) ([]byte, error) {
	v, found, err := t.c.GetCtx(t.src.NewTrace(), t.names[key])
	if !found {
		return nil, err
	}
	return v, err
}

func (t tracedTarget) put(key int, val []byte) error {
	return t.c.PutCtx(t.src.NewTrace(), t.names[key], val)
}

// pingLoop round-trips empty frames for dur and returns sorted ns.
func pingLoop(c *stringoram.ServerClient, dur time.Duration, acc *tally) []uint32 {
	var ns []uint32
	for start := time.Now(); time.Since(start) < dur || len(ns) == 0; {
		t0 := time.Now()
		err := c.Ping()
		ns = append(ns, uint32(min(time.Since(t0), putFlag-1)))
		acc.attempted++
		if err != nil {
			acc.failed++
		}
	}
	slices.Sort(ns)
	return ns
}

// kvTrace is the traced run of a key-value workload: the running system
// and what the steps below accumulate.
type kvTrace struct {
	rc  runCfg
	p   kvParams
	ks  *kvSystem
	ms  *metricSet
	acc tally
	// Unloaded p50 per op type and saturated ops/s, as the untraced run
	// would measure them: what the ladder and the variants compare to.
	baseGet, basePut, satOps float64
}

func kvLayers(rc runCfg) (*metricSet, tally, error) {
	p := rc.kvParams()
	ks, teardown, err := buildKV(p, rc.seed)
	if err != nil {
		return nil, tally{}, err
	}
	defer teardown()
	kt := &kvTrace{rc: rc, p: p, ks: ks, ms: newMetricSet(perLayer), acc: ks.load}
	kt.reference()
	rec, err := kt.ladder()
	if err == nil {
		err = kt.wireProbes()
	}
	if err == nil {
		err = kt.variants()
	}
	if err != nil {
		return nil, kt.acc, err
	}
	return kt.ms, kt.acc, finishTrace(rc, rec)
}

func (kt *kvTrace) cluster() bool { return kt.p.nodes > 1 }

// serial is an unloaded phase lasting share of the run with its own mix.
func (kt *kvTrace) serial(name string, t target, share float64, putPct int) phase {
	ph := kt.ks.serialPhase(kt.rc, name, t, kt.rc.dur(share))
	ph.putPct = putPct
	return ph
}

func (kt *kvTrace) run(ph phase) phaseResult {
	res := ph.run(kt.ks.o)
	kt.acc.addPhase(res)
	if res.failed > 0 {
		fmt.Fprintf(kt.rc.log, "%-14s phase %s: %d of %d operations failed\n", kt.rc.workload, ph.name, res.failed, res.ops)
	}
	return res
}

// reference drives the workload as the untraced run does, and reads what
// only load shows: process cost, the server's counters, the sockets, skew,
// and the two open-loop rate points.
func (kt *kvTrace) reference() {
	rc, ks, ms := kt.rc, kt.ks, kt.ms
	// A cluster is measured per op type, whatever the workload's own mix,
	// because the ladder's last rung is the difference between the two.
	var p99 float64
	if kt.cluster() {
		gets := kt.run(kt.serial("serial", ks.targets[0], 0.07, 0))
		puts := kt.run(kt.serial("serial", ks.targets[0], 0.07, 100))
		kt.baseGet, kt.basePut = quantileNs(gets.all, 0.5), quantileNs(puts.all, 0.5)
		p99 = windowLatency(gets.perWindow, 0.99)
		if rc.putPct() == 100 {
			p99 = windowLatency(puts.perWindow, 0.99)
		}
	} else {
		res := kt.run(kt.serial("serial", ks.targets[0], 0.14, rc.putPct()))
		kt.baseGet, kt.basePut = quantileNs(res.get, 0.5), quantileNs(res.put, 0.5)
		p99 = windowLatency(res.perWindow, 0.99)
	}
	ms.set("loadgen.get_p50_us", kt.baseGet)
	ms.set("loadgen.put_p50_us", kt.basePut)
	ms.set("loadgen.p99_us", p99)

	conns0 := [3]int64{ks.conns.readBytes.Load(), ks.conns.writeBytes.Load(), ks.conns.writes.Load()}
	pm := startProcMeter()
	sat := kt.run(ks.satPhase(rc, "sat", rc.dur(0.14)))
	pm.stop(ms, sat.ops)
	kt.satOps = max(windowThroughput(sat.counts, sat.window), 1)
	n := float64(max(sat.ops, 1))
	ms.set("server.wire.bytes_per_op", float64(ks.conns.readBytes.Load()-conns0[0]+ks.conns.writeBytes.Load()-conns0[1])/n)
	ms.set("server.wire.conn_writes_per_op", float64(ks.conns.writes.Load()-conns0[2])/n)
	ms.set("loadgen.sat_get_p99_us", quantileNs(sat.get, 0.99))
	ms.set("loadgen.sat_put_p99_us", quantileNs(sat.put, 0.99))
	ms.set("loadgen.sat_p999_us", quantileNs(sat.all, 0.999))
	sm := ks.serverMetrics()
	ms.set("server.shard.avg_batch", sm.AvgBatch)
	ms.set("server.shard.rejected", float64(sm.Rejected))
	ms.set("server.shard.expired", float64(sm.Expired))
	ms.set("server.shard.server_p99_us", sm.P99Seconds*1e6)

	zipf := ks.satPhase(rc, "sat-zipf", rc.dur(0.07))
	zipf.zipf = true
	zres := kt.run(zipf)
	ms.set("server.shard.skew_ops_ratio", windowThroughput(zres.counts, zres.window)/kt.satOps)

	// Open loop: diagnostic only (see README: the generator's lateness
	// on a small box is of the size of the latency it would measure).
	var lateMax time.Duration
	for _, pt := range []struct {
		name  string
		share float64
	}{{"loadgen.open_r25_p99_us", 0.25}, {"loadgen.open_r50_p99_us", 0.50}} {
		res := runOpen(ks.o, pt.name, rc.seed, ks.targets, len(ks.targets)*inFlight, kt.satOps*pt.share, rc.dur(0.05), rc.putPct(), kvValueLen)
		kt.acc.add(res.ops, res.failed)
		ms.set(pt.name, quantileNs(res.lat, 0.99))
		lateMax = max(lateMax, res.lateMax)
	}
	ms.set("loadgen.open_late_max_us", float64(lateMax)/1e3)
}

// ladder replays the op stream at each rung, innermost first, and reports
// the differences between neighbours and what they leave unexplained of
// the reference p50. Inner rungs of a cluster are Get-only: a Put anywhere
// below the router would replicate too.
func (kt *kvTrace) ladder() (*spanRecorder, error) {
	rc, ks, ms, p := kt.rc, kt.ks, kt.ms, kt.p
	rungs := []string{"oram.ring", "server.shard", "server.wire"}
	mix := rc.putPct()
	if kt.cluster() {
		rungs = append(rungs, "cluster.router", "cluster.replicate")
		mix = 0
	}
	rec := newSpanRecorder(true, rungs...)
	if err := oramLadder(rc, ms, &kt.acc, stringoram.DefaultServerORAM(p.levels), p.keys/p.shards, true, rc.dur(0.14), rec, [3]int{-1, -1, 0}); err != nil {
		return nil, err
	}
	accessP50 := ms.get("oram.ring.access_p50_us")

	rung := func(i int, t target, putPct int) phaseResult {
		ph := kt.serial("ladder", t, 0.06, putPct)
		ph.rec, ph.rung = rec, i
		return kt.run(ph)
	}
	var inproc, wire target
	if kt.cluster() {
		owner := make([]int, p.keys)
		for i, name := range ks.names {
			owner[i] = ks.owner(name)
		}
		servers := make([]kvStore, p.nodes)
		clients := make([]kvStore, p.nodes)
		for i, node := range ks.nodes {
			servers[i] = node.Server()
			c, err := stringoram.DialServer(ks.addrs[i])
			if err != nil {
				return nil, err
			}
			defer c.Close()
			clients[i] = c
		}
		inproc = ownerTarget{servers, owner, ks.names}
		wire = ownerTarget{clients, owner, ks.names}
	} else {
		inproc = kvTarget{ks.srv, ks.names}
		wire = ks.targets[0]
	}
	shardRes := rung(1, inproc, mix)
	wireRes := rung(2, wire, mix)
	wireGet := quantileNs(wireRes.get, 0.5)
	ms.set("server.shard.inproc_get_p50_us", quantileNs(shardRes.get, 0.5))
	ms.set("server.shard.inproc_put_p50_us", quantileNs(shardRes.put, 0.5))
	handoff := quantileNs(shardRes.all, 0.5) - accessP50
	rtt := wireGet - quantileNs(shardRes.get, 0.5)
	ms.set("server.shard.handoff_us", handoff)
	ms.set("server.wire.rtt_us", rtt)
	getSum, putSum := accessP50+handoff+rtt, accessP50+handoff+rtt
	if kt.cluster() {
		routerGet := quantileNs(rung(3, ks.targets[0], 0).all, 0.5)
		routerPut := quantileNs(rung(4, ks.targets[0], 100).all, 0.5)
		ms.set("cluster.router.get_overhead_us", routerGet-wireGet)
		ms.set("cluster.replicate.put_minus_get_us", routerPut-routerGet)
		getSum += routerGet - wireGet
		putSum = getSum + routerPut - routerGet
	}
	ms.set("e2e.residual_get_us", kt.baseGet-getSum)
	ms.set("e2e.residual_put_us", kt.basePut-putSum)
	return rec, nil
}

// wireProbes pings node 0 and, on a cluster, measures the server-side
// relay: a plain client pinned to node 0 reading keys node 0 does and does
// not own.
func (kt *kvTrace) wireProbes() error {
	ks, ms := kt.ks, kt.ms
	pin, err := stringoram.DialServer(ks.addrs[0])
	if err != nil {
		return err
	}
	defer pin.Close()
	ping := pingLoop(pin, kt.rc.dur(0.03), &kt.acc)
	ms.set("server.wire.ping_p50_us", quantileNs(ping, 0.5))
	ms.set("server.wire.ping_p99_us", quantileNs(ping, 0.99))
	if !kt.cluster() {
		return nil
	}
	var own, other []int
	for i, name := range ks.names {
		if ks.owner(name) == 0 {
			own = append(own, i)
		} else {
			other = append(other, i)
		}
	}
	hop := func(subset []int) float64 {
		ph := kt.serial("forward", kvTarget{pin, ks.names}, 0.04, 0)
		ph.subset = subset
		return quantileNs(kt.run(ph).all, 0.5)
	}
	ms.set("cluster.forward.hop_us", hop(other)-hop(own))
	return nil
}

// variants builds the workload's system again with one setting changed
// and compares saturated ops/s to the reference: Config.Pipeline 1 and 4
// (one node only), and the program's own tracing on.
func (kt *kvTrace) variants() error {
	if !kt.cluster() {
		for _, k := range []struct {
			name  string
			depth int
		}{{"oram.pipeline.k1_ops_ratio", 1}, {"oram.pipeline.k4_ops_ratio", 4}} {
			pp := kt.p
			pp.pipeline = k.depth
			ops, err := satOpsOf(kt.rc, pp, &kt.acc, false, nil)
			if err != nil {
				return err
			}
			kt.ms.set(k.name, ops/kt.satOps)
		}
	}
	tp := kt.p
	tp.traceSample = 1
	tracedOps, err := satOpsOf(kt.rc, tp, &kt.acc, true, kt.ms)
	if err != nil {
		return err
	}
	kt.ms.set("obs.trace_overhead_pct", (kt.satOps-tracedOps)/kt.satOps*100)
	return nil
}

// burstOps is the length of the serial traced burst whose spans are
// scraped: short enough that no node's 4096-span ring wraps.
const burstOps = 400

// satOpsOf builds a variant of the workload's system, saturates it for a
// short phase and returns ops/s. With traced set it turns on the program's
// tracing end to end, and first runs a serial burst whose spans it scrapes
// into ms.
func satOpsOf(rc runCfg, p kvParams, acc *tally, traced bool, ms *metricSet) (float64, error) {
	sys, err := startSystem(p, rc.seed)
	if err != nil {
		return 0, err
	}
	defer sys.close()
	ks := &kvSystem{system: sys, o: newOracle(p.keys)}
	if traced {
		src := obs.NewTraceSource(rc.seed)
		for i, c := range sys.clients {
			if ok, err := c.EnableTracing(); err != nil || !ok {
				return 0, fmt.Errorf("tracing not negotiated: %v", err)
			}
			sys.targets[i] = tracedTarget{c, src, sys.names}
		}
		for _, r := range sys.routers {
			r.EnableTracing(rc.seed, 1)
		}
	}
	acc.add(preload(ks.o, sys.targets, len(sys.targets)*inFlight, kvValueLen))
	if traced {
		if err := scrapeBurst(rc, ks, acc, ms); err != nil {
			return 0, err
		}
	}
	sat := ks.satPhase(rc, "sat", rc.dur(0.07))
	res := sat.run(ks.o)
	acc.addPhase(res)
	return windowThroughput(res.counts, res.window), nil
}

// collectSpans reads every span the system holds: each node's ring
// through ScrapeSpans, and the serial router's root spans.
func (ks *kvSystem) collectSpans() ([]obs.Span, error) {
	var spans []obs.Span
	for _, addr := range ks.addrs {
		c, err := stringoram.DialServer(addr)
		if err != nil {
			return nil, err
		}
		got, err := c.ScrapeSpans()
		c.Close()
		if err != nil {
			return nil, err
		}
		spans = append(spans, got...)
	}
	if len(ks.routers) > 0 {
		spans = append(spans, ks.routers[0].TraceSpans()...)
	}
	return spans, nil
}

type traceID struct{ hi, lo uint64 }

// scrapeBurst runs burstOps serial operations on the traced system and
// reports the spans they produced: those whose trace was not there before.
func scrapeBurst(rc runCfg, ks *kvSystem, acc *tally, ms *metricSet) error {
	before, err := ks.collectSpans()
	if err != nil {
		return err
	}
	old := make(map[traceID]bool, len(before))
	for _, s := range before {
		old[traceID{s.Hi, s.Lo}] = true
	}
	burst := ks.serialPhase(rc, "burst", ks.targets[0], 0)
	burst.maxOps, burst.sampleCap = burstOps, burstOps
	res := burst.run(ks.o)
	acc.addPhase(res)
	after, err := ks.collectSpans()
	if err != nil {
		return err
	}
	fresh := after[:0]
	for _, s := range after {
		if !old[traceID{s.Hi, s.Lo}] {
			fresh = append(fresh, s)
		}
	}
	ps := summarizeProgramSpans(fresh)
	ms.set("obs.spans_per_op", float64(ps.total)/burstOps)
	for kind, name := range map[obs.SpanKind]string{
		obs.SpanClientGet:  "span.client_get.self_us",
		obs.SpanClientPut:  "span.client_put.self_us",
		obs.SpanServeGet:   "span.serve_get.self_us",
		obs.SpanServePut:   "span.serve_put.self_us",
		obs.SpanServeApply: "span.serve_apply.self_us",
		obs.SpanReplicate:  "span.replicate.self_us",
		obs.SpanForward:    "span.forward.self_us",
	} {
		ms.set(name, ps.selfUs[kind])
	}
	ms.set("cluster.replicate.span_p50_us", median(ps.durUs[obs.SpanReplicate]))
	ms.set("cluster.replicate.apply_p50_us", median(ps.durUs[obs.SpanServeApply]))
	return nil
}
