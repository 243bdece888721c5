package sim

import (
	"fmt"
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/oram"
	"stringoram/internal/sched"
	"stringoram/internal/trace"
)

// testSystem returns a small system (12-level tree) that exercises every
// code path in seconds.
func testSystem() config.System {
	return config.ScaledDefault(12)
}

// testTrace generates a small mixed workload whose footprint fits the
// scaled tree comfortably.
func testTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	p := trace.Profile{
		Name: "testmix", MPKI: 15, WriteFrac: 0.3,
		FootprintBytes: 1 << 20, StreamFrac: 0.4, ZipfTheta: 0.3, Streams: 4,
	}
	tr, err := trace.Generate(p, n, 1234)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runOne(t *testing.T, sys config.System, n, maxAcc int) *Result {
	t.Helper()
	res, err := Run(sys, testTrace(t, n), Options{MaxAccesses: maxAcc})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmoke(t *testing.T) {
	res := runOne(t, testSystem(), 2000, 400)
	if res.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	if res.ORAMAccesses == 0 {
		t.Fatal("no ORAM accesses serviced")
	}
	if res.Retired == 0 {
		t.Fatal("no instructions retired")
	}
	if res.ORAM.ReadPaths == 0 || res.ORAM.EvictPaths == 0 {
		t.Fatalf("protocol counters empty: %+v", res.ORAM)
	}
	if res.Sched.ReadReqs == 0 || res.Sched.WriteReqs == 0 {
		t.Fatalf("controller counters empty: %+v", res.Sched)
	}
}

func TestPhaseAttributionComplete(t *testing.T) {
	res := runOne(t, testSystem(), 2000, 400)
	var sum int64
	for _, c := range res.PhaseCycles {
		if c < 0 {
			t.Fatalf("negative phase cycles: %v", res.PhaseCycles)
		}
		sum += c
	}
	sum += res.OtherCycles
	if sum != res.Cycles {
		t.Fatalf("phase breakdown %d != total %d", sum, res.Cycles)
	}
	if res.PhaseCycles[sched.TagReadPath] == 0 || res.PhaseCycles[sched.TagEvict] == 0 {
		t.Fatalf("read/evict phases empty: %v", res.PhaseCycles)
	}
}

func TestDeterministic(t *testing.T) {
	a := runOne(t, testSystem(), 1500, 300)
	b := runOne(t, testSystem(), 1500, 300)
	if a.Cycles != b.Cycles || a.ORAMAccesses != b.ORAMAccesses {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/accesses",
			a.Cycles, a.ORAMAccesses, b.Cycles, b.ORAMAccesses)
	}
}

// TestFig10Directions checks the paper's headline result directionally on
// the small system: CB, PB and CB+PB all beat the baseline, and the
// combination beats either alone.
func TestFig10Directions(t *testing.T) {
	base := testSystem().WithCBRate(0)
	const n, acc = 4000, 800
	baseline := runOne(t, base, n, acc).Cycles
	cb := runOne(t, base.WithCBRate(8), n, acc).Cycles
	pb := runOne(t, base.WithScheduler(config.SchedProactiveBank), n, acc).Cycles
	all := runOne(t, base.WithCBRate(8).WithScheduler(config.SchedProactiveBank), n, acc).Cycles

	if cb >= baseline {
		t.Errorf("CB (%d) did not beat baseline (%d)", cb, baseline)
	}
	if pb >= baseline {
		t.Errorf("PB (%d) did not beat baseline (%d)", pb, baseline)
	}
	if all >= pb || all >= cb {
		t.Errorf("ALL (%d) did not beat CB (%d) and PB (%d)", all, cb, pb)
	}
	t.Logf("baseline %d, CB %d (%.1f%%), PB %d (%.1f%%), ALL %d (%.1f%%)",
		baseline,
		cb, 100*(1-float64(cb)/float64(baseline)),
		pb, 100*(1-float64(pb)/float64(baseline)),
		all, 100*(1-float64(all)/float64(baseline)))
}

// TestFig5bShape checks the biased-locality observation: the selective
// read path suffers far more row-buffer conflicts than the full-path
// eviction under the subtree layout.
func TestFig5bShape(t *testing.T) {
	res := runOne(t, testSystem().WithCBRate(0), 4000, 800)
	read := res.Sched.ConflictRate(sched.TagReadPath)
	evict := res.Sched.ConflictRate(sched.TagEvict)
	if read <= evict {
		t.Fatalf("read-path conflict rate (%.3f) not above eviction (%.3f)", read, evict)
	}
	if read < 0.3 {
		t.Errorf("read-path conflict rate %.3f implausibly low (paper ~0.74)", read)
	}
	if evict > 0.45 {
		t.Errorf("eviction conflict rate %.3f implausibly high (paper ~0.10)", evict)
	}
	t.Logf("conflict rates: read-path %.3f, evict %.3f", read, evict)
}

// TestFig12Directions checks PB's bank idle-time reduction and that a
// substantial fraction of PRE/ACT issue early.
func TestFig12Directions(t *testing.T) {
	base := testSystem().WithCBRate(0)
	const n, acc = 4000, 800
	baseRes := runOne(t, base, n, acc)
	pbRes := runOne(t, base.WithScheduler(config.SchedProactiveBank), n, acc)
	if pbRes.BankIdle >= baseRes.BankIdle {
		t.Errorf("PB bank idle %.3f not below baseline %.3f", pbRes.BankIdle, baseRes.BankIdle)
	}
	if baseRes.Sched.EarlyPREs != 0 || baseRes.Sched.EarlyACTs != 0 {
		t.Error("baseline recorded early commands")
	}
	if pbRes.Sched.EarlyPREFrac() < 0.05 || pbRes.Sched.EarlyACTFrac() < 0.05 {
		t.Errorf("PB early fractions tiny: PRE %.3f ACT %.3f",
			pbRes.Sched.EarlyPREFrac(), pbRes.Sched.EarlyACTFrac())
	}
	t.Logf("bank idle: baseline %.1f%%, PB %.1f%%; early PRE %.1f%%, early ACT %.1f%%",
		100*baseRes.BankIdle, 100*pbRes.BankIdle,
		100*pbRes.Sched.EarlyPREFrac(), 100*pbRes.Sched.EarlyACTFrac())
}

// TestFig11Directions checks the queuing-time reductions of Fig. 11.
func TestFig11Directions(t *testing.T) {
	base := testSystem().WithCBRate(0)
	const n, acc = 4000, 800
	baseRes := runOne(t, base, n, acc)
	allRes := runOne(t, base.WithCBRate(8).WithScheduler(config.SchedProactiveBank), n, acc)
	if allRes.Sched.AvgReadWait() >= baseRes.Sched.AvgReadWait() {
		t.Errorf("ALL read wait %.1f not below baseline %.1f",
			allRes.Sched.AvgReadWait(), baseRes.Sched.AvgReadWait())
	}
	if allRes.Sched.AvgWriteWait() >= baseRes.Sched.AvgWriteWait() {
		t.Errorf("ALL write wait %.1f not below baseline %.1f",
			allRes.Sched.AvgWriteWait(), baseRes.Sched.AvgWriteWait())
	}
}

func TestStashSamplesCollected(t *testing.T) {
	sys := testSystem()
	res, err := Run(sys, testTrace(t, 1000), Options{MaxAccesses: 200, CollectStash: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StashSamples) == 0 {
		t.Fatal("no stash samples collected")
	}
	for _, s := range res.StashSamples {
		if s < 0 || s > sys.ORAM.StashSize {
			t.Fatalf("sample %d out of range", s)
		}
	}
}

// TestPathORAMStashSamplesCollected: CollectStash samples whichever
// protocol runs, one sample per ORAM access.
func TestPathORAMStashSamplesCollected(t *testing.T) {
	sys := testSystem().WithCBRate(0)
	sys.ORAM.Z = 4
	res, err := Run(sys, testTrace(t, 1000), Options{MaxAccesses: 100, PathORAM: true, CollectStash: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StashSamples) == 0 || int64(len(res.StashSamples)) != res.ORAMAccesses {
		t.Fatalf("%d stash samples over %d Path ORAM accesses, want one per access", len(res.StashSamples), res.ORAMAccesses)
	}
	for _, s := range res.StashSamples {
		if s < 0 || s > sys.ORAM.StashSize {
			t.Fatalf("sample %d out of range", s)
		}
	}
}

func TestMaxAccessesRespected(t *testing.T) {
	res := runOne(t, testSystem(), 5000, 100)
	// The cut happens between core ticks, so slight overshoot from one
	// tick's burst (plus writebacks) is expected — but not runaway.
	if res.ORAMAccesses < 100 || res.ORAMAccesses > 200 {
		t.Fatalf("ORAMAccesses = %d, want ~100", res.ORAMAccesses)
	}
}

func TestRunWholeTrace(t *testing.T) {
	res := runOne(t, testSystem(), 300, 0)
	// Every trace record retires.
	tr := testTrace(t, 300)
	if res.Retired != tr.Instructions() {
		t.Fatalf("retired %d instructions, want %d", res.Retired, tr.Instructions())
	}
}

func TestInvalidSystemRejected(t *testing.T) {
	sys := testSystem()
	sys.ORAM.Z = 0
	if _, err := Run(sys, testTrace(t, 100), Options{}); err == nil {
		t.Fatal("Run accepted an invalid system")
	}
}

func TestPhaseFor(t *testing.T) {
	if PhaseFor(oram.OpReadPath) != sched.TagReadPath ||
		PhaseFor(oram.OpDummyReadPath) != sched.TagReadPath ||
		PhaseFor(oram.OpEvictPath) != sched.TagEvict ||
		PhaseFor(oram.OpEarlyReshuffle) != sched.TagReshuffle {
		t.Fatal("PhaseFor mapping wrong")
	}
}

// TestRequestConservation cross-checks the layers' accounting: every
// physical access the ORAM emitted must appear as exactly one serviced
// controller request, and their read/write split must agree.
func TestRequestConservation(t *testing.T) {
	sys := testSystem()
	tr := testTrace(t, 2000)
	var commands int64
	res, err := Run(sys, tr, Options{MaxAccesses: 300, OnCommand: func(e sched.CommandEvent) {
		if e.Kind.String() == "RD" || e.Kind.String() == "WR" {
			commands++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	o := res.ORAM
	oramBlocks := o.ReadPathBlocks + o.EvictBlocks + o.ReshuffleBlocks
	servmed := res.Sched.ReadReqs + res.Sched.WriteReqs
	if oramBlocks != servmed {
		t.Fatalf("ORAM emitted %d block accesses, controller serviced %d", oramBlocks, servmed)
	}
	if commands != servmed {
		t.Fatalf("observed %d data commands, controller accounted %d", commands, servmed)
	}
}

// TestPBSecurityAtSystemLevel is Claim 2 end to end: the full stack
// (trace -> LLC -> ORAM -> mapper -> controller) produces, per channel,
// identical per-transaction data-command address multisets in transaction
// order under both schedulers.
func TestPBSecurityAtSystemLevel(t *testing.T) {
	sys := testSystem().WithCBRate(8)
	tr := testTrace(t, 1500)
	type key struct {
		ch  int
		txn int64
	}
	collect := func(kind config.SchedulerKind) (map[key]map[string]int, []int64) {
		var order []int64
		sets := make(map[key]map[string]int)
		lastByChan := map[int]int64{}
		_, err := Run(sys.WithScheduler(kind), tr, Options{MaxAccesses: 200,
			OnCommand: func(e sched.CommandEvent) {
				if k := e.Kind.String(); k != "RD" && k != "WR" {
					return
				}
				if e.Txn < lastByChan[e.Channel] {
					t.Fatalf("%v: data command for txn %d after txn %d on channel %d",
						kind, e.Txn, lastByChan[e.Channel], e.Channel)
				}
				lastByChan[e.Channel] = e.Txn
				kk := key{e.Channel, e.Txn}
				if sets[kk] == nil {
					sets[kk] = make(map[string]int)
				}
				addr := fmt.Sprintf("%d/%d/%d/%d/%v", e.Rank, e.Bank, e.Row, e.Txn, e.Kind)
				sets[kk][addr]++
				order = append(order, e.Txn)
			}})
		if err != nil {
			t.Fatal(err)
		}
		return sets, order
	}
	base, _ := collect(config.SchedTransaction)
	pb, _ := collect(config.SchedProactiveBank)
	if len(base) != len(pb) {
		t.Fatalf("per-txn groups differ: %d vs %d", len(base), len(pb))
	}
	for k, mb := range base {
		mp := pb[k]
		if len(mb) != len(mp) {
			t.Fatalf("txn %d ch %d: address sets differ", k.txn, k.ch)
		}
		for a, n := range mb {
			if mp[a] != n {
				t.Fatalf("txn %d ch %d: %s count %d vs %d", k.txn, k.ch, a, n, mp[a])
			}
		}
	}
}

// TestPathORAMMode runs the Path ORAM protocol through the full timing
// stack and checks its signature properties: one transaction per access,
// fixed 2*Z*(levels-cached) blocks per access, and much lower eviction
// pressure on the row-conflict metric than Ring's selective reads.
func TestPathORAMMode(t *testing.T) {
	sys := testSystem().WithCBRate(0)
	sys.ORAM.Z = 4
	tr := testTrace(t, 1500)
	res, err := Run(sys, tr, Options{MaxAccesses: 150, PathORAM: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.ORAMAccesses == 0 {
		t.Fatal("degenerate Path ORAM run")
	}
	perAccess := float64(res.Sched.ReadReqs+res.Sched.WriteReqs) / float64(res.ORAMAccesses)
	want := float64(2 * sys.ORAM.Z * (sys.ORAM.Levels - sys.ORAM.TreeTopCacheLevels))
	if perAccess != want {
		t.Fatalf("Path ORAM moved %.2f blocks/access, want %.0f", perAccess, want)
	}
	if res.ORAM.ReadPaths != res.ORAMAccesses {
		t.Fatalf("Path ORAM ReadPaths=%d, accesses=%d", res.ORAM.ReadPaths, res.ORAMAccesses)
	}
	// Full-path accesses ride the subtree layout: conflict rate must be
	// far below Ring's selective-read ~0.7.
	if c := res.Sched.ConflictRate(sched.TagReadPath); c > 0.45 {
		t.Fatalf("Path ORAM read conflict rate %.3f implausibly high", c)
	}
}

// TestRingBeatsPathInTime is the end-to-end intro claim at this scale.
func TestRingBeatsPathInTime(t *testing.T) {
	tr := testTrace(t, 1500)
	pathSys := testSystem().WithCBRate(0)
	pathSys.ORAM.Z = 4
	path, err := Run(pathSys, tr, Options{MaxAccesses: 150, PathORAM: true})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run(testSystem().WithCBRate(8).WithScheduler(config.SchedProactiveBank),
		tr, Options{MaxAccesses: 150})
	if err != nil {
		t.Fatal(err)
	}
	if all.Cycles >= path.Cycles {
		t.Fatalf("String ORAM (%d) not faster than Path ORAM (%d)", all.Cycles, path.Cycles)
	}
}

// TestRunMulti verifies the heterogeneous-mix mode: result naming,
// per-core accounting, and the fairness signature (memory-bound cores
// retire fewer instructions than compute-bound cores sharing the ORAM).
func TestRunMulti(t *testing.T) {
	sys := testSystem()
	mkTrace := func(name string, mpki float64) *trace.Trace {
		p := trace.Profile{
			Name: name, MPKI: mpki, WriteFrac: 0.3,
			FootprintBytes: 1 << 20, StreamFrac: 0.4, ZipfTheta: 0.3, Streams: 2,
		}
		tr, err := trace.Generate(p, 3000, 99)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	heavy := mkTrace("heavy", 40)
	light := mkTrace("light", 2)
	res, err := RunMulti(sys, []*trace.Trace{heavy, light, heavy, light}, Options{MaxAccesses: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mix(heavy+light+heavy+light)" {
		t.Fatalf("workload name = %q", res.Workload)
	}
	if len(res.PerCore) != sys.CPU.Cores {
		t.Fatalf("PerCore has %d entries, want %d", len(res.PerCore), sys.CPU.Cores)
	}
	// Light cores (1, 3) must retire more than heavy cores (0, 2).
	if res.PerCore[1] <= res.PerCore[0] || res.PerCore[3] <= res.PerCore[2] {
		t.Fatalf("fairness signature missing: %v", res.PerCore)
	}
}

func TestRunMultiRejectsEmpty(t *testing.T) {
	if _, err := RunMulti(testSystem(), nil, Options{}); err == nil {
		t.Fatal("empty trace list accepted")
	}
}

// TestGreenPerReadInRange sanity-checks the Fig. 13 metric end to end on
// the default CB rate.
func TestGreenPerReadInRange(t *testing.T) {
	res := runOne(t, testSystem().WithCBRate(8), 4000, 800)
	g := res.ORAM.GreenPerReadPath()
	if g <= 0 {
		t.Fatalf("green per read = %v, want > 0 at Y=8", g)
	}
	if g > float64(testSystem().ORAM.Z) {
		t.Fatalf("green per read = %v exceeds Z", g)
	}
}
