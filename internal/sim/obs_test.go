package sim

import (
	"bytes"
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/obs"
)

// TestObsDoesNotPerturbSimulation pins that attaching a flight recorder
// changes no simulated outcome: cycles, phase attribution, and every
// protocol/controller counter are identical with and without it.
// Together with the cmdstream goldens this keeps the command stream
// byte-identical under instrumentation.
func TestObsDoesNotPerturbSimulation(t *testing.T) {
	sys := testSystem()
	base, err := Run(sys, testTrace(t, 1500), Options{MaxAccesses: 300})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder[obs.Event](8192)
	inst, err := Run(sys, testTrace(t, 1500), Options{MaxAccesses: 300, FlightRecorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles != inst.Cycles {
		t.Fatalf("instrumentation changed execution time: %d vs %d cycles", base.Cycles, inst.Cycles)
	}
	if base.PhaseCycles != inst.PhaseCycles || base.OtherCycles != inst.OtherCycles {
		t.Fatalf("instrumentation changed phase attribution: %v/%d vs %v/%d",
			base.PhaseCycles, base.OtherCycles, inst.PhaseCycles, inst.OtherCycles)
	}
	if base.ORAM != inst.ORAM {
		t.Fatalf("instrumentation changed ORAM stats:\n%+v\n%+v", base.ORAM, inst.ORAM)
	}
	if base.Sched != inst.Sched {
		t.Fatalf("instrumentation changed controller stats:\n%+v\n%+v", base.Sched, inst.Sched)
	}
}

// TestObsEndToEnd runs a recorded simulation and checks that the flight
// recorder holds cycle-stamped transaction spans and access events that
// export as valid Perfetto JSON.
func TestObsEndToEnd(t *testing.T) {
	sys := testSystem()
	rec := obs.NewRecorder[obs.Event](8192)
	res, err := Run(sys, testTrace(t, 1500), Options{MaxAccesses: 300, FlightRecorder: rec})
	if err != nil {
		t.Fatal(err)
	}

	if rec.Total() == 0 {
		t.Fatal("flight recorder saw no events")
	}
	var sawTxn, sawAccess bool
	for _, ev := range rec.Snapshot(nil) {
		if ev.TS < 0 || ev.TS > res.Cycles {
			t.Fatalf("event %v stamped outside the run's cycle domain [0, %d]", ev, res.Cycles)
		}
		switch ev.Kind {
		case obs.EvTxn:
			sawTxn = true
			if ev.Dur < 0 || ev.TS+ev.Dur > res.Cycles {
				t.Fatalf("txn span %+v exceeds run length %d", ev, res.Cycles)
			}
		case obs.EvAccess:
			sawAccess = true
		}
	}
	if !sawTxn || !sawAccess {
		t.Fatalf("expected txn spans and access events in the recorder (txn=%v access=%v)", sawTxn, sawAccess)
	}

	var trace bytes.Buffer
	if err := obs.WriteTrace(&trace, rec.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace.Bytes(), []byte(`"name":"txn"`)) {
		t.Fatal("trace export lacks txn spans")
	}
}

// TestFlightRecorderMatchesResult pins the simulator as the recorder's
// one emitter: per kind, the recorded events add up to the counters the
// run reports, for the Ring and for the Path ORAM baseline alike. The
// stash is small enough that PB with Y = 8 needs background eviction,
// and the half-full warm tree gives green fetches and early reshuffles
// from the first accesses on.
func TestFlightRecorderMatchesResult(t *testing.T) {
	sys := testSystem().WithCBRate(8).WithStashSize(12)
	sys.ORAM.WarmFill = 0.5
	sys.Scheduler = config.SchedProactiveBank
	for _, pathORAM := range []bool{false, true} {
		rec := obs.NewRecorder[obs.Event](1 << 16)
		res, err := Run(sys, testTrace(t, 3000), Options{MaxAccesses: 600, PathORAM: pathORAM, FlightRecorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Total() != uint64(rec.Len()) {
			t.Fatalf("recorder dropped %d events; raise its capacity", rec.Total()-uint64(rec.Len()))
		}
		count := make(map[obs.EventKind]int64)
		var greens, bgEvictions int64
		for _, ev := range rec.Snapshot(nil) {
			count[ev.Kind]++
			switch ev.Kind {
			case obs.EvGreenFetch:
				greens += ev.Arg0
			case obs.EvBackgroundEviction:
				bgEvictions += ev.Arg0
			}
		}
		if !pathORAM && (res.ORAM.BackgroundEvictions == 0 || res.ORAM.GreenFetches == 0 ||
			res.ORAM.EarlyReshuffles == 0 || res.Sched.EarlyPREs == 0 || res.Sched.EarlyACTs == 0) {
			t.Fatalf("run does not exercise every recorded kind: %+v %+v", res.ORAM, res.Sched)
		}
		for _, c := range []struct {
			what      string
			got, want int64
		}{
			{"access events", count[obs.EvAccess], res.ORAMAccesses},
			{"early-reshuffle events", count[obs.EvEarlyReshuffle], res.ORAM.EarlyReshuffles},
			{"background-dummy events", count[obs.EvBackgroundDummy], res.ORAM.BackgroundDummyReads},
			{"recorded background evictions", bgEvictions, res.ORAM.BackgroundEvictions},
			{"recorded green fetches", greens, res.ORAM.GreenFetches},
			{"early-PRE events", count[obs.EvEarlyPRE], res.Sched.EarlyPREs},
			{"early-ACT events", count[obs.EvEarlyACT], res.Sched.EarlyACTs},
		} {
			if c.got != c.want {
				t.Errorf("PathORAM=%v: %s = %d, Result says %d", pathORAM, c.what, c.got, c.want)
			}
		}
	}
}
