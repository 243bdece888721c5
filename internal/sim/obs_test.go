package sim

import (
	"bytes"
	"strings"
	"testing"

	"stringoram/internal/obs"
)

// TestObsDoesNotPerturbSimulation pins that attaching the full
// observability stack changes no simulated outcome: cycles, phase
// attribution, and every protocol/controller counter are identical with
// and without instruments. Together with the cmdstream goldens this
// keeps the command-stream byte-identical under instrumentation.
func TestObsDoesNotPerturbSimulation(t *testing.T) {
	sys := testSystem()
	base, err := Run(sys, testTrace(t, 1500), Options{MaxAccesses: 300})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder[obs.Event](8192)
	inst, err := Run(sys, testTrace(t, 1500), Options{MaxAccesses: 300, Obs: reg, FlightRecorder: rec})
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

// TestObsEndToEnd runs an instrumented simulation and checks the
// acceptance-criteria surface: the exposition parses and carries the
// sched/oram/sim families, and the flight recorder holds cycle-stamped
// transaction spans that export as valid Perfetto JSON.
func TestObsEndToEnd(t *testing.T) {
	sys := testSystem()
	reg := obs.NewRegistry()
	rec := obs.NewRecorder[obs.Event](8192)
	res, err := Run(sys, testTrace(t, 1500), Options{MaxAccesses: 300, Obs: reg, FlightRecorder: rec})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("sim exposition does not validate: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, fam := range []string{
		`sched_pb_hidden_cycles_total{cmd="act"}`,
		`sched_row_outcomes_total{tag="read-path",class="hit"}`,
		"oram_stash_blocks",
		"oram_green_fetches_total",
		`oram_paths_total{kind="evict"}`,
		`sim_txn_cycles_count{tag="read-path"}`,
		"sim_cycles",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing %q", fam)
		}
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
	if err := obs.WriteTrace(&trace, "cycles", rec.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace.Bytes(), []byte(`"name":"txn"`)) {
		t.Fatal("trace export lacks txn spans")
	}
}
