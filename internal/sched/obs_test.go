package sched

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/obs"
)

// cmdHash drains txns on a fresh PB controller and returns a hash of the
// full command stream.
func cmdHash(t *testing.T, instrument bool, txns [][]*Request) [32]byte {
	t.Helper()
	c := New(testDRAM(), config.SchedProactiveBank)
	if instrument {
		c.Instrument(obs.NewRegistry(), obs.NewRecorder[obs.Event](1024))
	}
	h := sha256.New()
	c.OnCommand = func(ev CommandEvent) {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %v\n", ev.Cycle, ev.Channel, ev.Kind, ev.Rank, ev.Bank, ev.Row, ev.Txn, ev.Early)
	}
	drain(t, c, txns)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// TestInstrumentationDoesNotChangeSchedule pins the core guarantee that
// lets the cmdstream goldens stay byte-identical: attaching a registry
// and recorder must not alter a single scheduling decision.
func TestInstrumentationDoesNotChangeSchedule(t *testing.T) {
	mk := func() [][]*Request { return randomTxns(7, 60, testDRAM()) }
	if cmdHash(t, false, mk()) != cmdHash(t, true, mk()) {
		t.Fatal("instrumented controller produced a different command stream")
	}
}

func TestSchedInstrumentCountersMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder[obs.Event](4096)
	c := New(testDRAM(), config.SchedProactiveBank)
	c.Instrument(reg, rec)
	drain(t, c, randomTxns(11, 80, testDRAM()))

	st := c.Stats()
	if st.EarlyPREs == 0 || st.EarlyACTs == 0 {
		t.Fatalf("workload did not exercise PB hoisting (earlyPRE=%d earlyACT=%d); pick another seed", st.EarlyPREs, st.EarlyACTs)
	}

	// Row-class counters must agree exactly with the Stats arrays.
	for tag := Tag(0); tag < NumTags; tag++ {
		for class, want := range [3]int64{st.Hits[tag], st.Misses[tag], st.Conflicts[tag]} {
			got := c.ins.rowClass[tag][class].Value()
			if got != uint64(want) {
				t.Errorf("rowClass[%v][%s] = %d, want %d", tag, rowClassNames[class], got, want)
			}
		}
	}

	// Hidden cycles: positive when hoisting happened, and bounded by the
	// per-request caps tRP / tRCD.
	tm := testDRAM().Timing
	if hp := c.ins.hiddenPre.Value(); hp == 0 || hp > uint64(st.EarlyPREs)*uint64(tm.TRP) {
		t.Errorf("hidden PRE cycles = %d, want in (0, %d]", hp, st.EarlyPREs*int64(tm.TRP))
	}
	if ha := c.ins.hiddenAct.Value(); ha == 0 || ha > uint64(st.EarlyACTs)*uint64(tm.TRCD) {
		t.Errorf("hidden ACT cycles = %d, want in (0, %d]", ha, st.EarlyACTs*int64(tm.TRCD))
	}

	// Recorder saw exactly one event per hoisted command.
	if got, want := rec.Total(), uint64(st.EarlyPREs+st.EarlyACTs); got != want {
		t.Errorf("recorder Total = %d, want %d (one event per early command)", got, want)
	}

	// Exposition includes the acceptance-criteria families and validates.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("sched exposition does not validate: %v", err)
	}
	for _, want := range []string{
		`sched_pb_hidden_cycles_total{cmd="pre"}`,
		`sched_pb_hidden_cycles_total{cmd="act"}`,
		`sched_row_outcomes_total{tag="read-path",class="hit"}`,
		`sched_row_outcomes_total{tag="evict",class="conflict"}`,
		`sched_cmds_total{cmd="pre"}`,
		`sched_pb_early_cmds_total{cmd="act"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestUninstrumentedControllerUnaffected double-checks the nil path: no
// registry, no recorder, and classification still fills Stats.
func TestUninstrumentedControllerUnaffected(t *testing.T) {
	c := New(testDRAM(), config.SchedProactiveBank)
	drain(t, c, randomTxns(11, 20, testDRAM()))
	st := c.Stats()
	total := int64(0)
	for tag := Tag(0); tag < NumTags; tag++ {
		total += st.Hits[tag] + st.Misses[tag] + st.Conflicts[tag]
	}
	if total != st.ReadReqs+st.WriteReqs {
		t.Fatalf("classification total %d != completed requests %d", total, st.ReadReqs+st.WriteReqs)
	}
}
