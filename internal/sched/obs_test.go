package sched

import (
	"crypto/sha256"
	"fmt"
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
		c.Instrument(obs.NewRecorder[obs.Event](1024))
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
// lets the cmdstream goldens stay byte-identical: attaching a recorder
// must not alter a single scheduling decision.
func TestInstrumentationDoesNotChangeSchedule(t *testing.T) {
	mk := func() [][]*Request { return randomTxns(7, 60, testDRAM()) }
	if cmdHash(t, false, mk()) != cmdHash(t, true, mk()) {
		t.Fatal("instrumented controller produced a different command stream")
	}
}

// TestSchedInstrumentCountersMatchStats: the recorder holds exactly one
// cycle-stamped event per PB-hoisted command, agreeing with Stats.
func TestSchedInstrumentCountersMatchStats(t *testing.T) {
	rec := obs.NewRecorder[obs.Event](4096)
	c := New(testDRAM(), config.SchedProactiveBank)
	c.Instrument(rec)
	end := drain(t, c, randomTxns(11, 80, testDRAM()))

	st := c.Stats()
	if st.EarlyPREs == 0 || st.EarlyACTs == 0 {
		t.Fatalf("workload did not exercise PB hoisting (earlyPRE=%d earlyACT=%d); pick another seed", st.EarlyPREs, st.EarlyACTs)
	}
	if got, want := rec.Total(), uint64(st.EarlyPREs+st.EarlyACTs); got != want {
		t.Fatalf("recorder Total = %d, want %d (one event per early command)", got, want)
	}
	var pres, acts int64
	for _, ev := range rec.Snapshot(nil) {
		switch ev.Kind {
		case obs.EvEarlyPRE:
			pres++
		case obs.EvEarlyACT:
			acts++
		default:
			t.Fatalf("unexpected event %+v", ev)
		}
		if ev.TS < 0 || ev.TS > end {
			t.Fatalf("event %+v stamped outside [0, %d] cycles", ev, end)
		}
	}
	if pres != st.EarlyPREs || acts != st.EarlyACTs {
		t.Fatalf("recorder holds %d PRE / %d ACT events, Stats says %d / %d", pres, acts, st.EarlyPREs, st.EarlyACTs)
	}
}

// TestUninstrumentedControllerUnaffected double-checks the nil path: no
// recorder, and classification still fills Stats.
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
