package sched

import (
	"fmt"

	"stringoram/internal/obs"
)

// schedInstruments holds the controller's optional telemetry hooks. All
// fields are nil until Instrument is called, and every use is nil-safe,
// so an uninstrumented controller pays only inlined nil checks on the
// hot path (TestAllocFreeSchedTick pins 0 allocs per Tick either way).
type schedInstruments struct {
	// rowClass[tag][class] counts RD/WR issues by row-buffer outcome —
	// the per-phase hit/miss/conflict split of Fig. 5(b).
	rowClass [NumTags][3]*obs.Counter
	// hiddenPre/hiddenAct accumulate the PRE and ACT latency cycles that
	// Proactive Bank overlapped with the previous transaction — the
	// paper's key metric. See issueColumn for the estimator.
	hiddenPre *obs.Counter
	hiddenAct *obs.Counter
	rec       *obs.Recorder[obs.Event]
}

var rowClassNames = [3]string{RowHit: "hit", RowMiss: "miss", RowConflict: "conflict"}

// Instrument attaches a metrics registry and/or flight recorder to the
// controller. Either may be nil. Registered series mirror the Stats
// counters at scrape time (no hot-path cost) except for the row-class
// and PB hidden-cycle counters, which are true atomic instruments
// updated at RD/WR issue. Flight-recorder events are emitted only for
// PB-hoisted commands and are stamped with the DRAM cycle — never wall
// clock — preserving seed determinism.
//
// Call before the first Tick; calling again with the same registry is
// idempotent (series are re-resolved, not duplicated).
func (c *Controller) Instrument(reg *obs.Registry, rec *obs.Recorder[obs.Event]) {
	c.ins.rec = rec
	if reg == nil {
		return
	}
	for tag := Tag(0); tag < NumTags; tag++ {
		for class, cname := range rowClassNames {
			c.ins.rowClass[tag][class] = reg.Counter(
				fmt.Sprintf(`sched_row_outcomes_total{tag=%q,class=%q}`, tag.String(), cname),
				"RD/WR issues by ORAM phase tag and row-buffer outcome")
		}
	}
	c.ins.hiddenPre = reg.Counter(`sched_pb_hidden_cycles_total{cmd="pre"}`,
		"precharge cycles Proactive Bank overlapped with the previous transaction (capped at tRP per request)")
	c.ins.hiddenAct = reg.Counter(`sched_pb_hidden_cycles_total{cmd="act"}`,
		"activate cycles Proactive Bank overlapped with the previous transaction (capped at tRCD per request)")

	// Command and queue counters already live in Stats and are owned by
	// the controller's single-threaded Tick; mirror them at scrape time
	// instead of double-counting on the hot path. Scrapes racing a
	// ticking simulation would need external synchronization; the repo's
	// simulators scrape only between runs.
	reg.CounterFunc(`sched_cmds_total{cmd="pre"}`, "PRE commands issued",
		func() float64 { return float64(c.stats.PREs) })
	reg.CounterFunc(`sched_cmds_total{cmd="act"}`, "ACT commands issued",
		func() float64 { return float64(c.stats.ACTs) })
	reg.CounterFunc(`sched_cmds_total{cmd="ref"}`, "REF commands issued",
		func() float64 { return float64(c.stats.REFs) })
	reg.CounterFunc(`sched_pb_early_cmds_total{cmd="pre"}`, "PREs hoisted ahead of their transaction by Proactive Bank",
		func() float64 { return float64(c.stats.EarlyPREs) })
	reg.CounterFunc(`sched_pb_early_cmds_total{cmd="act"}`, "ACTs hoisted ahead of their transaction by Proactive Bank",
		func() float64 { return float64(c.stats.EarlyACTs) })
	reg.CounterFunc(`sched_requests_total{dir="read"}`, "RD requests completed",
		func() float64 { return float64(c.stats.ReadReqs) })
	reg.CounterFunc(`sched_requests_total{dir="write"}`, "WR requests completed",
		func() float64 { return float64(c.stats.WriteReqs) })
	reg.CounterFunc(`sched_queue_wait_cycles_total{dir="read"}`, "summed read-queue wait cycles (enqueue to RD issue)",
		func() float64 { return float64(c.stats.ReadQueueWait) })
	reg.CounterFunc(`sched_queue_wait_cycles_total{dir="write"}`, "summed write-queue wait cycles (enqueue to WR issue)",
		func() float64 { return float64(c.stats.WriteQueueWait) })
	reg.GaugeFunc("sched_current_txn", "transaction currently allowed to issue data commands",
		func() float64 { return float64(c.curTxn) })
}

// classify applies the row-buffer outcome to r and bumps both the Stats
// counters and, when instrumented, the registry row-class counters and
// PB hidden-cycle estimate. now is the RD/WR issue cycle.
//
// Hidden-cycle estimator: an early PRE issued at cycle t overlaps up to
// now-t of its tRP with the previous transaction's data phase; the
// serialized baseline would have paid that latency after the transaction
// switch. The overlap is capped at the full tRP (resp. tRCD for ACT) —
// waiting longer than the timing parameter hides no additional cycles.
// This is an upper bound per request: it assumes the baseline could not
// have found other work to overlap with the row cycle.
func (c *Controller) classify(r *Request, now int64) {
	r.classified = true
	switch {
	case r.hadPre:
		r.Class = RowConflict
		c.stats.Conflicts[r.Tag]++
	case r.hadAct:
		r.Class = RowMiss
		c.stats.Misses[r.Tag]++
	default:
		r.Class = RowHit
		c.stats.Hits[r.Tag]++
	}
	c.ins.rowClass[r.Tag][r.Class].Inc()
	if r.earlyPreAt >= 0 {
		hidden := now - r.earlyPreAt
		if trp := int64(c.cfg.Timing.TRP); hidden > trp {
			hidden = trp
		}
		c.ins.hiddenPre.Add(uint64(hidden))
	}
	if r.earlyActAt >= 0 {
		hidden := now - r.earlyActAt
		if trcd := int64(c.cfg.Timing.TRCD); hidden > trcd {
			hidden = trcd
		}
		c.ins.hiddenAct.Add(uint64(hidden))
	}
}
