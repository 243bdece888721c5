package sched

import "stringoram/internal/obs"

// Instrument attaches a flight recorder to the controller (nil detaches
// it). Events are emitted only for PB-hoisted commands and are stamped
// with the DRAM cycle — never wall clock — preserving seed determinism.
// Call before the first Tick.
func (c *Controller) Instrument(rec *obs.Recorder[obs.Event]) {
	c.rec = rec
}

// classify applies the row-buffer outcome to r and bumps the Stats
// counters.
func (c *Controller) classify(r *Request) {
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
}
