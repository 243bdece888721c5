package oram

import (
	"stringoram/internal/obs"
)

// Instruments bundles the telemetry hooks a Ring can drive. Every field
// may be nil (nil instruments are no-ops), so an uninstrumented ring —
// the zero Instruments value — pays only inlined nil checks; the warmed
// Access path stays at 0 allocs/op with all instruments live (pinned by
// TestAllocFreeInstrumentedAccess).
//
// Unlike the scheduler, rings run inside server worker goroutines that
// are scraped concurrently, so every metric here is a true atomic
// instrument — no scrape-time mirrors of the unsynchronized Stats
// struct.
type Instruments struct {
	// Stash tracks live stash occupancy in blocks; StashPeak its high
	// water mark.
	Stash     *obs.Gauge
	StashPeak *obs.Gauge

	Accesses             *obs.Counter
	StashHits            *obs.Counter
	GreenFetches         *obs.Counter
	EarlyReshuffles      *obs.Counter
	BackgroundEvictions  *obs.Counter
	BackgroundDummyReads *obs.Counter
	ReadPaths            *obs.Counter
	DummyReadPaths       *obs.Counter
	EvictPaths           *obs.Counter

	// Recorder receives typed flight-recorder events. Clock supplies
	// their timestamps and must be in a deterministic domain when the
	// ring feeds a simulator (the sim injects its cycle counter); when
	// nil, events are stamped with the ring's logical access ordinal.
	Recorder *obs.Recorder[obs.Event]
	Clock    func() int64
}

// NewInstruments registers the ring metric families on reg and returns
// the bundle. labels, when non-empty, is a Prometheus label block (e.g.
// `shard="3"`) appended to every series so multiple rings can share one
// registry. The recorder and clock are left nil for the caller to fill.
// A nil registry yields all-nil (no-op) instruments.
func NewInstruments(reg *obs.Registry, labels string) Instruments {
	n := func(fam, extra string) string {
		lb := labels
		if extra != "" {
			if lb != "" {
				lb += "," + extra
			} else {
				lb = extra
			}
		}
		if lb == "" {
			return fam
		}
		return fam + "{" + lb + "}"
	}
	return Instruments{
		Stash:     reg.Gauge(n("oram_stash_blocks", ""), "current stash occupancy in blocks"),
		StashPeak: reg.Gauge(n("oram_stash_peak_blocks", ""), "highest stash occupancy observed"),
		Accesses:  reg.Counter(n("oram_accesses_total", ""), "ORAM accesses completed (reads and writes)"),
		StashHits: reg.Counter(n("oram_stash_hits_total", ""), "accesses served while the block sat in the stash"),
		GreenFetches: reg.Counter(n("oram_green_fetches_total", ""),
			"Compact Bucket green blocks pulled into the stash in place of dummies"),
		EarlyReshuffles: reg.Counter(n("oram_early_reshuffles_total", ""),
			"buckets reshuffled after exhausting their S dummy budget"),
		BackgroundEvictions: reg.Counter(n("oram_background_evictions_total", ""),
			"scheduled evictions issued by the background stash-drain loop"),
		BackgroundDummyReads: reg.Counter(n("oram_background_dummy_reads_total", ""),
			"dummy read paths issued by the background stash-drain loop"),
		ReadPaths:      reg.Counter(n("oram_paths_total", `kind="read"`), "real read-path operations"),
		DummyReadPaths: reg.Counter(n("oram_paths_total", `kind="dummy"`), "dummy read-path operations"),
		EvictPaths:     reg.Counter(n("oram_paths_total", `kind="evict"`), "eviction path operations"),
	}
}

// Instrument attaches the bundle to the ring. Call it before traffic;
// re-attaching (or attaching the zero value to disable) is allowed
// between accesses.
func (r *Ring) Instrument(in Instruments) {
	r.ins = in
}

// obsNow returns the timestamp for the ring's flight-recorder events:
// the injected clock when present, the logical access ordinal otherwise.
func (r *Ring) obsNow() int64 {
	if r.ins.Clock != nil {
		return r.ins.Clock()
	}
	return r.stats.Reads + r.stats.Writes
}
