package sched

import (
	"testing"

	"stringoram/internal/addrmap"
	"stringoram/internal/config"
	"stringoram/internal/dram"
	"stringoram/internal/obs"
	"stringoram/internal/rng"
)

// drainBench runs a workload to completion without testing.T plumbing.
func drainBench(c *Controller, txns [][]*Request) {
	now := int64(0)
	ti, ri := 0, 0
	for {
		for ti < len(txns) {
			for ri < len(txns[ti]) && c.Enqueue(txns[ti][ri], now) {
				ri++
			}
			if ri < len(txns[ti]) {
				break
			}
			c.CloseTxn(int64(ti))
			ti++
			ri = 0
		}
		if c.Pending() == 0 && ti >= len(txns) {
			return
		}
		next := c.Tick(now)
		if next == dram.Never || next <= now {
			now++
		} else {
			now = next
		}
	}
}

// BenchmarkSchedTick measures one controller scheduling step in steady
// state: the controller is kept saturated by a synthetic ORAM-like
// request stream whose Request objects are recycled in place, and each
// benchmark iteration is exactly one Tick. The allocs/op report is the
// zero-allocation gate for the scheduler hot path.
func BenchmarkSchedTick(b *testing.B) { benchSchedTick(b, false) }

// BenchmarkSchedTickObs is the same workload with a live metrics
// registry and flight recorder attached; the pair quantifies the
// instrumentation overhead (budget ≤5%).
func BenchmarkSchedTickObs(b *testing.B) { benchSchedTick(b, true) }

func benchSchedTick(b *testing.B, instrumented bool) {
	b.ReportAllocs()
	d := config.Default().DRAM
	c := New(d, config.SchedProactiveBank)
	if instrumented {
		c.Instrument(obs.NewRegistry(), obs.NewRecorder[obs.Event](4096))
	}

	// Pre-generate the coordinate stream and a request pool outside the
	// timed loop; transaction t reuses pool slot t%poolTxns, which is
	// safe once transaction t-poolTxns has drained.
	const poolTxns = 64
	const reqsPerTxn = 8
	src := rng.New(42)
	pool := make([]Request, poolTxns*reqsPerTxn)
	coords := make([]addrmap.Coord, len(pool))
	writes := make([]bool, len(pool))
	for i := range coords {
		coords[i] = addrmap.Coord{
			Channel: src.Intn(d.Channels),
			Rank:    src.Intn(d.Ranks),
			Bank:    src.Intn(d.Banks),
			Row:     src.Intn(64),
			Col:     src.Intn(d.Columns),
		}
		writes[i] = src.Intn(4) == 0
	}

	tnext := int64(0) // next transaction to feed
	ri := 0           // next request index within it
	feed := func(now int64) {
		for {
			if tnext-c.CurrentTxn() >= poolTxns {
				return // pool slot of tnext still owned by a live txn
			}
			base := int(tnext%poolTxns) * reqsPerTxn
			for ri < reqsPerTxn {
				r := &pool[base+ri]
				r.Txn = tnext
				r.Coord = coords[base+ri]
				r.Write = writes[base+ri]
				r.Tag = TagReadPath
				if !c.Enqueue(r, now) {
					return // backpressure; resume here next time
				}
				ri++
			}
			c.CloseTxn(tnext)
			tnext++
			ri = 0
		}
	}

	now := int64(0)
	// Warm into steady state before measuring.
	for i := 0; i < 4096; i++ {
		feed(now)
		if next := c.Tick(now); next == dram.Never || next <= now {
			now++
		} else {
			now = next
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(now)
		if next := c.Tick(now); next == dram.Never || next <= now {
			now++
		} else {
			now = next
		}
	}
}

// BenchmarkControllerTransaction measures end-to-end scheduling
// throughput (requests/sec) under the baseline scheduler.
func BenchmarkControllerTransaction(b *testing.B) {
	b.ReportAllocs()
	d := config.Default().DRAM
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		txns := randomTxns(uint64(i)+1, 100, d)
		c := New(d, config.SchedTransaction)
		b.StartTimer()
		drainBench(c, txns)
	}
}

// BenchmarkControllerPB measures the PB scheduler's throughput (it scans
// the next transaction too).
func BenchmarkControllerPB(b *testing.B) {
	b.ReportAllocs()
	d := config.Default().DRAM
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		txns := randomTxns(uint64(i)+1, 100, d)
		c := New(d, config.SchedProactiveBank)
		b.StartTimer()
		drainBench(c, txns)
	}
}
