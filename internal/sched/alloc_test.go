package sched

import (
	"testing"

	"stringoram/internal/addrmap"
	"stringoram/internal/config"
	"stringoram/internal/dram"
	"stringoram/internal/invariant"
	"stringoram/internal/obs"
	"stringoram/internal/rng"
)

// TestAllocFreeSchedTick pins the scheduler hot path's contract: once
// the queues and the transaction window have reached their steady
// capacity, Tick performs zero heap allocations, with or without a
// flight recorder attached. The controller is
// kept saturated by a synthetic ORAM-like request stream whose Request
// objects are recycled in place, and each measured run is exactly one
// feed + Tick under the PB scheduler (the scheme that scans the most).
func TestAllocFreeSchedTick(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; the zero-alloc guarantee binds on the default build")
	}
	for _, instrumented := range []bool{false, true} {
		d := config.Default().DRAM
		c := New(d, config.SchedProactiveBank)
		if instrumented {
			c.Instrument(obs.NewRecorder[obs.Event](4096))
		}

		// Transaction t reuses pool slot t%poolTxns, which is safe once
		// transaction t-poolTxns has drained.
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
		step := func() {
			feed(now)
			if next := c.Tick(now); next == dram.Never || next <= now {
				now++
			} else {
				now = next
			}
		}
		// Warm into steady state before measuring.
		for i := 0; i < 4096; i++ {
			step()
		}
		fed := tnext
		if n := testing.AllocsPerRun(4096, step); n != 0 {
			t.Errorf("saturated Tick (instrumented=%v) allocates %.2f times per call, want 0", instrumented, n)
		}
		if tnext == fed {
			t.Errorf("instrumented=%v: the measured Ticks drained no transaction; the loop is not saturating the scheduler", instrumented)
		}
	}
}
