package sched

import (
	"fmt"
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/dram"
)

// commandStream drives tick with txns until every request has issued and
// returns the commands c saw. tick is c.Tick or a reference's Tick over c.
// With jump false the caller ticks every cycle; with jump true it moves
// straight to each hint (the next cycle when the hint is Never or not
// ahead), as internal/sim does.
func commandStream(t *testing.T, name string, c *Controller, tick func(int64) int64, txns [][]*Request, jump bool) []CommandEvent {
	t.Helper()
	var evs []CommandEvent
	c.OnCommand = func(e CommandEvent) { evs = append(evs, e) }
	now := int64(0)
	ti, ri := 0, 0
	for guard := 0; ; guard++ {
		if guard > 10_000_000 {
			t.Fatalf("%s: did not drain", name)
		}
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
			return evs
		}
		next := tick(now)
		if !jump || next == dram.Never || next <= now {
			now++
		} else {
			now = next
		}
	}
}

// TestHintJumpsMatchEveryCycle pins the next-event hint contract: a
// caller that jumps from hint to hint issues the identical command
// stream, cycle for cycle, as one that ticks every cycle, and both match
// the uncached reference scan ticked every cycle. Refresh deadlines
// (every tREFI, from cycle 6,240) and starvation-limit crossings change
// what a scan selects without any call into the controller, so the hint
// must stop at them. A hint that ran past a refresh deadline shows as a
// refresh served late. A hint that ran past a crossing shows only against
// the reference: four-entry queues make requests arrive while their
// transaction is current, so a head that needs a PRE can starve while its
// channel sits on a cached hint, and testDRAM's second channel makes the
// jumping caller tick inside that window; the reference issues the PRE
// there, the controller only at its stale hint.
func TestHintJumpsMatchEveryCycle(t *testing.T) {
	kinds := []config.SchedulerKind{config.SchedTransaction, config.SchedProactiveBank}
	for _, kind := range kinds {
		for _, limit := range []int{0, 8, 64} {
			for _, rows := range []int{64, 4} {
				for _, seed := range []uint64{1, 2, 3, 4} {
					for _, depth := range []int{64, 4} {
						d := testDRAM()
						d.ReadQueue, d.WriteQueue = depth, depth
						d.StarvationLimit = limit
						name := fmt.Sprintf("%v/limit %d/rows %d/seed %d/depth %d", kind, limit, rows, seed, depth)
						gen := func() [][]*Request {
							txns := randomTxns(seed, 160, d)
							for _, txn := range txns {
								for _, r := range txn {
									r.Coord.Row %= rows
								}
							}
							return txns
						}
						ref := newRefController(d, kind)
						want := commandStream(t, name, ref.Controller, ref.Tick, gen(), false)
						every := New(d, kind)
						gotEvery := commandStream(t, name, every, every.Tick, gen(), false)
						jump := New(d, kind)
						gotJump := commandStream(t, name, jump, jump.Tick, gen(), true)
						if last := want[len(want)-1].Cycle; last < int64(d.Timing.REFI) {
							t.Fatalf("%s: the run ends at cycle %d, before the first refresh", name, last)
						}
						for _, got := range []struct {
							how string
							evs []CommandEvent
						}{{"ticking every cycle", gotEvery}, {"jumping to hints", gotJump}} {
							if i := firstDiff(got.evs, want); i >= 0 {
								t.Errorf("%s: %s, command %d is %+v; the reference ticked every cycle issues %+v", name, got.how, i, at(got.evs, i), at(want, i))
							}
						}
					}
				}
			}
		}
	}
}

// firstDiff returns the index of the first command a and b disagree on,
// one running out included, or -1 when they are identical.
func firstDiff(a, b []CommandEvent) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// at returns evs[i], or the zero event past the end.
func at(evs []CommandEvent, i int) CommandEvent {
	if i < len(evs) {
		return evs[i]
	}
	return CommandEvent{}
}
