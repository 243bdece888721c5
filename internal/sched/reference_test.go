package sched

import (
	"fmt"
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/dram"
	"stringoram/internal/rng"
)

// refController schedules with the scan the controller used before the
// per-bank candidate cache: a starvation loop over every bank, then three
// FR-FCFS passes, each walking every bank and its request list, and no
// next-event cache. Enqueue, CloseTxn, refresh, close-page precharge and
// column issue are the controller's own. TestSchedulerMatchesReference
// holds the cached scan to it command for command.
type refController struct {
	*Controller
	starved [][]bool // per channel: scratch rebuilt by every scan
}

func newRefController(cfg config.DRAM, kind config.SchedulerKind) *refController {
	rc := &refController{Controller: New(cfg, kind)}
	for range rc.chans {
		rc.starved = append(rc.starved, make([]bool, cfg.Ranks*cfg.Banks))
	}
	return rc
}

// Tick scans every channel from scratch and issues at most one command
// on each, returning the earliest cycle another may become issuable (a
// refresh deadline or starvation crossing included), or dram.Never when
// no request is queued.
func (rc *refController) Tick(now int64) int64 {
	next := dram.Never
	for i := range rc.chans {
		if n := rc.refScanChannel(&rc.chans[i], rc.starved[i], now); n < next {
			next = n
		}
	}
	rc.advance()
	if rc.Pending() == 0 {
		return dram.Never
	}
	return next
}

func (c *Controller) refScanChannel(ch *chanState, starved []bool, now int64) int64 {
	if n, handled := c.tickRefresh(ch, now); handled {
		return n
	}
	// Selection changes without a call at the next refresh deadline and
	// at the next starvation crossing, so the hint stops at both.
	until := dram.Never
	for rank := 0; rank < c.cfg.Ranks; rank++ {
		until = min(until, ch.dev.NextRefresh(rank))
	}
	next := dram.Never
	clear(starved)
	if lim := int64(c.cfg.StarvationLimit); lim > 0 {
		for k := range ch.banks {
			r := ch.banks[k].head
			if r == nil || r.Txn != c.curTxn || neededCmd(ch.dev, r) != dram.CmdPRE {
				continue
			}
			if cross := r.Enqueued + lim; cross <= now {
				starved[k] = true
			} else {
				until = min(until, cross)
			}
		}
	}
	if n, issued := c.tryColumnHit(ch, starved, now); issued {
		return now + 1
	} else if n < next {
		next = n
	}
	if n, issued := c.tryInTxn(ch, starved, now); issued {
		return now + 1
	} else if n < next {
		next = n
	}
	if c.kind == config.SchedProactiveBank {
		if n, issued := c.tryProactive(ch, now); issued {
			return now + 1
		} else if n < next {
			next = n
		}
	}
	if c.cfg.Policy == config.ClosePage {
		if n, issued := c.tryClosePage(ch, now); issued {
			return now + 1
		} else if n < next {
			next = n
		}
	}
	return min(next, until)
}

// tryColumnHit issues the oldest current-transaction column command whose
// row is already open. Candidates reduce per bank to the oldest same-row
// read and the oldest same-row write: all younger same-direction requests
// share their EarliestIssue, so these two are the only requests the full
// age-order scan could have issued or drawn a hint from.
func (c *Controller) tryColumnHit(ch *chanState, starved []bool, now int64) (int64, bool) {
	next := dram.Never
	var best *Request
	var bestCmd dram.CmdKind
	for k := range ch.banks {
		l := &ch.banks[k]
		if l.head == nil || l.head.Txn != c.curTxn || starved[k] {
			continue // no current-txn work, or bank paused for an aged row change
		}
		row, open := ch.dev.OpenRow(l.rank, l.bank)
		if !open {
			continue
		}
		var rd, wr *Request
		for r := l.head; r != nil && r.Txn == c.curTxn; r = r.next {
			if r.Coord.Row != row {
				continue
			}
			if r.Write {
				if wr == nil {
					wr = r
				}
			} else if rd == nil {
				rd = r
			}
			if rd != nil && wr != nil {
				break
			}
		}
		if rd != nil {
			e := ch.dev.EarliestIssue(dram.CmdRD, l.rank, l.bank, row, now)
			if e <= now {
				if best == nil || rd.seq < best.seq {
					best, bestCmd = rd, dram.CmdRD
				}
			} else if e < next {
				next = e
			}
		}
		if wr != nil {
			e := ch.dev.EarliestIssue(dram.CmdWR, l.rank, l.bank, row, now)
			if e <= now {
				if best == nil || wr.seq < best.seq {
					best, bestCmd = wr, dram.CmdWR
				}
			} else if e < next {
				next = e
			}
		}
	}
	if best == nil {
		return next, false
	}
	c.issueColumn(ch, best, bestCmd, now)
	return now + 1, true
}

// tryInTxn considers the oldest current-transaction request of each bank
// (the list head, since transactions enqueue in order) and issues the
// oldest legal command (PRE, ACT, or column) among them, so a younger
// request cannot close a row an older same-bank request still needs.
// FR-FCFS deferral: a PRE is held back while pending requests can still
// hit the bank's open row, unless the conflicting request has waited past
// the starvation limit.
func (c *Controller) tryInTxn(ch *chanState, starved []bool, now int64) (int64, bool) {
	next := dram.Never
	var best *Request
	var bestCmd dram.CmdKind
	for k := range ch.banks {
		l := &ch.banks[k]
		r := l.head
		if r == nil || r.Txn != c.curTxn {
			continue
		}
		cmd := neededCmd(ch.dev, r)
		if cmd == dram.CmdPRE && !starved[k] {
			row, _ := ch.dev.OpenRow(l.rank, l.bank)
			wanted := false
			for n := r; n != nil && n.Txn == c.curTxn; n = n.next {
				if n.Coord.Row == row {
					wanted = true
					break
				}
			}
			if wanted {
				continue // let pass 1 drain the open row's hits first
			}
		}
		e := ch.dev.EarliestIssue(cmd, l.rank, l.bank, r.Coord.Row, now)
		if e == dram.Never {
			continue
		}
		if e <= now {
			if best == nil || r.seq < best.seq {
				best, bestCmd = r, cmd
			}
		} else if e < next {
			next = e
		}
	}
	if best == nil {
		return next, false
	}
	switch bestCmd {
	case dram.CmdPRE:
		ch.dev.Issue(bestCmd, best.Coord.Rank, best.Coord.Bank, 0, now)
		c.stats.PREs++
		best.hadPre = true
		c.emit(ch.idx, bestCmd, best.Coord.Rank, best.Coord.Bank, 0, now, best.Txn, false)
	case dram.CmdACT:
		ch.dev.Issue(bestCmd, best.Coord.Rank, best.Coord.Bank, best.Coord.Row, now)
		c.stats.ACTs++
		best.hadAct = true
		c.emit(ch.idx, bestCmd, best.Coord.Rank, best.Coord.Bank, best.Coord.Row, now, best.Txn, false)
	default:
		c.issueColumn(ch, best, bestCmd, now)
	}
	return now + 1, true
}

// tryProactive implements Algorithm 2's extension: for requests of
// transaction curTxn+1, issue PRE/ACT ahead of time when the conflict is
// inter-transaction, i.e. no pending current-transaction request needs
// the same bank. Data commands are never hoisted. A bank still needed by
// the current transaction has head.Txn == curTxn (transactions enqueue in
// order), so such banks are excluded simply by requiring the head to
// belong to curTxn+1.
func (c *Controller) tryProactive(ch *chanState, now int64) (int64, bool) {
	next := dram.Never
	var best *Request
	var bestCmd dram.CmdKind
	for k := range ch.banks {
		r := ch.banks[k].head
		if r == nil || r.Txn != c.curTxn+1 {
			continue
		}
		cmd := neededCmd(ch.dev, r)
		if cmd != dram.CmdPRE && cmd != dram.CmdACT {
			continue // row already open: nothing to prepare
		}
		e := ch.dev.EarliestIssue(cmd, r.Coord.Rank, r.Coord.Bank, r.Coord.Row, now)
		if e == dram.Never {
			continue
		}
		if e <= now {
			if best == nil || r.seq < best.seq {
				best, bestCmd = r, cmd
			}
		} else if e < next {
			next = e
		}
	}
	if best == nil {
		return next, false
	}
	if bestCmd == dram.CmdPRE {
		ch.dev.Issue(bestCmd, best.Coord.Rank, best.Coord.Bank, 0, now)
		c.stats.PREs++
		c.stats.EarlyPREs++
		best.hadPre = true
		c.emit(ch.idx, bestCmd, best.Coord.Rank, best.Coord.Bank, 0, now, best.Txn, true)
	} else {
		ch.dev.Issue(bestCmd, best.Coord.Rank, best.Coord.Bank, best.Coord.Row, now)
		c.stats.ACTs++
		c.stats.EarlyACTs++
		best.hadAct = true
		c.emit(ch.idx, bestCmd, best.Coord.Rank, best.Coord.Bank, best.Coord.Row, now, best.Txn, true)
	}
	return now + 1, true
}

// TestSchedulerMatchesReference is the equivalence gate for the per-bank
// candidate cache: under every scheduler, page policy and starvation
// limit, with full and with shallow queues, with rare and with frequent
// row hits, and on one rank and on two, the controller and the uncached
// reference fed the same requests at the same cycles must issue the
// identical command stream and return the identical next-event hint from
// every Tick. Ticks land on the hint and, at random, on later cycles,
// which the hint contract allows.
func TestSchedulerMatchesReference(t *testing.T) {
	kinds := []config.SchedulerKind{config.SchedTransaction, config.SchedProactiveBank}
	policies := []config.PagePolicy{config.OpenPage, config.ClosePage}
	for _, kind := range kinds {
		for _, policy := range policies {
			for _, limit := range []int{0, 8, 64} {
				// Full queues hold transactions far ahead of the current
				// one; four-entry queues make requests arrive while their
				// transaction is current.
				for _, depth := range []int{64, 4} {
					// 64 rows per bank make row hits rare; 4 make most
					// requests hit or conflict with an open row.
					for _, rows := range []int{64, 4} {
						// Two ranks give each scan a second set of
						// per-rank timing floors to price from.
						for _, ranks := range []int{1, 2} {
							for _, seed := range []uint64{1, 2, 3} {
								d := testDRAM()
								d.Policy = policy
								d.StarvationLimit = limit
								d.ReadQueue, d.WriteQueue = depth, depth
								d.Ranks = ranks
								matchReference(t, d, kind, rows, seed)
							}
						}
					}
				}
			}
		}
	}
}

func matchReference(t *testing.T, d config.DRAM, kind config.SchedulerKind, rows int, seed uint64) {
	t.Helper()
	got, want := New(d, kind), newRefController(d, kind)
	var gotEv, wantEv []CommandEvent
	got.OnCommand = func(e CommandEvent) { gotEv = append(gotEv, e) }
	want.OnCommand = func(e CommandEvent) { wantEv = append(wantEv, e) }
	gotTxns, wantTxns := randomTxns(seed, 120, d), randomTxns(seed, 120, d)
	rankSrc := rng.New(seed ^ 0x5bd1e995)
	for i := range gotTxns {
		for j := range gotTxns[i] {
			gotTxns[i][j].Coord.Row %= rows
			wantTxns[i][j].Coord.Row %= rows
			if d.Ranks > 1 {
				rank := rankSrc.Intn(d.Ranks)
				gotTxns[i][j].Coord.Rank = rank
				wantTxns[i][j].Coord.Rank = rank
			}
		}
	}
	src := rng.New(seed ^ 0x9e3779b97f4a7c15)
	name := fmt.Sprintf("%v/%v/limit %d/queues %d/rows %d/ranks %d/seed %d", kind, d.Policy, d.StarvationLimit, d.ReadQueue, rows, d.Ranks, seed)

	now := int64(0)
	ti, ri, seen := 0, 0, 0
	for guard := 0; ; guard++ {
		if guard > 10_000_000 {
			t.Fatalf("%s: did not drain", name)
		}
		for ti < len(gotTxns) {
			for ri < len(gotTxns[ti]) {
				g, w := got.Enqueue(gotTxns[ti][ri], now), want.Enqueue(wantTxns[ti][ri], now)
				if g != w {
					t.Fatalf("%s: cycle %d: Enqueue accepted %v, reference %v", name, now, g, w)
				}
				if !g {
					break
				}
				ri++
			}
			if ri < len(gotTxns[ti]) {
				break
			}
			got.CloseTxn(int64(ti))
			want.CloseTxn(int64(ti))
			ti++
			ri = 0
		}
		if got.Pending() == 0 && ti >= len(gotTxns) {
			break
		}
		g, w := got.Tick(now), want.Tick(now)
		if g != w {
			t.Fatalf("%s: cycle %d: Tick hinted %d, reference %d", name, now, g, w)
		}
		if len(gotEv) != len(wantEv) {
			t.Fatalf("%s: cycle %d: %d commands issued, reference %d", name, now, len(gotEv), len(wantEv))
		}
		for ; seen < len(gotEv); seen++ {
			if gotEv[seen] != wantEv[seen] {
				t.Fatalf("%s: command %d: got %+v, reference %+v", name, seen, gotEv[seen], wantEv[seen])
			}
		}
		switch {
		case g == dram.Never || g <= now:
			now++
		default:
			now = g
		}
		if src.Intn(4) == 0 {
			now += int64(src.Intn(24))
		}
	}
	if want.Pending() != 0 {
		t.Fatalf("%s: reference still holds %d requests", name, want.Pending())
	}
	if *got.Stats() != *want.Stats() {
		t.Fatalf("%s: stats diverged:\n got %+v\nwant %+v", name, *got.Stats(), *want.Stats())
	}
	if len(gotEv) == 0 {
		t.Fatalf("%s: no commands issued", name)
	}
}
