// Package sched implements the ORAM-aware memory controller: per-channel
// read/write queues, FR-FCFS command selection, and the two transaction
// scheduling policies of the paper — the baseline transaction-based
// scheduler (Algorithm 1) and the Proactive Bank scheduler (Algorithm 2).
//
// A "transaction" is the set of memory requests belonging to one ORAM
// operation. Correctness and security require all commands of transaction
// i to issue before any command of transaction i+1; PB relaxes this for
// PRE and ACT only, when the row-buffer conflict is inter-transaction
// (the bank is not needed by any pending request of the current
// transaction), which hides row-miss latency without changing the data
// command sequence.
package sched

import (
	"fmt"

	"stringoram/internal/addrmap"
	"stringoram/internal/config"
	"stringoram/internal/dram"
	"stringoram/internal/invariant"
	"stringoram/internal/obs"
)

// Tag groups requests for statistics; the simulator uses it to separate
// the ORAM phases of Fig. 5(b) and Fig. 10.
type Tag uint8

const (
	// TagReadPath marks read-path (and dummy read-path) traffic.
	TagReadPath Tag = iota
	// TagEvict marks eviction traffic.
	TagEvict
	// TagReshuffle marks early-reshuffle traffic.
	TagReshuffle
	// NumTags sizes per-tag stat arrays.
	NumTags
)

// String implements fmt.Stringer.
func (t Tag) String() string {
	switch t {
	case TagReadPath:
		return "read-path"
	case TagEvict:
		return "evict"
	case TagReshuffle:
		return "reshuffle"
	default:
		return fmt.Sprintf("Tag(%d)", int(t))
	}
}

// RowClass classifies a request's row-buffer outcome.
type RowClass uint8

const (
	// RowHit: the needed row was already open.
	RowHit RowClass = iota
	// RowMiss: the bank was precharged; an ACT sufficed.
	RowMiss
	// RowConflict: another row was open; PRE then ACT were needed.
	RowConflict
)

// Request is one block transfer submitted to the controller. The caller
// allocates it; the controller fills the outcome fields. Requests may be
// recycled through a freelist: Enqueue resets the bookkeeping a previous
// use left behind.
type Request struct {
	Txn   int64 // ORAM transaction number (global, monotonically increasing)
	Coord addrmap.Coord
	Write bool
	Tag   Tag

	Enqueued int64 // cycle the request entered the queue (set by Enqueue)
	Issued   int64 // cycle its RD/WR issued
	Done     int64 // cycle its data burst completed

	Class RowClass

	seq        int64 // global age for FCFS
	hadPre     bool
	hadAct     bool
	classified bool

	// Intrusive per-(rank, bank) FIFO links; see bankList.
	next, prev *Request
}

// Stats aggregates controller-level counters.
type Stats struct {
	ReadReqs  int64
	WriteReqs int64

	// Queuing time sums (enqueue -> RD/WR issue), split by queue.
	ReadQueueWait  int64
	WriteQueueWait int64

	// Row-buffer outcomes, per tag.
	Hits      [NumTags]int64
	Misses    [NumTags]int64
	Conflicts [NumTags]int64

	// Command counts.
	PREs int64
	ACTs int64
	REFs int64
	// PB early issues (commands hoisted ahead of their transaction).
	EarlyPREs int64
	EarlyACTs int64
}

// ConflictRate returns the fraction of accesses with the given tag that
// required closing an open row (the Fig. 5(b) metric). Misses on
// precharged banks are counted in the denominator only.
func (s *Stats) ConflictRate(tag Tag) float64 {
	total := s.Hits[tag] + s.Misses[tag] + s.Conflicts[tag]
	if total == 0 {
		return 0
	}
	return float64(s.Conflicts[tag]) / float64(total)
}

// AvgReadWait returns the mean read-queue wait in cycles.
func (s *Stats) AvgReadWait() float64 {
	if s.ReadReqs == 0 {
		return 0
	}
	return float64(s.ReadQueueWait) / float64(s.ReadReqs)
}

// AvgWriteWait returns the mean write-queue wait in cycles.
func (s *Stats) AvgWriteWait() float64 {
	if s.WriteReqs == 0 {
		return 0
	}
	return float64(s.WriteQueueWait) / float64(s.WriteReqs)
}

// EarlyPREFrac returns the fraction of PREs issued ahead of their
// transaction (Fig. 12(b)).
func (s *Stats) EarlyPREFrac() float64 {
	if s.PREs == 0 {
		return 0
	}
	return float64(s.EarlyPREs) / float64(s.PREs)
}

// EarlyACTFrac returns the fraction of ACTs issued ahead of their
// transaction (Fig. 12(b)).
func (s *Stats) EarlyACTFrac() float64 {
	if s.ACTs == 0 {
		return 0
	}
	return float64(s.EarlyACTs) / float64(s.ACTs)
}

// EnergyNJ estimates total DRAM energy in nanojoules for a run of the
// given length: the commands this controller issued at the per-operation
// energies plus background power integrated over the run across all
// ranks. First-order accounting — no per-bank power-down states.
func (s *Stats) EnergyNJ(e config.DRAMEnergy, cycles int64, totalRanks int) float64 {
	dynamic := float64(s.ACTs)*e.ACT +
		float64(s.PREs)*e.PRE +
		float64(s.ReadReqs)*e.RD +
		float64(s.WriteReqs)*e.WR +
		float64(s.REFs)*e.REF
	seconds := float64(cycles) * e.CycleNS * 1e-9
	background := e.BackgroundW * seconds * float64(totalRanks) * 1e9
	return dynamic + background
}

// bankList is an intrusive FIFO of queued requests for one (rank, bank),
// linked through Request.next/prev. Requests append at Enqueue time in
// global age order, so each list is sorted by seq — and, because
// transactions must enqueue in non-decreasing order, by Txn as well: a
// bank's current-transaction requests always form a prefix of its list,
// and the list head is the bank's oldest pending request.
type bankList struct {
	head, tail *Request
	rank, bank int
}

func (l *bankList) pushBack(r *Request) {
	r.prev = l.tail
	r.next = nil
	if l.tail != nil {
		l.tail.next = r
	} else {
		l.head = r
	}
	l.tail = r
}

func (l *bankList) remove(r *Request) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		l.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		l.tail = r.prev
	}
	r.next, r.prev = nil, nil
}

// chanState holds one channel's request index and its next-event cache.
type chanState struct {
	idx int
	dev *dram.Channel

	// banks indexes queued requests per (rank, bank); scheduling passes
	// consult list heads instead of re-walking age-ordered queues, so a
	// tick costs work proportional to banks with pending requests.
	banks      []bankList
	readCount  int
	writeCount int

	// starved flags banks whose oldest current-transaction request has
	// waited past the starvation limit for a row change (scratch, rebuilt
	// every recomputed tick).
	starved []bool

	// Next-event cache: when hintOK, no command can issue on this channel
	// before hint, provided the controller generation still matches and
	// now has not reached hintUntil (the earliest refresh deadline or
	// starvation-limit crossing, whichever comes first). Invalidated by
	// Enqueue, by issuing any command, and by transaction advancement.
	hint      int64
	hintUntil int64
	hintGen   uint64
	hintOK    bool
}

// invalidateHint drops the channel's cached next-event hint.
func (ch *chanState) invalidateHint() { ch.hintOK = false }

// txnWindow counts outstanding requests per transaction over a sliding
// window of transaction ids, replacing a map[int64]int on the hot path.
// Slots are addressed id&mask; the growth rule keeps every live id within
// one window span, so distinct live ids can never alias.
type txnWindow struct {
	counts []int32
	mask   int64
	// lo/hi record the span last passed to ensure; maintained only in
	// the invariants build, where get/add verify their id against it.
	lo, hi int64
}

func newTxnWindow() txnWindow {
	const initial = 1024 // power of two
	return txnWindow{counts: make([]int32, initial), mask: initial - 1}
}

// ensure grows the window until ids in [lo, hi] are alias-free, copying
// the live span across.
func (w *txnWindow) ensure(lo, hi int64) {
	if invariant.Enabled {
		w.lo, w.hi = lo, hi
	}
	if hi-lo < int64(len(w.counts)) {
		return
	}
	n := len(w.counts)
	for int64(n) <= hi-lo {
		n *= 2
	}
	counts := make([]int32, n)
	for id := lo; id <= hi; id++ {
		counts[id&int64(n-1)] = w.counts[id&w.mask]
	}
	w.counts = counts
	w.mask = int64(n - 1)
}

func (w *txnWindow) get(id int64) int32 {
	if invariant.Enabled {
		invariant.Assertf(id >= w.lo && id <= w.hi, "txn window read of id %d outside ensured span [%d, %d]: slot may alias another live transaction", id, w.lo, w.hi)
	}
	return w.counts[id&w.mask]
}

func (w *txnWindow) add(id int64, d int32) {
	if invariant.Enabled {
		invariant.Assertf(id >= w.lo && id <= w.hi, "txn window write of id %d outside ensured span [%d, %d]: slot may alias another live transaction", id, w.lo, w.hi)
	}
	w.counts[id&w.mask] += d
}

// CommandEvent describes one DRAM command issue, for tracing (the
// paper's Fig. 6/8 timelines).
type CommandEvent struct {
	Cycle   int64
	Channel int
	Kind    dram.CmdKind
	Rank    int
	Bank    int
	Row     int
	// Txn is the transaction the command serves (-1 for refresh and
	// close-page maintenance).
	Txn int64
	// Early marks PB-hoisted commands.
	Early bool
}

// Controller is the ORAM-aware memory controller.
type Controller struct {
	cfg  config.DRAM
	kind config.SchedulerKind

	chans []chanState

	curTxn      int64
	outstanding txnWindow
	maxTxn      int64 // highest transaction id ever enqueued
	// lastDataTxn is the transaction of the most recent RD/WR issued;
	// maintained only in the invariants build to check that the data
	// command sequence never goes backwards across transactions (the
	// ordering PB must preserve).
	lastDataTxn int64
	closedUpTo  int64 // all txns < closedUpTo are fully enqueued
	txnGen      uint64

	seq   int64
	stats Stats
	rec   *obs.Recorder[obs.Event] // PB early-command events; see Instrument

	// OnCommand, when set, observes every issued command.
	OnCommand func(CommandEvent)
}

// emit reports a command to the tracer, if any.
func (c *Controller) emit(chIdx int, k dram.CmdKind, rank, bank, row int, cycle, txn int64, early bool) {
	if c.OnCommand != nil {
		c.OnCommand(CommandEvent{
			Cycle: cycle, Channel: chIdx, Kind: k,
			Rank: rank, Bank: bank, Row: row, Txn: txn, Early: early,
		})
	}
}

// New returns a controller with fresh DRAM channel devices.
func New(cfg config.DRAM, kind config.SchedulerKind) *Controller {
	c := &Controller{
		cfg:         cfg,
		kind:        kind,
		outstanding: newTxnWindow(),
	}
	c.chans = make([]chanState, cfg.Channels)
	for i := range c.chans {
		ch := &c.chans[i]
		ch.idx = i
		ch.dev = dram.NewChannel(cfg)
		ch.banks = make([]bankList, cfg.Ranks*cfg.Banks)
		for k := range ch.banks {
			ch.banks[k].rank = k / cfg.Banks
			ch.banks[k].bank = k % cfg.Banks
		}
		ch.starved = make([]bool, cfg.Ranks*cfg.Banks)
	}
	return c
}

// Channel exposes the underlying device of one channel (for statistics
// such as bank busy cycles).
func (c *Controller) Channel(i int) *dram.Channel { return c.chans[i].dev }

// Stats returns the controller counters. The pointer stays valid and
// live-updating for the controller's lifetime.
func (c *Controller) Stats() *Stats { return &c.stats }

// CurrentTxn returns the transaction currently allowed to issue data
// commands.
func (c *Controller) CurrentTxn() int64 { return c.curTxn }

// Pending returns the total number of queued (un-issued) requests.
func (c *Controller) Pending() int {
	n := 0
	for i := range c.chans {
		n += c.chans[i].readCount + c.chans[i].writeCount
	}
	return n
}

// CanEnqueue reports whether the target queue for the request's channel
// and direction has a free entry.
func (c *Controller) CanEnqueue(coordChannel int, write bool) bool {
	ch := &c.chans[coordChannel]
	if write {
		return ch.writeCount < c.cfg.WriteQueue
	}
	return ch.readCount < c.cfg.ReadQueue
}

// Enqueue submits a request at the given cycle. It returns false when the
// target queue is full (backpressure; the caller retries later).
// Transactions must be enqueued in non-decreasing Txn order (the per-bank
// index depends on it).
func (c *Controller) Enqueue(r *Request, now int64) bool {
	if r.Txn < c.curTxn {
		panic(fmt.Sprintf("sched: request for past transaction %d (current %d)", r.Txn, c.curTxn))
	}
	if r.Txn < c.maxTxn {
		panic(fmt.Sprintf("sched: out-of-order enqueue for transaction %d (already saw %d)", r.Txn, c.maxTxn))
	}
	if !c.CanEnqueue(r.Coord.Channel, r.Write) {
		return false
	}
	ch := &c.chans[r.Coord.Channel]
	r.Enqueued = now
	r.Issued, r.Done = 0, 0
	r.hadPre, r.hadAct, r.classified = false, false, false
	r.seq = c.seq
	c.seq++
	if r.Write {
		ch.writeCount++
	} else {
		ch.readCount++
	}
	ch.banks[r.Coord.Rank*c.cfg.Banks+r.Coord.Bank].pushBack(r)
	if r.Txn > c.maxTxn {
		c.maxTxn = r.Txn
	}
	c.outstanding.ensure(c.curTxn, c.maxTxn)
	c.outstanding.add(r.Txn, 1)
	ch.invalidateHint()
	return true
}

// CloseTxn declares that every request of all transactions up to and
// including txn has been enqueued, allowing the controller to advance
// past them once they drain.
func (c *Controller) CloseTxn(txn int64) {
	if txn+1 > c.closedUpTo {
		c.closedUpTo = txn + 1
	}
	c.advance()
}

// advance moves curTxn past fully drained, fully enqueued transactions.
// Any movement bumps the generation, invalidating every channel's cached
// next-event hint (new current-transaction requests may now be ready).
func (c *Controller) advance() {
	moved := false
	for c.curTxn < c.closedUpTo && c.outstanding.get(c.curTxn) == 0 {
		c.curTxn++
		moved = true
	}
	if moved {
		c.txnGen++
	}
}

// neededCmd determines the command a request needs next given the bank
// state: RD/WR when its row is open, ACT when the bank is precharged,
// PRE when another row is open.
func neededCmd(dev *dram.Channel, r *Request) dram.CmdKind {
	row, open := dev.OpenRow(r.Coord.Rank, r.Coord.Bank)
	switch {
	case !open:
		return dram.CmdACT
	case row != r.Coord.Row:
		return dram.CmdPRE
	case r.Write:
		return dram.CmdWR
	default:
		return dram.CmdRD
	}
}

// Tick runs one scheduling step at cycle now: each channel issues at most
// one command. It returns the earliest future cycle at which another
// command might become issuable (dram.Never when all queues are empty and
// no refresh is pending). Successive calls must use non-decreasing now
// (the per-channel next-event cache depends on time moving forward); Tick
// may be called later than the returned hint, but never needs to be
// called earlier.
func (c *Controller) Tick(now int64) int64 {
	next := dram.Never
	for i := range c.chans {
		if n := c.tickChannel(&c.chans[i], now); n < next {
			next = n
		}
	}
	c.advance()
	return next
}

// tickChannel issues at most one command on one channel and returns the
// channel's next-event hint.
func (c *Controller) tickChannel(ch *chanState, now int64) int64 {
	// Next-event cache: between enqueues, issues, transaction advances,
	// refresh deadlines and starvation-limit crossings, channel state is
	// frozen, so a previously computed hint remains exact and the whole
	// scheduling scan can be skipped.
	if ch.hintOK && ch.hintGen == c.txnGen && now < ch.hint && now < ch.hintUntil {
		if invariant.Enabled {
			c.verifyHint(ch, now)
		}
		return ch.hint
	}
	ch.hintOK = false
	n, _ := c.scanChannel(ch, now)
	return n
}

// verifyHint replays the full scheduling scan on a cache hit: the
// cached hint claimed no command can issue before it, so the scan must
// issue nothing and recompute the identical hint from channel state.
func (c *Controller) verifyHint(ch *chanState, now int64) {
	hint, hintUntil := ch.hint, ch.hintUntil
	n, issued := c.scanChannel(ch, now)
	invariant.Assertf(!issued, "next-event hint %d claimed channel %d idle at cycle %d, but a command issued on replay", hint, ch.idx, now)
	invariant.Assertf(n == hint, "next-event hint %d stale on channel %d: fresh scan at cycle %d says %d", hint, ch.idx, now, n)
	invariant.Assertf(ch.hintUntil == hintUntil, "hint validity horizon drifted on channel %d: cached %d, recomputed %d", ch.idx, hintUntil, ch.hintUntil)
}

// scanChannel performs the full scheduling scan: refresh, then the
// FR-FCFS passes. It issues at most one command, reports whether one
// issued, and returns the channel's next-event hint (caching it when
// nothing issued).
func (c *Controller) scanChannel(ch *chanState, now int64) (int64, bool) {
	// Refresh has absolute priority: past the deadline the rank must be
	// closed and refreshed before anything else touches it.
	if n, handled := c.tickRefresh(ch, now); handled {
		return n, n == now+1
	}

	next := dram.Never
	// Starvation guard: a bank whose oldest pending request has waited
	// past the limit for a row change stops serving younger hits, so
	// the pending PRE can land once tRTP expires. starveHorizon is the
	// earliest future cycle at which an un-starved bank crosses the
	// limit, bounding how long the computed hint stays valid.
	starveHorizon := dram.Never
	clear(ch.starved)
	if lim := int64(c.cfg.StarvationLimit); lim > 0 {
		for k := range ch.banks {
			r := ch.banks[k].head
			if r == nil || r.Txn != c.curTxn || neededCmd(ch.dev, r) != dram.CmdPRE {
				continue
			}
			if cross := r.Enqueued + lim; cross <= now {
				ch.starved[k] = true
			} else if cross < starveHorizon {
				starveHorizon = cross
			}
		}
	}
	// Pass 1 (FR-FCFS "first ready"): oldest row-hit column command of
	// the current transaction.
	if n, issued := c.tryColumnHit(ch, now); issued {
		return now + 1, true
	} else if n < next {
		next = n
	}
	// Pass 2 (FCFS): oldest request of the current transaction gets its
	// PRE/ACT/column command; younger requests on other idle banks may
	// proceed too.
	if n, issued := c.tryInTxn(ch, now); issued {
		return now + 1, true
	} else if n < next {
		next = n
	}
	// Pass 3 (PB only): hoist PRE/ACT for transaction curTxn+1 on banks
	// the current transaction no longer needs.
	if c.kind == config.SchedProactiveBank {
		if n, issued := c.tryProactive(ch, now); issued {
			return now + 1, true
		} else if n < next {
			next = n
		}
	}
	// Pass 4 (close-page policy only): precharge banks whose open row
	// no queued request wants.
	if c.cfg.Policy == config.ClosePage {
		if n, issued := c.tryClosePage(ch, now); issued {
			return now + 1, true
		} else if n < next {
			next = n
		}
	}
	// Nothing issued: cache the hint. It stays exact until the earliest
	// refresh deadline or starvation crossing, or until an enqueue /
	// issue / transaction advance invalidates it.
	until := starveHorizon
	for rank := 0; rank < c.cfg.Ranks; rank++ {
		if nr := ch.dev.NextRefresh(rank); nr < until {
			until = nr
		}
	}
	ch.hint = next
	ch.hintUntil = until
	ch.hintGen = c.txnGen
	ch.hintOK = true
	return next, false
}

// tryClosePage implements the close-page ablation: any bank whose open
// row is not wanted by a queued request gets precharged eagerly. Banks
// are scanned in (rank, bank) index order, matching the list layout.
func (c *Controller) tryClosePage(ch *chanState, now int64) (int64, bool) {
	next := dram.Never
	for k := range ch.banks {
		l := &ch.banks[k]
		row, open := ch.dev.OpenRow(l.rank, l.bank)
		if !open {
			continue
		}
		wanted := false
		for r := l.head; r != nil; r = r.next {
			if r.Coord.Row == row {
				wanted = true
				break
			}
		}
		if wanted {
			continue
		}
		e := ch.dev.EarliestIssue(dram.CmdPRE, l.rank, l.bank, 0, now)
		if e == dram.Never {
			continue
		}
		if e <= now {
			ch.dev.Issue(dram.CmdPRE, l.rank, l.bank, 0, now)
			c.stats.PREs++
			c.emit(ch.idx, dram.CmdPRE, l.rank, l.bank, 0, now, -1, false)
			return now + 1, true
		}
		if e < next {
			next = e
		}
	}
	return next, false
}

// tickRefresh closes and refreshes any rank past its tREFI deadline.
// handled reports that refresh work preempted the channel this cycle.
func (c *Controller) tickRefresh(ch *chanState, now int64) (int64, bool) {
	for rank := 0; rank < c.cfg.Ranks; rank++ {
		if !ch.dev.RefreshDue(rank, now) {
			continue
		}
		// Try REF directly; otherwise precharge open banks first.
		if e := ch.dev.EarliestIssue(dram.CmdREF, rank, 0, 0, now); e != dram.Never {
			if e <= now {
				ch.dev.Issue(dram.CmdREF, rank, 0, 0, now)
				c.stats.REFs++
				c.emit(ch.idx, dram.CmdREF, rank, 0, 0, now, -1, false)
				return now + 1, true
			}
			return e, true
		}
		next := dram.Never
		for bank := 0; bank < c.cfg.Banks; bank++ {
			if _, open := ch.dev.OpenRow(rank, bank); !open {
				continue
			}
			e := ch.dev.EarliestIssue(dram.CmdPRE, rank, bank, 0, now)
			if e <= now {
				ch.dev.Issue(dram.CmdPRE, rank, bank, 0, now)
				c.stats.PREs++
				c.emit(ch.idx, dram.CmdPRE, rank, bank, 0, now, -1, false)
				return now + 1, true
			}
			if e < next {
				next = e
			}
		}
		return next, true
	}
	return dram.Never, false
}

// tryColumnHit issues the oldest current-transaction column command whose
// row is already open. Candidates reduce per bank to the oldest same-row
// read and the oldest same-row write: all younger same-direction requests
// share their EarliestIssue, so these two are the only requests the full
// age-order scan could have issued or drawn a hint from.
func (c *Controller) tryColumnHit(ch *chanState, now int64) (int64, bool) {
	next := dram.Never
	var best *Request
	var bestCmd dram.CmdKind
	for k := range ch.banks {
		l := &ch.banks[k]
		if l.head == nil || l.head.Txn != c.curTxn || ch.starved[k] {
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
func (c *Controller) tryInTxn(ch *chanState, now int64) (int64, bool) {
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
		if cmd == dram.CmdPRE && !ch.starved[k] {
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
	bank := int64(best.Coord.Rank*c.cfg.Banks + best.Coord.Bank)
	if bestCmd == dram.CmdPRE {
		ch.dev.Issue(bestCmd, best.Coord.Rank, best.Coord.Bank, 0, now)
		c.stats.PREs++
		c.stats.EarlyPREs++
		best.hadPre = true
		c.emit(ch.idx, bestCmd, best.Coord.Rank, best.Coord.Bank, 0, now, best.Txn, true)
		c.rec.Emit(obs.Event{TS: now, Kind: obs.EvEarlyPRE, Track: int32(ch.idx), Arg0: int64(ch.idx), Arg1: bank})
	} else {
		ch.dev.Issue(bestCmd, best.Coord.Rank, best.Coord.Bank, best.Coord.Row, now)
		c.stats.ACTs++
		c.stats.EarlyACTs++
		best.hadAct = true
		c.emit(ch.idx, bestCmd, best.Coord.Rank, best.Coord.Bank, best.Coord.Row, now, best.Txn, true)
		c.rec.Emit(obs.Event{TS: now, Kind: obs.EvEarlyACT, Track: int32(ch.idx), Arg0: int64(ch.idx), Arg1: bank})
	}
	return now + 1, true
}

// issueColumn issues the RD/WR for a request, records its statistics and
// removes it from its queue.
func (c *Controller) issueColumn(ch *chanState, r *Request, cmd dram.CmdKind, now int64) {
	if invariant.Enabled {
		// Data commands serve only the current transaction (Proactive
		// Bank hoists PRE/ACT, never RD/WR), and transaction completion
		// order therefore never regresses on the bus.
		invariant.Assertf(r.Txn == c.curTxn, "data command for txn %d issued while txn %d is current", r.Txn, c.curTxn)
		invariant.Assertf(r.Txn >= c.lastDataTxn, "data command for txn %d issued after txn %d already received data commands", r.Txn, c.lastDataTxn)
		c.lastDataTxn = r.Txn
	}
	done := ch.dev.Issue(cmd, r.Coord.Rank, r.Coord.Bank, r.Coord.Row, now)
	r.Issued = now
	r.Done = done
	c.emit(ch.idx, cmd, r.Coord.Rank, r.Coord.Bank, r.Coord.Row, now, r.Txn, false)
	if !r.classified {
		c.classify(r)
	}
	wait := now - r.Enqueued
	if r.Write {
		c.stats.WriteReqs++
		c.stats.WriteQueueWait += wait
		ch.writeCount--
	} else {
		c.stats.ReadReqs++
		c.stats.ReadQueueWait += wait
		ch.readCount--
	}
	ch.banks[r.Coord.Rank*c.cfg.Banks+r.Coord.Bank].remove(r)
	c.outstanding.add(r.Txn, -1)
}
