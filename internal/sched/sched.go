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
	"math/bits"

	"stringoram/internal/addrmap"
	"stringoram/internal/config"
	"stringoram/internal/dram"
	"stringoram/internal/invariant"
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

	// cand is what the scheduling scan derives from this list and the
	// bank's row buffer. It is exact while the bank's dirty bit is clear.
	cand bankCand
}

// bankRole says which scheduling passes a bank's head takes part in.
type bankRole uint8

const (
	// roleIdle: no head, or a head no pass may serve yet.
	roleIdle bankRole = iota
	// roleCur: the head belongs to the current transaction (passes 1–2
	// and the starvation guard).
	roleCur
	// roleEarly: PB only; the head belongs to curTxn+1 and needs a PRE
	// or ACT (pass 3).
	roleEarly
)

// bankCand caches one bank's FR-FCFS candidates. It is a function of the
// bank's list head, its current-transaction prefix, its open row and
// curTxn alone, so it is recomputed only when one of those changes: an
// enqueue that becomes the head or joins the current transaction, any
// PRE or ACT on the bank (refresh and close-page precharges included), a
// transaction advance, or a column issue that leaves the bank without a
// current-transaction head; any other column issue updates the entry in
// place (issueColumn). Timing is not cached; every scan reads the
// device's floors afresh.
type bankCand struct {
	role bankRole
	// cmd is the command the head needs next (roleCur, roleEarly).
	cmd dram.CmdKind
	// cross is the cycle the head crosses the starvation limit when it
	// needs a PRE (roleCur only; dram.Never when it cannot starve).
	cross int64
	// rd and wr are the oldest current-transaction read and write that
	// hit the open row (roleCur only). Younger same-direction hits share
	// their EarliestIssue, so these are the only column candidates an
	// age-ordered scan could issue or draw a hint from.
	rd, wr *Request
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

	// banks indexes queued requests per (rank, bank); the scheduling scan
	// consults each bank's cached candidates instead of re-walking
	// age-ordered queues.
	banks      []bankList
	readCount  int
	writeCount int

	// dirty marks banks whose cand is stale; active marks banks whose
	// cand.role is not roleIdle, the only banks a scan visits. candGen is
	// the txnGen the clean entries were computed under.
	dirty, active bankSet
	candGen       uint64

	// floors holds each rank's dram.Floors, read by every scan at its top;
	// a scan issues at most one command, at its end, so they hold for all
	// of its candidates.
	floors []dram.Floors

	// Next-event cache: when hintOK, no command can issue on this channel
	// before hint, provided the controller generation still matches. The
	// hint is never later than the channel's earliest refresh deadline or
	// starvation-limit crossing, which change what a scan selects without
	// a call into the controller. Invalidated by Enqueue, by issuing any
	// command, and by transaction advancement.
	hint    int64
	hintGen uint64
	hintOK  bool
}

// bankSet is a bitmask over a channel's (rank, bank) indices.
type bankSet []uint64

func newBankSet(n int) bankSet { return make(bankSet, (n+63)/64) }

func (s bankSet) set(k int)      { s[k>>6] |= 1 << (k & 63) }
func (s bankSet) unset(k int)    { s[k>>6] &^= 1 << (k & 63) }
func (s bankSet) has(k int) bool { return s[k>>6]&(1<<(k&63)) != 0 }

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
	pending     int // queued requests, over all channels

	seq   int64
	stats Stats

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
		ch.dirty = newBankSet(len(ch.banks))
		ch.active = newBankSet(len(ch.banks))
		ch.floors = make([]dram.Floors, cfg.Ranks)
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
func (c *Controller) Pending() int { return c.pending }

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
	c.pending++
	k := r.Coord.Rank*c.cfg.Banks + r.Coord.Bank
	l := &ch.banks[k]
	l.pushBack(r)
	// The bank's candidates derive from its head and its current-
	// transaction prefix; a request appended behind both leaves them be.
	if l.head == r || r.Txn == c.curTxn {
		ch.dirty.set(k)
	}
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
// command might become issuable, a refresh coming due included, so a
// caller that jumps from hint to hint issues the command stream of one
// that ticks every cycle. With no request queued it returns dram.Never:
// the caller may then wait for its next Enqueue, and a refresh that fell
// due meanwhile issues at the next Tick. Successive calls must use
// non-decreasing now (the per-channel next-event cache depends on time
// moving forward); Tick may be called later than the returned hint, but
// never needs to be called earlier.
func (c *Controller) Tick(now int64) int64 {
	next := dram.Never
	for i := range c.chans {
		if n := c.tickChannel(&c.chans[i], now); n < next {
			next = n
		}
	}
	c.advance()
	if c.pending == 0 {
		return dram.Never
	}
	return next
}

// tickChannel issues at most one command on one channel and returns the
// channel's next-event hint.
func (c *Controller) tickChannel(ch *chanState, now int64) int64 {
	// Next-event cache: between enqueues, issues, transaction advances,
	// refresh deadlines and starvation-limit crossings, channel state is
	// frozen, so a previously computed hint remains exact and the whole
	// scheduling scan can be skipped.
	if ch.hintOK && ch.hintGen == c.txnGen && now < ch.hint {
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
	hint := ch.hint
	n, issued := c.scanChannel(ch, now)
	invariant.Assertf(!issued, "next-event hint %d claimed channel %d idle at cycle %d, but a command issued on replay", hint, ch.idx, now)
	invariant.Assertf(n == hint, "next-event hint %d stale on channel %d: fresh scan at cycle %d says %d", hint, ch.idx, now, n)
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

	c.refreshCands(ch)
	if invariant.Enabled {
		c.verifyCands(ch)
	}
	for rank := range ch.floors {
		ch.floors[rank] = ch.dev.Floors(rank)
	}
	// One walk over the banks with work evaluates the FR-FCFS passes
	// together, against the same device state:
	//
	//   - pass 1 ("first ready"): the oldest row-hit column command of the
	//     current transaction;
	//   - pass 2 (FCFS): each bank's oldest current-transaction request
	//     (its head) gets its PRE or ACT, so a younger request cannot close
	//     a row an older same-bank request still needs;
	//   - pass 3 (PB only): PRE/ACT hoisted for transaction curTxn+1 on
	//     banks the current transaction no longer needs.
	//
	// Each pass keeps its oldest issuable candidate, and the first pass
	// holding one issues, exactly as if the passes ran one after another.
	//
	// Starvation guard: a bank whose head has waited past the limit for a
	// row change stops serving younger hits, so the pending PRE can land
	// once tRTP expires. starveHorizon is the earliest future cycle at
	// which an un-starved head crosses the limit; the hint stops there.
	next := dram.Never
	starveHorizon := dram.Never
	var hit, inTxn, early pick
	for w, word := range ch.active {
		for ; word != 0; word &= word - 1 {
			l := &ch.banks[w<<6|bits.TrailingZeros64(word)]
			cd := &l.cand
			if cd.role == roleEarly {
				early.offer(ch, l, l.head, cd.cmd, now, &next)
				continue
			}
			if cd.cross > now {
				starveHorizon = min(starveHorizon, cd.cross)
				if cd.rd != nil {
					hit.offer(ch, l, cd.rd, dram.CmdRD, now, &next)
				}
				if cd.wr != nil {
					hit.offer(ch, l, cd.wr, dram.CmdWR, now, &next)
				}
				// FR-FCFS deferral: a PRE waits while the open row still
				// has current-transaction hits. A head that is itself a
				// hit was just offered to pass 1 at the same price, so
				// pass 2 could add nothing for it.
				if cd.rd != nil || cd.wr != nil {
					continue
				}
			}
			inTxn.offer(ch, l, l.head, cd.cmd, now, &next)
		}
	}
	switch {
	case hit.r != nil:
		c.issueColumn(ch, hit.r, hit.cmd, now)
		return now + 1, true
	case inTxn.r != nil:
		c.issueRowCmd(ch, inTxn.r, inTxn.cmd, now, false)
		return now + 1, true
	case early.r != nil:
		c.issueRowCmd(ch, early.r, early.cmd, now, true)
		return now + 1, true
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
	// Nothing issued: the hint is the earliest of the candidates' issue
	// cycles, the starvation crossing and the refresh deadlines, each of
	// which can change what the scan selects. Cached, it stays exact until
	// then or until an enqueue / issue / transaction advance invalidates
	// it.
	next = min(next, starveHorizon)
	for rank := 0; rank < c.cfg.Ranks; rank++ {
		next = min(next, ch.dev.NextRefresh(rank))
	}
	ch.hint = next
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
			ch.dirty.set(k)
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
				ch.dirty.set(rank*c.cfg.Banks + bank)
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

// pick tracks one scheduling pass's oldest issuable candidate.
type pick struct {
	r   *Request
	cmd dram.CmdKind
}

// offer makes r, a request of bank l, the pass's candidate when cmd can
// issue for it at now and r is older than the candidate so far; otherwise
// it lowers next to the cycle cmd becomes issuable. Pricing reads the
// bank, not r, so r is touched only when it can issue.
func (p *pick) offer(ch *chanState, l *bankList, r *Request, cmd dram.CmdKind, now int64, next *int64) {
	e := ch.price(l, r, cmd, now)
	switch {
	case e <= now:
		if p.r == nil || r.seq < p.r.seq {
			p.r, p.cmd = r, cmd
		}
	case e < *next:
		*next = e
	}
}

// price returns the first cycle >= now at which cmd can issue for r, a
// request of bank l: the max of now, the scan's floor for l's rank and
// cmd's kind, and l's own floor. No legality check is needed, because
// the candidate cache offers only the command the bank's state calls
// for: ACT on a precharged bank, PRE on a bank another row holds open,
// and RD or WR for a request whose row is open. The invariants build
// checks the price against dram.EarliestIssue, the oracle.
func (ch *chanState) price(l *bankList, r *Request, cmd dram.CmdKind, now int64) int64 {
	rank, bank := l.rank, l.bank
	e := max(now, ch.floors[rank][cmd], ch.dev.BankFloor(cmd, rank, bank))
	if invariant.Enabled {
		want := ch.dev.EarliestIssue(cmd, rank, bank, r.Coord.Row, now)
		invariant.Assertf(e == want, "channel %d: %v for rank %d bank %d row %d priced at %d from the floors, EarliestIssue says %d at cycle %d", ch.idx, cmd, rank, bank, r.Coord.Row, e, want, now)
	}
	return e
}

// refreshCands brings the channel's candidate cache up to date by
// recomputing the dirty banks. A transaction advance dirties every bank
// whose head now belongs to curTxn or curTxn+1; any other head is further
// ahead and stays idle. That covers the banks that had a role too: a PB
// hoist's head belongs to the new curTxn at most, and a current-
// transaction head has since issued (the old transaction drained), which
// dirtied its bank.
func (c *Controller) refreshCands(ch *chanState) {
	if ch.candGen != c.txnGen {
		ch.candGen = c.txnGen
		for k := range ch.banks {
			if h := ch.banks[k].head; h != nil && h.Txn <= c.curTxn+1 {
				ch.dirty.set(k)
			}
		}
	}
	for w, word := range ch.dirty {
		for ; word != 0; word &= word - 1 {
			k := w<<6 | bits.TrailingZeros64(word)
			l := &ch.banks[k]
			l.cand = c.bankCand(ch, l)
			if l.cand.role == roleIdle {
				ch.active.unset(k)
			} else {
				ch.active.set(k)
			}
		}
		ch.dirty[w] = 0
	}
}

// bankCand derives bank l's candidates from its list, its row buffer and
// curTxn. An idle bank's candidates are the zero value, which is also
// what a new, empty bank starts with.
func (c *Controller) bankCand(ch *chanState, l *bankList) bankCand {
	var cd bankCand
	r := l.head
	switch {
	case r == nil:
		return cd
	case r.Txn == c.curTxn+1 && c.kind == config.SchedProactiveBank:
		// A bank still needed by the current transaction has its head
		// there (transactions enqueue in order), so a curTxn+1 head marks
		// an inter-transaction conflict PB may prepare for. Data commands
		// are never hoisted.
		if cmd := neededCmd(ch.dev, r); cmd == dram.CmdPRE || cmd == dram.CmdACT {
			cd.role, cd.cmd = roleEarly, cmd
		}
		return cd
	case r.Txn != c.curTxn:
		return cd
	}
	c.setCurHead(&cd, r, neededCmd(ch.dev, r))
	row, open := ch.dev.OpenRow(l.rank, l.bank)
	if !open {
		return cd
	}
	for n := r; n != nil && n.Txn == c.curTxn; n = n.next {
		if n.Coord.Row != row {
			continue
		}
		if n.Write {
			if cd.wr == nil {
				cd.wr = n
			}
		} else if cd.rd == nil {
			cd.rd = n
		}
		if cd.rd != nil && cd.wr != nil {
			break
		}
	}
	return cd
}

// setCurHead sets cd's role, command and starvation crossing for r, a
// current-transaction head that needs cmd.
func (c *Controller) setCurHead(cd *bankCand, r *Request, cmd dram.CmdKind) {
	cd.role, cd.cmd, cd.cross = roleCur, cmd, dram.Never
	if lim := c.cfg.StarvationLimit; lim > 0 && cmd == dram.CmdPRE {
		cd.cross = r.Enqueued + int64(lim)
	}
}

// verifyCands recomputes every bank's candidates from scratch and checks
// the cache against them, so an invalidation a mutation site forgot
// fails at the first scan that would read the stale entry.
func (c *Controller) verifyCands(ch *chanState) {
	for k := range ch.banks {
		l := &ch.banks[k]
		fresh := c.bankCand(ch, l)
		invariant.Assertf(l.cand == fresh, "channel %d bank %d: cached candidates %+v, recomputed %+v", ch.idx, k, l.cand, fresh)
		active := ch.active.has(k)
		invariant.Assertf(active == (fresh.role != roleIdle), "channel %d bank %d: active bit %v for role %d", ch.idx, k, active, fresh.role)
	}
}

// issueRowCmd issues the PRE or ACT request r's bank needs; early marks a
// PB hoist ahead of r's transaction.
func (c *Controller) issueRowCmd(ch *chanState, r *Request, cmd dram.CmdKind, now int64, early bool) {
	row := 0
	if cmd == dram.CmdACT {
		row = r.Coord.Row
	}
	ch.dev.Issue(cmd, r.Coord.Rank, r.Coord.Bank, row, now)
	ch.dirty.set(r.Coord.Rank*c.cfg.Banks + r.Coord.Bank)
	if cmd == dram.CmdPRE {
		c.stats.PREs++
		r.hadPre = true
		if early {
			c.stats.EarlyPREs++
		}
	} else {
		c.stats.ACTs++
		r.hadAct = true
		if early {
			c.stats.EarlyACTs++
		}
	}
	c.emit(ch.idx, cmd, r.Coord.Rank, r.Coord.Bank, row, now, r.Txn, early)
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
	c.pending--
	k := r.Coord.Rank*c.cfg.Banks + r.Coord.Bank
	l := &ch.banks[k]
	wasHead, younger := l.head == r, r.next
	l.remove(r)
	c.outstanding.add(r.Txn, -1)
	// A scan issues a column command only for a bank's oldest current-
	// transaction read or write hit (cand.rd or cand.wr), and the row
	// stays open. So the other direction's hit stands, the hit of r's
	// direction moves to the next one, which is younger than r, and when
	// r was the head, the next request takes its place. Only a head from
	// another transaction, or none, needs a full recompute.
	cd := &l.cand
	if ch.dirty.has(k) || ch.candGen != c.txnGen || (cd.rd != r && cd.wr != r) {
		ch.dirty.set(k)
		return
	}
	if wasHead {
		h := l.head
		if h == nil || h.Txn != c.curTxn {
			ch.dirty.set(k)
			return
		}
		c.setCurHead(cd, h, neededCmd(ch.dev, h))
	}
	var hit *Request
	for n := younger; n != nil && n.Txn == c.curTxn; n = n.next {
		if n.Write == r.Write && n.Coord.Row == r.Coord.Row {
			hit = n
			break
		}
	}
	if r.Write {
		cd.wr = hit
	} else {
		cd.rd = hit
	}
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
