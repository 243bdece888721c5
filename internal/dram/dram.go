// Package dram models a DDR3-style memory channel cycle-accurately:
// per-bank state machines (precharged/active with an open row), the
// ACT/RD/WR/PRE/REF command set, and the JEDEC timing constraints that
// govern when each command may issue (tRCD, tRP, CL, CWL, tRAS, tRC,
// tCCD, tRRD, tFAW, tWTR, tWR, tRTP, tRFC, tREFI). The model is
// open-page: rows stay open until a PRE closes them.
//
// The model is deliberately passive: it validates and applies commands
// but makes no scheduling decisions — those belong to internal/sched.
// To let the scheduler run event-driven instead of spinning cycle by
// cycle, every constraint check is exposed as EarliestIssue, which
// returns the first cycle at or after "now" at which the command becomes
// legal (or Never when the bank state forbids it outright). EarliestIssue
// is the max of two parts a scheduler may also read on their own: the
// rank's per-kind Floors, shared by every bank, and the bank's BankFloor.
package dram

import (
	"fmt"

	"stringoram/internal/config"
	"stringoram/internal/invariant"
)

// CmdKind enumerates DRAM commands.
type CmdKind uint8

const (
	// CmdACT opens a row: the row's content is copied to the row buffer.
	CmdACT CmdKind = iota
	// CmdRD reads a column out of the open row.
	CmdRD
	// CmdWR writes a column of the open row.
	CmdWR
	// CmdPRE closes the bank: the row buffer is written back.
	CmdPRE
	// CmdREF refreshes a rank; all of its banks must be precharged.
	CmdREF
)

// String implements fmt.Stringer.
func (k CmdKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdPRE:
		return "PRE"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("CmdKind(%d)", int(k))
	}
}

// Never is returned by EarliestIssue when the command is illegal in the
// bank's current state (e.g. RD on a precharged bank) and no amount of
// waiting makes it legal without an intervening command.
const Never int64 = 1<<63 - 1

// bankState is a DRAM bank's row-buffer state machine.
type bankState struct {
	active  bool
	openRow int

	earliestACT int64 // tRP after PRE, tRC after ACT, tRFC after REF
	earliestCol int64 // tRCD after ACT
	earliestPRE int64 // tRAS after ACT, tRTP after RD, write recovery after WR

	busyUntil  int64 // end of the latest command's occupancy
	busyCycles int64 // accumulated busy time for utilization stats
}

// rankState carries rank-wide constraints.
type rankState struct {
	banks []bankState

	lastACT  int64    // for tRRD
	actTimes [4]int64 // ring of the last four ACTs, for tFAW
	actIdx   int

	writeDataEnd int64 // for tWTR (write-to-read turnaround)
	nextRefresh  int64 // tREFI deadline
}

// Channel models one memory channel: its ranks/banks, the shared data
// bus, and the command bus (one command per cycle).
type Channel struct {
	cfg config.DRAM
	t   config.DRAMTiming

	ranks []rankState

	busFreeAt    int64 // first cycle the data bus is free
	lastColCycle int64 // tCCD reference (channel-wide, conservative)
	lastCmdCycle int64 // command bus: one command per cycle
}

// NewChannel returns a channel with all banks precharged and the first
// refresh due after one tREFI.
func NewChannel(cfg config.DRAM) *Channel {
	ch := &Channel{cfg: cfg, t: cfg.Timing, lastCmdCycle: -1, lastColCycle: -1 << 30}
	ch.ranks = make([]rankState, cfg.Ranks)
	for r := range ch.ranks {
		ch.ranks[r].banks = make([]bankState, cfg.Banks)
		ch.ranks[r].lastACT = -1 << 30
		ch.ranks[r].nextRefresh = int64(cfg.Timing.REFI)
		for i := range ch.ranks[r].actTimes {
			ch.ranks[r].actTimes[i] = -1 << 30
		}
	}
	return ch
}

// OpenRow reports the bank's open row, if any.
func (ch *Channel) OpenRow(rank, bank int) (row int, open bool) {
	b := &ch.ranks[rank].banks[bank]
	return b.openRow, b.active
}

// RefreshDue reports whether the rank's refresh deadline has passed.
func (ch *Channel) RefreshDue(rank int, now int64) bool {
	return now >= ch.ranks[rank].nextRefresh
}

// NextRefresh returns the cycle at which the rank's refresh becomes due.
// Schedulers use it as a next-ready hint: until that cycle, RefreshDue
// stays false, so a cached scheduling decision cannot be preempted by a
// refresh.
func (ch *Channel) NextRefresh(rank int) int64 {
	return ch.ranks[rank].nextRefresh
}

// BankBusyCycles returns the accumulated busy time of a bank, for the
// idle-time statistics of Fig. 12(a).
func (ch *Channel) BankBusyCycles(rank, bank int) int64 {
	return ch.ranks[rank].banks[bank].busyCycles
}

// Floors holds one rank's shared lower bounds on the issue cycle of
// each command kind, indexed by CmdACT, CmdRD, CmdWR and CmdPRE: the
// command bus, and the constraints a command inherits from commands on
// other banks — tRRD and tFAW for ACT; tCCD and data-bus readiness for
// RD and WR; tWTR for RD. A command's earliest issue cycle is the
// max of now, its kind's floor and its bank's own floor (BankFloor).
// Floors change only when a command issues.
type Floors [CmdREF]int64

// Floors returns the rank's floors under current device state.
func (ch *Channel) Floors(rank int) Floors {
	rk := &ch.ranks[rank]
	cmdBus := ch.lastCmdCycle + 1
	colBus := max(cmdBus, ch.lastColCycle+int64(ch.t.TCCD))
	return Floors{
		CmdACT: max(cmdBus, rk.lastACT+int64(ch.t.TRRD),
			rk.actTimes[rk.actIdx]+int64(ch.t.TFAW)), // oldest of the last four ACTs
		// The data burst must find the bus free at t+CL (t+CWL).
		CmdRD:  max(colBus, rk.writeDataEnd+int64(ch.t.TWTR), ch.busFreeAt-int64(ch.t.CL)),
		CmdWR:  max(colBus, ch.busFreeAt-int64(ch.t.CWL)),
		CmdPRE: cmdBus,
	}
}

// BankFloor returns the bank's own lower bound on k's issue cycle (tRP,
// tRC or tRFC for ACT; tRCD for RD and WR; tRAS, tRTP or write recovery
// for PRE). It assumes k is legal in the bank's state — ACT on a
// precharged bank, RD, WR or PRE on an active one — and does not check.
func (ch *Channel) BankFloor(k CmdKind, rank, bank int) int64 {
	b := &ch.ranks[rank].banks[bank]
	switch k {
	case CmdACT:
		return b.earliestACT
	case CmdPRE:
		return b.earliestPRE
	default:
		return b.earliestCol
	}
}

// EarliestIssue returns the first cycle >= now at which the command could
// legally issue given current device state, or Never when the bank state
// forbids it (wrong row open, bank not active, ...). row is ignored for
// PRE and REF.
func (ch *Channel) EarliestIssue(k CmdKind, rank, bank, row int, now int64) int64 {
	rk := &ch.ranks[rank]
	switch k {
	case CmdACT, CmdPRE:
		if rk.banks[bank].active != (k == CmdPRE) {
			return Never
		}
	case CmdRD, CmdWR:
		if b := &rk.banks[bank]; !b.active || b.openRow != row {
			return Never
		}
	case CmdREF:
		// All banks of the rank must be precharged.
		earliest := max(now, ch.lastCmdCycle+1)
		for i := range rk.banks {
			if rk.banks[i].active {
				return Never
			}
			earliest = max(earliest, rk.banks[i].earliestACT-int64(ch.t.TRP))
		}
		return earliest
	default:
		panic(fmt.Sprintf("dram: unknown command %v", k))
	}
	f := ch.Floors(rank)
	return max(now, f[k], ch.BankFloor(k, rank, bank))
}

// CanIssue reports whether the command may issue exactly at now.
func (ch *Channel) CanIssue(k CmdKind, rank, bank, row int, now int64) bool {
	e := ch.EarliestIssue(k, rank, bank, row, now)
	return e != Never && e <= now
}

// markBusy accumulates bank occupancy in [from, until).
func (b *bankState) markBusy(from, until int64) {
	if from < b.busyUntil {
		from = b.busyUntil
	}
	if until > from {
		b.busyCycles += until - from
		b.busyUntil = until
	}
}

// Issue applies the command at cycle now and returns its completion time:
// for RD/WR the end of the data burst, for ACT the cycle the row buffer
// becomes usable, for PRE/REF the cycle the bank(s) can accept an ACT.
// Issue panics if the command is not legal at now; call CanIssue first.
func (ch *Channel) Issue(k CmdKind, rank, bank, row int, now int64) int64 {
	if !ch.CanIssue(k, rank, bank, row, now) {
		panic(fmt.Sprintf("dram: illegal %v rank=%d bank=%d row=%d at %d", k, rank, bank, row, now))
	}
	rk := &ch.ranks[rank]
	ch.lastCmdCycle = now
	switch k {
	case CmdACT:
		b := &rk.banks[bank]
		b.active = true
		b.openRow = row
		b.earliestCol = now + int64(ch.t.TRCD)
		b.earliestPRE = now + int64(ch.t.TRAS)
		b.earliestACT = now + int64(ch.t.TRC)
		rk.lastACT = now
		if invariant.Enabled {
			// actIdx always points at the oldest of the last four ACTs,
			// so overwriting it preserves the tFAW sliding window; the
			// ring holds ACT times in nondecreasing order.
			invariant.Assertf(rk.actIdx >= 0 && rk.actIdx < len(rk.actTimes), "tFAW ring index %d out of bounds [0, %d)", rk.actIdx, len(rk.actTimes))
			for i := range rk.actTimes {
				invariant.Assertf(rk.actTimes[rk.actIdx] <= rk.actTimes[i], "tFAW ring slot %d holds ACT time %d older than slot %d's %d marked oldest", i, rk.actTimes[i], rk.actIdx, rk.actTimes[rk.actIdx])
				invariant.Assertf(rk.actTimes[i] <= now, "tFAW ring slot %d holds ACT time %d in the future of cycle %d", i, rk.actTimes[i], now)
			}
		}
		rk.actTimes[rk.actIdx] = now
		rk.actIdx = (rk.actIdx + 1) % len(rk.actTimes)
		b.markBusy(now, now+int64(ch.t.TRCD))
		return now + int64(ch.t.TRCD)
	case CmdRD:
		b := &rk.banks[bank]
		dataEnd := now + int64(ch.t.CL) + int64(ch.t.TBUS)
		ch.busFreeAt = dataEnd
		ch.lastColCycle = now
		if p := now + int64(ch.t.TRTP); p > b.earliestPRE {
			b.earliestPRE = p
		}
		b.markBusy(now, dataEnd)
		return dataEnd
	case CmdWR:
		b := &rk.banks[bank]
		dataEnd := now + int64(ch.t.CWL) + int64(ch.t.TBUS)
		ch.busFreeAt = dataEnd
		ch.lastColCycle = now
		rk.writeDataEnd = dataEnd
		if p := dataEnd + int64(ch.t.TWR); p > b.earliestPRE {
			b.earliestPRE = p
		}
		b.markBusy(now, dataEnd)
		return dataEnd
	case CmdPRE:
		b := &rk.banks[bank]
		b.active = false
		b.earliestACT = now + int64(ch.t.TRP)
		b.markBusy(now, now+int64(ch.t.TRP))
		return now + int64(ch.t.TRP)
	case CmdREF:
		for i := range rk.banks {
			b := &rk.banks[i]
			if e := now + int64(ch.t.TRFC); e > b.earliestACT {
				b.earliestACT = e
			}
			b.markBusy(now, now+int64(ch.t.TRFC))
		}
		rk.nextRefresh += int64(ch.t.REFI)
		return now + int64(ch.t.TRFC)
	default:
		panic(fmt.Sprintf("dram: unknown command %v", k))
	}
}
