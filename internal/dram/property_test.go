package dram

import (
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/rng"
)

// TestRandomLegalSequences drives the device with thousands of randomly
// chosen commands, each issued at its EarliestIssue time, and checks the
// global invariants no legal schedule may violate:
//
//   - the data bus never carries two overlapping bursts,
//   - a bank's row state always reflects the last ACT/PRE,
//   - EarliestIssue is monotone in `now` and never returns a cycle in
//     the past,
//   - Issue never panics for a command EarliestIssue approved.
func TestRandomLegalSequences(t *testing.T) {
	cfg := config.Default().DRAM
	src := rng.New(42)
	ch := NewChannel(cfg)
	tm := cfg.Timing

	type burst struct{ start, end int64 }
	var bursts []burst
	openRows := map[[2]int]int{} // (rank,bank) -> row, -1 closed
	for r := 0; r < cfg.Ranks; r++ {
		for b := 0; b < cfg.Banks; b++ {
			openRows[[2]int{r, b}] = -1
		}
	}

	now := int64(0)
	issued := 0
	for step := 0; step < 5000 && issued < 2000; step++ {
		rank := src.Intn(cfg.Ranks)
		bank := src.Intn(cfg.Banks)
		row := src.Intn(64)
		kinds := []CmdKind{CmdACT, CmdRD, CmdWR, CmdPRE}
		k := kinds[src.Intn(len(kinds))]
		// Column commands must target the open row to be legal.
		if k == CmdRD || k == CmdWR {
			if or := openRows[[2]int{rank, bank}]; or >= 0 {
				row = or
			}
		}
		e := ch.EarliestIssue(k, rank, bank, row, now)
		if e == Never {
			continue
		}
		if e < now {
			t.Fatalf("EarliestIssue returned %d < now %d", e, now)
		}
		done := ch.Issue(k, rank, bank, row, e)
		if done < e {
			t.Fatalf("completion %d before issue %d", done, e)
		}
		switch k {
		case CmdACT:
			openRows[[2]int{rank, bank}] = row
		case CmdPRE:
			openRows[[2]int{rank, bank}] = -1
		case CmdRD:
			bursts = append(bursts, burst{e + int64(tm.CL), done})
		case CmdWR:
			bursts = append(bursts, burst{e + int64(tm.CWL), done})
		}
		// Device view must agree with our model.
		gotRow, open := ch.OpenRow(rank, bank)
		wantRow := openRows[[2]int{rank, bank}]
		if open != (wantRow >= 0) || (open && gotRow != wantRow) {
			t.Fatalf("bank state diverged: device (%d,%v) model %d", gotRow, open, wantRow)
		}
		issued++
		now = e + 1
	}
	if issued < 500 {
		t.Fatalf("only %d commands issued; the generator is too weak", issued)
	}
	// No two data bursts overlap.
	for i := 1; i < len(bursts); i++ {
		if bursts[i].start < bursts[i-1].end {
			t.Fatalf("bursts overlap: [%d,%d) then [%d,%d)",
				bursts[i-1].start, bursts[i-1].end, bursts[i].start, bursts[i].end)
		}
	}
}

// TestEarliestIssueMonotoneInNow: asking later can never yield an earlier
// legal slot.
func TestEarliestIssueMonotoneInNow(t *testing.T) {
	cfg := config.Default().DRAM
	ch := NewChannel(cfg)
	ch.Issue(CmdACT, 0, 0, 7, 0)
	prev := int64(0)
	for now := int64(0); now < 100; now += 7 {
		e := ch.EarliestIssue(CmdRD, 0, 0, 7, now)
		if e == Never {
			t.Fatal("RD became illegal")
		}
		if e < prev {
			t.Fatalf("earliest regressed: %d after %d", e, prev)
		}
		prev = e
	}
}

// TestTimingScalesWithParameters: doubling tRP must delay a
// conflict-resolution sequence, and a zero-conflict sequence must be
// unaffected. Guards against constraints being wired to the wrong
// commands.
func TestTimingScalesWithParameters(t *testing.T) {
	base := config.Default().DRAM
	slow := base
	slow.Timing.TRP *= 2

	conflictSeq := func(cfg config.DRAM) int64 {
		ch := NewChannel(cfg)
		at := ch.EarliestIssue(CmdACT, 0, 0, 1, 0)
		ch.Issue(CmdACT, 0, 0, 1, at)
		at = ch.EarliestIssue(CmdRD, 0, 0, 1, at+1)
		ch.Issue(CmdRD, 0, 0, 1, at)
		at = ch.EarliestIssue(CmdPRE, 0, 0, 0, at+1)
		ch.Issue(CmdPRE, 0, 0, 0, at)
		at = ch.EarliestIssue(CmdACT, 0, 0, 2, at+1)
		ch.Issue(CmdACT, 0, 0, 2, at)
		at = ch.EarliestIssue(CmdRD, 0, 0, 2, at+1)
		return ch.Issue(CmdRD, 0, 0, 2, at)
	}
	hitSeq := func(cfg config.DRAM) int64 {
		ch := NewChannel(cfg)
		at := ch.EarliestIssue(CmdACT, 0, 0, 1, 0)
		ch.Issue(CmdACT, 0, 0, 1, at)
		var end int64
		for i := 0; i < 4; i++ {
			at = ch.EarliestIssue(CmdRD, 0, 0, 1, at+1)
			end = ch.Issue(CmdRD, 0, 0, 1, at)
		}
		return end
	}
	if conflictSeq(slow) <= conflictSeq(base) {
		t.Fatal("doubling tRP did not slow a conflict sequence")
	}
	if hitSeq(slow) != hitSeq(base) {
		t.Fatal("doubling tRP changed a pure-hit sequence")
	}
}

// TestRefreshCadence: across a long idle stretch, refreshes become due
// once per tREFI.
func TestRefreshCadence(t *testing.T) {
	cfg := config.Default().DRAM
	ch := NewChannel(cfg)
	tm := cfg.Timing
	for i := 1; i <= 5; i++ {
		due := int64(i * tm.REFI)
		if ch.RefreshDue(0, due-1) {
			t.Fatalf("refresh %d due early at %d", i, due-1)
		}
		if !ch.RefreshDue(0, due) {
			t.Fatalf("refresh %d not due at %d", i, due)
		}
		e := ch.EarliestIssue(CmdREF, 0, 0, 0, due)
		if e == Never {
			t.Fatalf("REF %d illegal with all banks idle", i)
		}
		ch.Issue(CmdREF, 0, 0, 0, e)
	}
}

// refEarliestIssue is EarliestIssue as one formula per command kind, the
// way it read before it was split into Floors and BankFloor; the floors
// property test holds both to it.
func refEarliestIssue(ch *Channel, k CmdKind, rank, bank, row int, now int64) int64 {
	rk := &ch.ranks[rank]
	b := &rk.banks[bank]
	cmdBus := ch.lastCmdCycle + 1
	switch k {
	case CmdACT:
		if b.active {
			return Never
		}
		return max(now, cmdBus, b.earliestACT, rk.lastACT+int64(ch.t.TRRD), rk.actTimes[rk.actIdx]+int64(ch.t.TFAW))
	case CmdRD:
		if !b.active || b.openRow != row {
			return Never
		}
		return max(now, cmdBus, b.earliestCol, ch.lastColCycle+int64(ch.t.TCCD),
			rk.writeDataEnd+int64(ch.t.TWTR), ch.busFreeAt-int64(ch.t.CL))
	case CmdWR:
		if !b.active || b.openRow != row {
			return Never
		}
		return max(now, cmdBus, b.earliestCol, ch.lastColCycle+int64(ch.t.TCCD), ch.busFreeAt-int64(ch.t.CWL))
	default: // CmdPRE
		if !b.active {
			return Never
		}
		return max(now, cmdBus, b.earliestPRE)
	}
}

// TestFloorsPriceEarliestIssue drives channels of 1, 2 and 4 ranks through
// random legal command sequences (refreshes included, each command issued
// at or after its earliest cycle) and, in every state reached, prices
// every legal (kind, rank, bank) from the rank's Floors and the bank's
// BankFloor, as the scheduler's scan does: the price must equal
// EarliestIssue, and both the per-kind formula, at instants before,
// inside and after the constraints' windows.
func TestFloorsPriceEarliestIssue(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		cfg := config.Default().DRAM
		cfg.Ranks = ranks
		ch := NewChannel(cfg)
		src := rng.New(uint64(ranks))
		kinds := []CmdKind{CmdACT, CmdRD, CmdWR, CmdPRE}
		now := int64(0)
		priced := 0
		for step := 0; step < 3000; step++ {
			// Check every legal command at a few instants around now.
			for _, at := range []int64{now, now + int64(src.Intn(8)), now + int64(src.Intn(64))} {
				for rank := 0; rank < ranks; rank++ {
					f := ch.Floors(rank)
					for bank := 0; bank < cfg.Banks; bank++ {
						row, open := ch.OpenRow(rank, bank)
						if !open {
							row = src.Intn(64)
						}
						for _, k := range kinds {
							want := refEarliestIssue(ch, k, rank, bank, row, at)
							got := ch.EarliestIssue(k, rank, bank, row, at)
							if got != want {
								t.Fatalf("ranks %d step %d: EarliestIssue(%v, %d, %d, %d, %d) = %d, want %d", ranks, step, k, rank, bank, row, at, got, want)
							}
							if got == Never {
								continue
							}
							if p := max(at, f[k], ch.BankFloor(k, rank, bank)); p != got {
								t.Fatalf("ranks %d step %d: %v rank %d bank %d priced at %d from the floors, EarliestIssue %d (now %d)", ranks, step, k, rank, bank, p, got, at)
							}
							priced++
						}
					}
				}
			}
			// Advance the device by one random legal command.
			rank, bank := src.Intn(ranks), src.Intn(cfg.Banks)
			k := kinds[src.Intn(len(kinds))]
			row, open := ch.OpenRow(rank, bank)
			if !open || src.Intn(8) == 0 {
				row = src.Intn(64)
			}
			if ch.RefreshDue(rank, now) {
				k = CmdREF
			}
			e := ch.EarliestIssue(k, rank, bank, row, now)
			if k == CmdREF && e == Never {
				k = CmdPRE // close the rank's open banks first
				for b := 0; b < cfg.Banks; b++ {
					if _, o := ch.OpenRow(rank, b); o {
						bank = b
						break
					}
				}
				e = ch.EarliestIssue(k, rank, bank, row, now)
			}
			if e == Never {
				now++
				continue
			}
			if src.Intn(3) == 0 {
				e += int64(src.Intn(16))
			}
			ch.Issue(k, rank, bank, row, e)
			now = e + 1
		}
		if priced < 10000 {
			t.Fatalf("ranks %d: only %d legal commands priced", ranks, priced)
		}
	}
}
