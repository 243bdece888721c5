package experiments

import (
	"fmt"
	"strings"

	"stringoram/internal/config"
	"stringoram/internal/dram"
	"stringoram/internal/sched"
	"stringoram/internal/sim"
	"stringoram/internal/trace"
)

// Timeline renders the paper's illustrative Fig. 6 (transaction-based
// scheduling with idle banks) and Fig. 8 (PB hoisting PRE/ACT into the
// idle time) as ASCII per-bank command timelines of channel 0 over the
// given cycle window.
//
// Legend: P=PRE A=ACT R=RD W=WR F=REF; lowercase p/a mark PB-hoisted
// commands; '|' marks cycles where the current transaction number
// advances; '.' is idle.
func (r *Runner) Timeline(window int) (string, error) {
	render := func(kind config.SchedulerKind) (string, error) {
		var events []sched.CommandEvent
		sys := r.Scale.System().WithCBRate(0).WithScheduler(kind)
		_, err := sim.Run(sys, &trace.Trace{Name: "ferret"}, sim.Options{
			MaxAccesses: 40,
			OnCommand:   func(e sched.CommandEvent) { events = append(events, e) },
		})
		if err != nil {
			return "", err
		}
		// Skip the cold start: begin at the first event after 10% of
		// the window to show steady behaviour.
		if len(events) == 0 {
			return "", fmt.Errorf("no commands observed")
		}
		start := events[len(events)/4].Cycle
		end := start + int64(window)

		banks := r.Scale.System().DRAM.Banks
		rows := make([][]byte, banks)
		for b := range rows {
			rows[b] = []byte(strings.Repeat(".", window))
		}
		txnMarks := []byte(strings.Repeat(" ", window))
		lastTxn := int64(-1)
		early := 0
		for _, e := range events {
			if e.Cycle < start || e.Cycle >= end || e.Channel != 0 {
				if e.Txn > lastTxn {
					lastTxn = e.Txn
				}
				continue
			}
			col := int(e.Cycle - start)
			var ch byte
			switch e.Kind {
			case dram.CmdPRE:
				ch = 'P'
			case dram.CmdACT:
				ch = 'A'
			case dram.CmdRD:
				ch = 'R'
			case dram.CmdWR:
				ch = 'W'
			case dram.CmdREF:
				ch = 'F'
			}
			if e.Early {
				ch += 'a' - 'A' // lowercase
				early++
			}
			rows[e.Bank][col] = ch
			if e.Txn > lastTxn {
				lastTxn = e.Txn
				txnMarks[col] = '|'
			}
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s scheduler, channel 0, cycles %d..%d (%d hoisted commands shown):\n",
			kind, start, end, early)
		sb.WriteString("txn  " + string(txnMarks) + "\n")
		for b := range rows {
			fmt.Fprintf(&sb, "bk%d  %s\n", b, rows[b])
		}
		return sb.String(), nil
	}

	base, err := render(config.SchedTransaction)
	if err != nil {
		return "", err
	}
	pb, err := render(config.SchedProactiveBank)
	if err != nil {
		return "", err
	}
	head := "Fig. 6 / Fig. 8 — per-bank command timelines (P/A/R/W/F; lowercase = PB-hoisted; '|' = transaction boundary)\n\n"
	return head + base + "\n" + pb, nil
}
