package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/obs"
	"stringoram/internal/sched"
	"stringoram/internal/trace"
)

// streamCase describes one differential-trace scenario. Seed varies the
// ORAM path sequence (and so the whole command stream); the starvation
// limit and page policy knobs pull the guard and close-page code paths
// into the golden coverage.
type streamCase struct {
	workload   string
	kind       config.SchedulerKind
	seed       uint64
	starvation int
	policy     config.PagePolicy
	want       string
}

// cmdStreamHash runs one (workload, scheduler) simulation and folds every
// DRAM command the controller issues into a SHA-256 digest. The digest
// covers (kind, channel, rank, bank, row, cycle, txn) of each command in
// issue order, i.e. exactly the bus-visible behaviour the paper's security
// argument reasons about. rec, when non-nil, is attached as the run's
// flight recorder.
func cmdStreamHash(t *testing.T, tc streamCase, rec *obs.Recorder[obs.Event]) string {
	t.Helper()
	p, err := trace.ByName(tc.workload)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(p, 2000, trace.SeedFor(tc.seed, p.Name))
	if err != nil {
		t.Fatal(err)
	}
	sys := config.Default()
	sys.ORAM.Levels = 12
	sys.ORAM.WarmFill = 0.5
	sys.Seed = tc.seed
	sys.Scheduler = tc.kind
	sys.DRAM.StarvationLimit = tc.starvation
	sys.DRAM.Policy = tc.policy
	h := sha256.New()
	var buf [8 * 7]byte
	opts := Options{
		MaxAccesses: 150,
		OnCommand: func(e sched.CommandEvent) {
			binary.LittleEndian.PutUint64(buf[0:], uint64(e.Kind))
			binary.LittleEndian.PutUint64(buf[8:], uint64(e.Channel))
			binary.LittleEndian.PutUint64(buf[16:], uint64(e.Rank))
			binary.LittleEndian.PutUint64(buf[24:], uint64(e.Bank))
			binary.LittleEndian.PutUint64(buf[32:], uint64(e.Row))
			binary.LittleEndian.PutUint64(buf[40:], uint64(e.Cycle))
			binary.LittleEndian.PutUint64(buf[48:], uint64(e.Txn))
			h.Write(buf[:])
		},
		FlightRecorder: rec,
	}
	if _, err := Run(sys, tr, opts); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCommandStreamGolden is the differential-trace gate for scheduler
// refactors: the SHA-256 of the full command stream was recorded from the
// original (pre-optimization) scheduler implementation, and any data-layout
// or control-flow change to internal/sched must reproduce it bit for bit.
// The security argument depends on the bus-visible sequence being a
// function of public state only, so equivalence is checked mechanically
// here rather than eyeballed. Each case runs twice, the second time with
// a flight recorder attached: recording must not move a single command.
// Two hashes were re-captured once, when the scheduler's next-event hint
// began to stop at refresh deadlines and starvation crossings: the
// simulator jumps to the hint, so before that it served refreshes a few
// cycles late (mummer/transaction was a1c37d90…, ferret/transaction
// fdb0f9dc…); TestHintJumpsMatchEveryCycle pins the contract.
func TestCommandStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation golden skipped in -short mode")
	}
	cases := []streamCase{
		{"libq", config.SchedTransaction, 3, 0, config.OpenPage, "bc8854c2a5caae9066e7e40c3dce652e752b8cf85203add622c0989247352aaf"},
		{"libq", config.SchedProactiveBank, 3, 0, config.OpenPage, "3db2d40578bd5748925c65fde5fb079dbc6ec013a838c58d0904ef2439fb9379"},
		{"mummer", config.SchedTransaction, 11, 64, config.OpenPage, "b7c176d547e032235791b977a654950a052979c14e4ce2db117fcbbb88ff18a3"},
		{"mummer", config.SchedProactiveBank, 11, 64, config.OpenPage, "17b11ace60baed01d7aa120261b2689115e79124d3636e58f8be6289b0d9dd25"},
		{"ferret", config.SchedTransaction, 7, 0, config.ClosePage, "27c81c0179c7cf1bae8d534f2b14f03930c9483b4a710101169ac4a424c9eaab"},
		{"ferret", config.SchedProactiveBank, 7, 48, config.ClosePage, "eaa72825cb70a26249ee3d101366d4a4e5c4dd6fea0b34713ed7da34961ba313"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.workload+"/"+tc.kind.String(), func(t *testing.T) {
			if got := cmdStreamHash(t, tc, nil); got != tc.want {
				t.Fatalf("command stream diverged from the recorded golden:\n got %s\nwant %s", got, tc.want)
			}
			rec := obs.NewRecorder[obs.Event](1024)
			if got := cmdStreamHash(t, tc, rec); got != tc.want {
				t.Fatalf("command stream with a flight recorder diverged from the recorded golden:\n got %s\nwant %s", got, tc.want)
			}
			if rec.Total() == 0 {
				t.Fatal("the flight recorder saw no events")
			}
		})
	}
}
