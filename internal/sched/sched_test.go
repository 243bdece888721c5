package sched

import (
	"testing"

	"stringoram/internal/addrmap"
	"stringoram/internal/config"
	"stringoram/internal/dram"
	"stringoram/internal/rng"
)

func testDRAM() config.DRAM {
	d := config.Default().DRAM
	d.Channels = 2
	d.Rows = 1 << 10
	return d
}

// drain feeds transactions (in order, with queue backpressure) and runs
// the controller until everything completes; it returns the finish cycle.
func drain(t *testing.T, c *Controller, txns [][]*Request) int64 {
	t.Helper()
	now := int64(0)
	ti, ri := 0, 0
	for guard := 0; ; guard++ {
		if guard > 50_000_000 {
			t.Fatal("drain did not converge; scheduler deadlock")
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
			return now
		}
		next := c.Tick(now)
		switch {
		case next == dram.Never:
			now++
		case next <= now:
			now++
		default:
			now = next
		}
	}
}

func req(txn int64, ch, bank, row, col int, write bool, tag Tag) *Request {
	return &Request{
		Txn:   txn,
		Coord: addrmap.Coord{Channel: ch, Rank: 0, Bank: bank, Row: row, Col: col},
		Write: write,
		Tag:   tag,
	}
}

func TestSingleRequestCompletes(t *testing.T) {
	c := New(testDRAM(), config.SchedTransaction)
	r := req(0, 0, 0, 5, 0, false, TagReadPath)
	end := drain(t, c, [][]*Request{{r}})
	if r.Done == 0 || r.Done > end+100 {
		t.Fatalf("request not completed sensibly: done=%d end=%d", r.Done, end)
	}
	if got := c.Stats().ReadReqs; got != 1 {
		t.Fatalf("ReadReqs = %d, want 1", got)
	}
	if c.Stats().Misses[TagReadPath] != 1 {
		t.Fatal("first touch of a precharged bank must classify as a row miss")
	}
}

func TestRowClassification(t *testing.T) {
	c := New(testDRAM(), config.SchedTransaction)
	r1 := req(0, 0, 0, 5, 0, false, TagReadPath) // miss (bank closed)
	r2 := req(1, 0, 0, 5, 1, false, TagReadPath) // hit (same row)
	r3 := req(2, 0, 0, 9, 0, false, TagReadPath) // conflict (other row open)
	drain(t, c, [][]*Request{{r1}, {r2}, {r3}})
	if r1.Class != RowMiss {
		t.Errorf("r1 class = %v, want miss", r1.Class)
	}
	if r2.Class != RowHit {
		t.Errorf("r2 class = %v, want hit", r2.Class)
	}
	if r3.Class != RowConflict {
		t.Errorf("r3 class = %v, want conflict", r3.Class)
	}
	s := c.Stats()
	if s.Hits[TagReadPath] != 1 || s.Misses[TagReadPath] != 1 || s.Conflicts[TagReadPath] != 1 {
		t.Fatalf("stats = %d/%d/%d hits/misses/conflicts", s.Hits[TagReadPath], s.Misses[TagReadPath], s.Conflicts[TagReadPath])
	}
	if got := s.ConflictRate(TagReadPath); got < 0.33 || got > 0.34 {
		t.Fatalf("ConflictRate = %v, want ~1/3", got)
	}
}

func TestTransactionOrderBaseline(t *testing.T) {
	c := New(testDRAM(), config.SchedTransaction)
	// Transaction 1's request is a pure row hit that could issue
	// instantly, but must wait for transaction 0's slow conflict chain.
	t0 := []*Request{
		req(0, 0, 0, 1, 0, false, TagReadPath),
		req(0, 0, 0, 2, 0, false, TagReadPath),
		req(0, 0, 0, 3, 0, false, TagReadPath),
	}
	t1 := []*Request{req(1, 1, 0, 1, 0, false, TagReadPath)}
	drain(t, c, [][]*Request{t0, t1})
	for _, r := range t0 {
		if t1[0].Issued < r.Issued {
			t.Fatalf("transaction 1 issued at %d before transaction 0's request at %d", t1[0].Issued, r.Issued)
		}
	}
	if c.Stats().EarlyPREs != 0 || c.Stats().EarlyACTs != 0 {
		t.Fatal("baseline scheduler hoisted commands")
	}
}

func TestPBHoistsInterTransactionConflict(t *testing.T) {
	c := New(testDRAM(), config.SchedProactiveBank)
	// Txn 0 opens row 1 on bank 0 of channel 0. Txn 1 keeps channel 0
	// bank 1 busy with a conflict chain while txn 2 needs bank 0 row 2:
	// an inter-transaction conflict PB can prepare early.
	t0 := []*Request{req(0, 0, 0, 1, 0, false, TagReadPath)}
	t1 := []*Request{
		req(1, 0, 1, 1, 0, false, TagReadPath),
		req(1, 0, 1, 2, 0, false, TagReadPath),
		req(1, 0, 1, 3, 0, false, TagReadPath),
	}
	t2 := []*Request{req(2, 0, 0, 2, 0, false, TagReadPath)}
	drain(t, c, [][]*Request{t0, t1, t2})
	s := c.Stats()
	if s.EarlyPREs == 0 && s.EarlyACTs == 0 {
		t.Fatal("PB never hoisted a PRE/ACT in a constructed inter-transaction conflict")
	}
}

func TestPBNeverTouchesBankCurrentTxnNeeds(t *testing.T) {
	c := New(testDRAM(), config.SchedProactiveBank)
	// Txn 0: two requests on bank 0, rows 1 then 1 again (hit chain),
	// plus a long conflict chain on bank 1 to keep the txn alive.
	// Txn 1 wants bank 0 row 2. If PB precharged bank 0 early, txn 0's
	// second request would classify as a conflict instead of a hit.
	t0 := []*Request{
		req(0, 0, 0, 1, 0, false, TagReadPath),
		req(0, 0, 1, 1, 0, false, TagReadPath),
		req(0, 0, 1, 2, 0, false, TagReadPath),
		req(0, 0, 0, 1, 1, false, TagReadPath),
	}
	t1 := []*Request{req(1, 0, 0, 2, 0, false, TagReadPath)}
	drain(t, c, [][]*Request{t0, t1})
	if t0[3].Class != RowHit {
		t.Fatalf("PB broke an intra-transaction row hit: class = %v", t0[3].Class)
	}
}

// randomTxns builds a random ORAM-like workload: each transaction touches
// a handful of banks/rows across channels.
func randomTxns(seed uint64, n int, d config.DRAM) [][]*Request {
	src := rng.New(seed)
	txns := make([][]*Request, n)
	for i := range txns {
		k := 4 + src.Intn(8)
		for j := 0; j < k; j++ {
			txns[i] = append(txns[i], req(
				int64(i),
				src.Intn(d.Channels),
				src.Intn(d.Banks),
				src.Intn(64),
				src.Intn(d.Columns),
				src.Intn(4) == 0,
				Tag(src.Intn(int(NumTags))),
			))
		}
	}
	return txns
}

// dataTxnSequence returns, per channel, the issue-time-ordered sequence
// of transaction numbers of data commands, plus the per-(channel, txn)
// multiset of coordinates touched.
func dataTxnSequence(txns [][]*Request) (order [][]int64, sets map[[2]int64]map[addrmap.Coord]int) {
	type ev struct {
		at int64
		r  *Request
	}
	byChan := map[int][]ev{}
	for _, txn := range txns {
		for _, r := range txn {
			byChan[r.Coord.Channel] = append(byChan[r.Coord.Channel], ev{r.Issued, r})
		}
	}
	sets = make(map[[2]int64]map[addrmap.Coord]int)
	for ch := 0; ch < 8; ch++ {
		evs := byChan[ch]
		for i := 1; i < len(evs); i++ {
			for j := i; j > 0 && evs[j].at < evs[j-1].at; j-- {
				evs[j], evs[j-1] = evs[j-1], evs[j]
			}
		}
		var seq []int64
		for _, e := range evs {
			seq = append(seq, e.r.Txn)
			key := [2]int64{int64(ch), e.r.Txn}
			if sets[key] == nil {
				sets[key] = make(map[addrmap.Coord]int)
			}
			sets[key][e.r.Coord]++
		}
		order = append(order, seq)
	}
	return order, sets
}

// TestPBPreservesDataCommandSequence is the paper's security Claim 2:
// with PB, data (RD/WR) commands still issue strictly in transaction
// order, and each transaction touches exactly the same addresses as under
// the baseline. (Within a transaction FR-FCFS may legally reorder data
// commands — the ordering is a function of public bank state only.)
func TestPBPreservesDataCommandSequence(t *testing.T) {
	d := testDRAM()
	base := randomTxns(99, 120, d)
	pb := randomTxns(99, 120, d) // identical workload, fresh request objects

	cBase := New(d, config.SchedTransaction)
	cPB := New(d, config.SchedProactiveBank)
	endBase := drain(t, cBase, base)
	endPB := drain(t, cPB, pb)

	ordBase, setBase := dataTxnSequence(base)
	ordPB, setPB := dataTxnSequence(pb)
	for ch := range ordBase {
		// Transaction numbers must be non-decreasing in both runs: no
		// data command crosses a transaction boundary.
		for i := 1; i < len(ordPB[ch]); i++ {
			if ordPB[ch][i] < ordPB[ch][i-1] {
				t.Fatalf("channel %d: PB issued data for txn %d after txn %d", ch, ordPB[ch][i], ordPB[ch][i-1])
			}
		}
		if len(ordBase[ch]) != len(ordPB[ch]) {
			t.Fatalf("channel %d: %d vs %d data commands", ch, len(ordBase[ch]), len(ordPB[ch]))
		}
	}
	// Per-transaction address multisets are identical.
	if len(setBase) != len(setPB) {
		t.Fatalf("per-txn groups differ: %d vs %d", len(setBase), len(setPB))
	}
	for key, mb := range setBase {
		mp := setPB[key]
		if len(mb) != len(mp) {
			t.Fatalf("txn %d channel %d: address sets differ", key[1], key[0])
		}
		for coord, n := range mb {
			if mp[coord] != n {
				t.Fatalf("txn %d channel %d: coord %+v count %d vs %d", key[1], key[0], coord, n, mp[coord])
			}
		}
	}
	if endPB > endBase {
		t.Fatalf("PB (%d cycles) slower than baseline (%d cycles)", endPB, endBase)
	}
	t.Logf("baseline %d cycles, PB %d cycles (%.1f%% faster)", endBase, endPB,
		100*(1-float64(endPB)/float64(endBase)))
}

// TestPBImprovesRotatingConflicts reproduces Fig. 6/8's situation: each
// transaction opens a fresh row on a rotating bank and then streams hits
// from it, while the other banks sit idle. The row opening of transaction
// i+1 is an inter-transaction conflict PB can hoist, hiding tRP+tRCD per
// transaction.
func TestPBImprovesRotatingConflicts(t *testing.T) {
	d := testDRAM()
	build := func() [][]*Request {
		var txns [][]*Request
		for i := 0; i < 60; i++ {
			bank := i % 4
			var txn []*Request
			for j := 0; j < 8; j++ {
				txn = append(txn, req(int64(i), 0, bank, i, j, false, TagReadPath))
			}
			txns = append(txns, txn)
		}
		return txns
	}
	cBase := New(d, config.SchedTransaction)
	endBase := drain(t, cBase, build())
	cPB := New(d, config.SchedProactiveBank)
	endPB := drain(t, cPB, build())
	if endPB >= endBase {
		t.Fatalf("PB (%d) did not beat baseline (%d) on rotating-bank conflicts", endPB, endBase)
	}
	s := cPB.Stats()
	if s.EarlyACTFrac() == 0 {
		t.Fatalf("no early ACTs recorded: %+v", s)
	}
	t.Logf("baseline %d, PB %d cycles; early PRE %.0f%%, early ACT %.0f%%",
		endBase, endPB, 100*s.EarlyPREFrac(), 100*s.EarlyACTFrac())
}

func TestQueueBackpressure(t *testing.T) {
	d := testDRAM()
	d.ReadQueue = 2
	c := New(d, config.SchedTransaction)
	if !c.Enqueue(req(0, 0, 0, 1, 0, false, TagReadPath), 0) {
		t.Fatal("first enqueue failed")
	}
	if !c.Enqueue(req(0, 0, 0, 2, 0, false, TagReadPath), 0) {
		t.Fatal("second enqueue failed")
	}
	if c.Enqueue(req(0, 0, 0, 3, 0, false, TagReadPath), 0) {
		t.Fatal("enqueue into a full read queue succeeded")
	}
	if !c.Enqueue(req(0, 0, 0, 3, 0, true, TagEvict), 0) {
		t.Fatal("write rejected although the write queue is empty")
	}
	if !c.CanEnqueue(1, false) {
		t.Fatal("other channel reported full")
	}
}

func TestEnqueuePastTxnPanics(t *testing.T) {
	c := New(testDRAM(), config.SchedTransaction)
	drain(t, c, [][]*Request{{req(0, 0, 0, 1, 0, false, TagReadPath)}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a past transaction")
		}
	}()
	c.Enqueue(req(0, 0, 0, 1, 0, false, TagReadPath), 1000)
}

func TestQueuingWaitAccounting(t *testing.T) {
	c := New(testDRAM(), config.SchedTransaction)
	rs := [][]*Request{
		{req(0, 0, 0, 1, 0, false, TagReadPath), req(0, 0, 0, 2, 0, true, TagEvict)},
	}
	drain(t, c, rs)
	s := c.Stats()
	if s.AvgReadWait() <= 0 {
		t.Fatalf("AvgReadWait = %v, want > 0", s.AvgReadWait())
	}
	if s.AvgWriteWait() <= 0 {
		t.Fatalf("AvgWriteWait = %v, want > 0", s.AvgWriteWait())
	}
}

func TestRefreshIssuedOnLongRuns(t *testing.T) {
	d := testDRAM()
	c := New(d, config.SchedTransaction)
	// Enough transactions to run past several tREFI windows.
	txns := randomTxns(7, 400, d)
	end := drain(t, c, txns)
	if end < int64(d.Timing.REFI) {
		t.Skipf("run too short (%d cycles) to cross a refresh window", end)
	}
	if c.Stats().REFs == 0 {
		t.Fatal("no refresh issued across multiple tREFI windows")
	}
}

func TestAllRequestsComplete(t *testing.T) {
	d := testDRAM()
	for _, kind := range []config.SchedulerKind{config.SchedTransaction, config.SchedProactiveBank} {
		c := New(d, kind)
		txns := randomTxns(13, 200, d)
		drain(t, c, txns)
		total := int64(0)
		for _, txn := range txns {
			for _, r := range txn {
				if r.Done == 0 {
					t.Fatalf("%v: request %+v never completed", kind, r.Coord)
				}
				total++
			}
		}
		s := c.Stats()
		if s.ReadReqs+s.WriteReqs != total {
			t.Fatalf("%v: accounted %d requests, want %d", kind, s.ReadReqs+s.WriteReqs, total)
		}
		classified := int64(0)
		for tag := Tag(0); tag < NumTags; tag++ {
			classified += s.Hits[tag] + s.Misses[tag] + s.Conflicts[tag]
		}
		if classified != total {
			t.Fatalf("%v: classified %d requests, want %d", kind, classified, total)
		}
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var s Stats
	if s.ConflictRate(TagReadPath) != 0 || s.AvgReadWait() != 0 ||
		s.AvgWriteWait() != 0 || s.EarlyPREFrac() != 0 || s.EarlyACTFrac() != 0 {
		t.Fatal("zero stats produced nonzero ratios")
	}
}

func TestEnergyAccounting(t *testing.T) {
	c := New(testDRAM(), config.SchedTransaction)
	r1 := req(0, 0, 0, 5, 0, false, TagReadPath) // miss: ACT + RD
	r2 := req(1, 0, 0, 9, 0, true, TagEvict)     // conflict: PRE + ACT + WR
	end := drain(t, c, [][]*Request{{r1}, {r2}})
	e := config.DDR31600Energy()
	got := c.Stats().EnergyNJ(e, end, 2)
	wantDynamic := 2*e.ACT + 1*e.PRE + e.RD + e.WR
	background := e.BackgroundW * float64(end) * e.CycleNS * 1e-9 * 2 * 1e9
	want := wantDynamic + background
	if diff := got - want; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("energy = %v nJ, want %v", got, want)
	}
	// More conflicts must cost more energy for the same data moved.
	cheap := New(testDRAM(), config.SchedTransaction)
	h1 := req(0, 0, 0, 5, 0, false, TagReadPath)
	h2 := req(1, 0, 0, 5, 1, true, TagEvict) // hit: WR only
	endCheap := drain(t, cheap, [][]*Request{{h1}, {h2}})
	if cheap.Stats().EnergyNJ(e, endCheap, 2) >= got {
		t.Fatal("hit-heavy sequence not cheaper than conflict-heavy one")
	}
}

func TestEnergyZeroStats(t *testing.T) {
	var s Stats
	e := config.DDR31600Energy()
	if got := s.EnergyNJ(e, 0, 1); got != 0 {
		t.Fatalf("zero run consumed %v nJ", got)
	}
}

func TestTagString(t *testing.T) {
	if TagReadPath.String() != "read-path" || TagEvict.String() != "evict" || TagReshuffle.String() != "reshuffle" {
		t.Fatal("bad tag strings")
	}
	if Tag(9).String() == "" {
		t.Fatal("unknown tag empty string")
	}
}

// TestUninstrumentedControllerUnaffected: classification fills Stats,
// counting every completed request as exactly one hit, miss or conflict.
func TestUninstrumentedControllerUnaffected(t *testing.T) {
	c := New(testDRAM(), config.SchedProactiveBank)
	drain(t, c, randomTxns(11, 20, testDRAM()))
	st := c.Stats()
	total := int64(0)
	for tag := Tag(0); tag < NumTags; tag++ {
		total += st.Hits[tag] + st.Misses[tag] + st.Conflicts[tag]
	}
	if total != st.ReadReqs+st.WriteReqs {
		t.Fatalf("classification total %d != completed requests %d", total, st.ReadReqs+st.WriteReqs)
	}
}
