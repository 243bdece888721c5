package cpu

import (
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/trace"
)

func testCPU() config.CPU {
	return config.CPU{Cores: 2, ROBSize: 128, RetireWidth: 4, MaxMisses: 2}
}

func recs(gaps ...uint32) []trace.Record {
	out := make([]trace.Record, len(gaps))
	for i, g := range gaps {
		out[i] = trace.Record{Gap: g, Addr: uint64(i) * 64, Write: i%2 == 1}
	}
	return out
}

func TestCoreEmitsAccessAfterGap(t *testing.T) {
	// Gap 16 with retire budget 16/tick: access comes on the first tick.
	c := NewCore(0, recs(15), testCPU(), 4)
	got := c.Tick()
	if len(got) != 1 {
		t.Fatalf("tick emitted %d accesses, want 1", len(got))
	}
	if got[0].Addr != 0 || got[0].Write {
		t.Fatalf("unexpected access %+v", got[0])
	}
	if !c.Done() {
		t.Fatal("core not done after its single record")
	}
}

func TestCoreLongGapTakesMultipleTicks(t *testing.T) {
	c := NewCore(0, recs(100), testCPU(), 4) // 16 instr/tick
	ticks := 0
	for !c.Done() {
		if out := c.Tick(); len(out) > 0 {
			break
		}
		ticks++
		if ticks > 100 {
			t.Fatal("access never emitted")
		}
	}
	// 100-instruction gap at 16/tick: access arrives on the 7th tick.
	if ticks != 6 {
		t.Fatalf("access after %d silent ticks, want 6", ticks)
	}
}

func TestCoreBlocksAtMaxMisses(t *testing.T) {
	c := NewCore(0, recs(0, 0, 0, 0, 0), testCPU(), 4)
	got := c.Tick()
	if len(got) != 2 {
		t.Fatalf("emitted %d accesses, want 2 (MaxMisses)", len(got))
	}
	if !c.Blocked() {
		t.Fatal("core not blocked at MaxMisses")
	}
	if out := c.Tick(); out != nil {
		t.Fatal("blocked core emitted accesses")
	}
	c.Complete()
	if c.Blocked() {
		t.Fatal("core still blocked after completion")
	}
	if got := c.Tick(); len(got) != 1 {
		t.Fatalf("emitted %d accesses after unblock, want 1", len(got))
	}
}

func TestCompleteWithoutOutstandingPanics(t *testing.T) {
	c := NewCore(0, nil, testCPU(), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Complete()
}

func TestRetiredCountsEverything(t *testing.T) {
	c := NewCore(0, recs(9, 9), config.CPU{Cores: 1, ROBSize: 128, RetireWidth: 4, MaxMisses: 8}, 4)
	for !c.Done() {
		c.Tick()
	}
	// 9 gap + 1 access, twice.
	if c.Retired() != 20 {
		t.Fatalf("retired = %d, want 20", c.Retired())
	}
}

func TestClusterShardsRoundRobin(t *testing.T) {
	tr := &trace.Trace{Name: "t", Records: recs(0, 0, 0, 0, 0, 0)}
	cl := NewCluster(tr, testCPU(), 4)
	if len(cl.Cores) != 2 {
		t.Fatalf("cores = %d", len(cl.Cores))
	}
	if len(cl.Cores[0].recs) != 3 || len(cl.Cores[1].recs) != 3 {
		t.Fatalf("shards = %d/%d", len(cl.Cores[0].recs), len(cl.Cores[1].recs))
	}
}

func TestClusterLifecycle(t *testing.T) {
	tr := &trace.Trace{Name: "t", Records: recs(0, 0, 0, 0)}
	cl := NewCluster(tr, testCPU(), 4)
	if cl.Done() {
		t.Fatal("fresh cluster done")
	}
	var emitted int
	for i := 0; i < 100 && !cl.Done(); i++ {
		acc := cl.Tick()
		emitted += len(acc)
		for range acc {
			// Immediately complete, as if memory were instant.
		}
		for _, c := range cl.Cores {
			for c.Outstanding() > 0 {
				c.Complete()
			}
		}
	}
	if !cl.Done() {
		t.Fatal("cluster never finished")
	}
	if emitted != 4 {
		t.Fatalf("emitted %d accesses, want 4", emitted)
	}
	if cl.Retired() != 4 {
		t.Fatalf("retired = %d, want 4", cl.Retired())
	}
	if cl.Outstanding() != 0 {
		t.Fatal("outstanding nonzero at end")
	}
}

func TestClusterActive(t *testing.T) {
	tr := &trace.Trace{Name: "t", Records: recs(0, 0, 0, 0)}
	cl := NewCluster(tr, testCPU(), 4)
	if !cl.Active() {
		t.Fatal("fresh cluster inactive")
	}
	cl.Tick() // both cores hit MaxMisses
	if cl.Active() {
		t.Fatal("cluster active while all cores blocked")
	}
}

func TestClusterMulti(t *testing.T) {
	trA := &trace.Trace{Name: "a", Records: recs(0, 0)}
	trB := &trace.Trace{Name: "b", Records: recs(0, 0, 0)}
	cl := NewClusterMulti([]*trace.Trace{trA, trB}, testCPU(), 4)
	if len(cl.Cores) != 2 {
		t.Fatalf("cores = %d", len(cl.Cores))
	}
	// Each core carries its FULL trace (not a shard).
	if len(cl.Cores[0].recs) != 2 || len(cl.Cores[1].recs) != 3 {
		t.Fatalf("per-core records = %d/%d, want 2/3", len(cl.Cores[0].recs), len(cl.Cores[1].recs))
	}
	// Fewer traces than cores: repeat round-robin.
	four := config.CPU{Cores: 4, ROBSize: 128, RetireWidth: 4, MaxMisses: 2}
	cl4 := NewClusterMulti([]*trace.Trace{trA, trB}, four, 4)
	if len(cl4.Cores[2].recs) != 2 || len(cl4.Cores[3].recs) != 3 {
		t.Fatal("round-robin repetition broken")
	}
}

func TestClusterMultiPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClusterMulti(nil, testCPU(), 4)
}

func TestCoreAccessTagsCoreID(t *testing.T) {
	c := NewCore(7, recs(0), testCPU(), 4)
	out := c.Tick()
	if len(out) != 1 || out[0].Core != 7 {
		t.Fatalf("access = %+v", out)
	}
}
