package cache

import (
	"testing"

	"stringoram/internal/config"
)

func testCfg() config.Cache {
	return config.Cache{SizeBytes: 16 << 10, LineSize: 64, Ways: 4} // 64 sets
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := testCfg()
	bad.LineSize = 48
	if _, err := New(bad); err == nil {
		t.Fatal("accepted non-power-of-two line size")
	}
	bad = testCfg()
	bad.SizeBytes = 0
	if _, err := New(bad); err == nil {
		t.Fatal("accepted zero size")
	}
}

func TestMissThenHit(t *testing.T) {
	c, _ := New(testCfg())
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x1004, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(0x1040, false); r.Hit {
		t.Fatal("next line hit while cold")
	}
	hits, misses, _ := c.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d", hits, misses)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := New(testCfg()) // 4 ways, 64 sets, set stride 64*64 = 4096
	base := uint64(0)
	// Fill one set with 4 lines.
	for i := 0; i < 4; i++ {
		c.Access(base+uint64(i)*4096, false)
	}
	// Touch line 0 so line 1 is LRU.
	c.Access(base, false)
	// A fifth line evicts line 1.
	c.Access(base+4*4096, false)
	if r := c.Access(base, false); !r.Hit {
		t.Fatal("recently used line was evicted")
	}
	if r := c.Access(base+1*4096, false); r.Hit {
		t.Fatal("LRU line survived eviction")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c, _ := New(testCfg())
	c.Access(0, true) // dirty line in set 0
	for i := 1; i <= 4; i++ {
		r := c.Access(uint64(i)*4096, false)
		if i < 4 && r.Writeback {
			t.Fatal("writeback before the set was full")
		}
		if i == 4 {
			if !r.Writeback {
				t.Fatal("dirty victim produced no writeback")
			}
			if r.WritebackAddr != 0 {
				t.Fatalf("writeback addr = %#x, want 0", r.WritebackAddr)
			}
		}
	}
	_, _, wb := c.Stats()
	if wb != 1 {
		t.Fatalf("writebacks = %d, want 1", wb)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c, _ := New(testCfg())
	for i := 0; i <= 4; i++ {
		if r := c.Access(uint64(i)*4096, false); r.Writeback {
			t.Fatal("clean eviction produced a writeback")
		}
	}
}

func TestReadAfterWriteStaysDirty(t *testing.T) {
	c, _ := New(testCfg())
	c.Access(0, true)
	c.Access(0, false) // read must not clean the line
	for i := 1; i <= 4; i++ {
		r := c.Access(uint64(i)*4096, false)
		if i == 4 && !r.Writeback {
			t.Fatal("dirty bit lost after read hit")
		}
	}
}

func TestHitRateEmptyCache(t *testing.T) {
	c, _ := New(testCfg())
	if c.HitRate() != 0 {
		t.Fatal("empty cache hit rate != 0")
	}
	if c.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestDistinctSetsDoNotInterfere(t *testing.T) {
	c, _ := New(testCfg())
	// 5 lines in 5 different sets: no evictions at all.
	for i := 0; i < 5; i++ {
		c.Access(uint64(i)*64, false)
	}
	for i := 0; i < 5; i++ {
		if r := c.Access(uint64(i)*64, false); !r.Hit {
			t.Fatalf("line %d evicted despite empty sets", i)
		}
	}
}

// TestLazySetsMatchReference drives the cache beside a reference that
// holds every set's lines from the start, through seeded random reads
// and writes over more sets than one slab holds, and requires the same
// hit, writeback and victim address on every access. Only touched sets
// may have lines.
func TestLazySetsMatchReference(t *testing.T) {
	cfg := config.Cache{SizeBytes: 256 << 10, LineSize: 64, Ways: 4} // 1,024 sets
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type refLine struct {
		tag          uint64
		valid, dirty bool
		lastUse      uint64
	}
	ref := make([][]refLine, cfg.Sets())
	for i := range ref {
		ref[i] = make([]refLine, cfg.Ways)
	}
	touched := map[uint64]bool{}
	x, clock := uint64(7), uint64(0)
	for step := 0; step < 20000; step++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// 600 sets of the 1,024, five tags each: hits, misses and LRU
		// evictions all happen.
		setIdx, tagHi := (x>>8)%600, (x>>20)%5
		addr := (tagHi*uint64(cfg.Sets()) + setIdx) * 64
		write := x&3 == 0
		touched[setIdx] = true

		clock++
		tag := addr >> 6
		set := ref[tag%uint64(cfg.Sets())]
		var want Result
		hit := -1
		for i := range set {
			if set[i].valid && set[i].tag == tag {
				hit = i
				break
			}
		}
		if hit >= 0 {
			set[hit].lastUse = clock
			set[hit].dirty = set[hit].dirty || write
			want.Hit = true
		} else {
			victim := 0
			for i := range set {
				if !set[i].valid {
					victim = i
					break
				}
				if set[i].lastUse < set[victim].lastUse {
					victim = i
				}
			}
			if set[victim].valid && set[victim].dirty {
				want.Writeback, want.WritebackAddr = true, set[victim].tag<<6
			}
			set[victim] = refLine{tag: tag, valid: true, dirty: write, lastUse: clock}
		}
		if got := c.Access(addr, write); got != want {
			t.Fatalf("step %d: Access(%#x, %v) = %+v, reference %+v", step, addr, write, got, want)
		}
	}
	if int(c.nSets) != len(touched) {
		t.Fatalf("%d sets have lines, %d were touched", c.nSets, len(touched))
	}
	if want := (len(touched) + setsPerSlab - 1) / setsPerSlab; len(c.slabs) != want {
		t.Fatalf("%d slabs for %d touched sets, want %d", len(c.slabs), len(touched), want)
	}
}
