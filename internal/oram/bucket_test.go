package oram

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"stringoram/internal/checksum"
	"stringoram/internal/config"
	"stringoram/internal/invariant"
	"stringoram/internal/rng"
)

// testBucket returns a fresh bucket of the given width and an ID run for
// it, as treeCore's slabs would hand them out.
func testBucket(slots int) (*Bucket, []BlockID) {
	b := newBucket(slots)
	return &b, make([]BlockID, slots)
}

func TestNewBucketAllDummyValid(t *testing.T) {
	b, ids := testBucket(12)
	if b.valid != onesMask(12) || b.run != 0 {
		t.Fatalf("fresh bucket: valid=%#x run=%d", b.valid, b.run)
	}
	if sl := b.slot(nil, 11); sl.Real || !sl.Valid || sl.ID != 0 {
		t.Fatalf("fresh bucket without a run: slot 11 = %+v", sl)
	}
	if b.findBlock(ids, 0) >= 0 {
		t.Fatal("fresh bucket resolves block 0")
	}
	if b.validDummies() != 12 || b.realBlocks() != 0 {
		t.Fatalf("fresh bucket: dummies=%d reals=%d", b.validDummies(), b.realBlocks())
	}
	if b.Count != 0 || b.Green != 0 {
		t.Fatal("fresh bucket has nonzero counters")
	}
}

func TestReshufflePlacesBlocks(t *testing.T) {
	src := rng.New(1)
	b, ids := testBucket(12)
	blocks := []BlockID{10, 20, 30}
	targets := b.reshuffleScratch(ids, blocks, src, &shuffleScratch{})
	if len(targets) != 3 {
		t.Fatalf("targets = %v", targets)
	}
	for i, id := range blocks {
		s := targets[i]
		if sl := b.slot(ids, s); !sl.Real || !sl.Valid || sl.ID != id {
			t.Errorf("block %d not at slot %d: %+v", id, s, sl)
		}
		if b.findBlock(ids, id) != s {
			t.Errorf("findBlock(%d) = %d, want %d", id, b.findBlock(ids, id), s)
		}
	}
	if b.realBlocks() != 3 || b.validDummies() != 9 {
		t.Errorf("reals=%d dummies=%d", b.realBlocks(), b.validDummies())
	}
}

func TestReshuffleResetsCounters(t *testing.T) {
	src := rng.New(2)
	b, ids := testBucket(8)
	b.Count = 7
	b.Green = 3
	b.reshuffleScratch(ids, nil, src, &shuffleScratch{})
	if b.Count != 0 || b.Green != 0 {
		t.Fatalf("counters not reset: count=%d green=%d", b.Count, b.Green)
	}
}

func TestReshufflePermutationVaries(t *testing.T) {
	src := rng.New(3)
	same := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		b, ids := testBucket(12)
		targets := b.reshuffleScratch(ids, []BlockID{1, 2, 3, 4}, src, &shuffleScratch{})
		if targets[0] == 0 && targets[1] == 1 && targets[2] == 2 && targets[3] == 3 {
			same++
		}
	}
	if same > trials/4 {
		t.Fatalf("identity placement %d/%d times; permutation looks broken", same, trials)
	}
}

func TestReshuffleTooManyBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b, ids := testBucket(2)
	b.reshuffleScratch(ids, []BlockID{1, 2, 3}, rng.New(1), &shuffleScratch{})
}

func TestConsumeReal(t *testing.T) {
	src := rng.New(4)
	b, ids := testBucket(6)
	b.reshuffleScratch(ids, []BlockID{42}, src, &shuffleScratch{})
	s := b.findBlock(ids, 42)
	id := b.consumeReal(ids, s)
	if id != 42 {
		t.Fatalf("consumeReal returned %d, want 42", id)
	}
	if b.findBlock(ids, 42) >= 0 {
		t.Fatal("block still resident after consume")
	}
	if b.slot(ids, s).Valid {
		t.Fatal("consumed slot still valid")
	}
	if b.realBlocks() != 0 {
		t.Fatal("realBlocks after consume != 0")
	}
}

func TestSelectDummyPrefersReservedDummies(t *testing.T) {
	src := rng.New(5)
	// Z=4 reals, 4 reserved dummies, Y=4 budget, dummy-first policy:
	// the first 4 selections must all be reserved dummies.
	b, ids := testBucket(8)
	b.reshuffleScratch(ids, []BlockID{1, 2, 3, 4}, src, &shuffleScratch{})
	for i := 0; i < 4; i++ {
		_, green := (&selector{src: src}).selectDummy(b, 4)
		if green {
			t.Fatalf("selection %d consumed a green block while reserved dummies remained", i)
		}
	}
	if b.validDummies() != 0 {
		t.Fatalf("%d reserved dummies left after 4 selections", b.validDummies())
	}
	// Now only green blocks remain eligible.
	for i := 0; i < 4; i++ {
		_, green := (&selector{src: src}).selectDummy(b, 4)
		if !green {
			t.Fatalf("selection %d should have consumed a green block", i)
		}
	}
	if b.Green != 4 {
		t.Fatalf("green counter = %d, want 4", b.Green)
	}
}

func TestSelectDummyRespectsGreenBudget(t *testing.T) {
	src := rng.New(6)
	b, ids := testBucket(8)
	b.reshuffleScratch(ids, []BlockID{1, 2, 3, 4}, src, &shuffleScratch{})
	// Exhaust the 4 reserved dummies, then Y=1 allows one green.
	for i := 0; i < 4; i++ {
		(&selector{src: src}).selectDummy(b, 1)
	}
	if _, green := (&selector{src: src}).selectDummy(b, 1); !green {
		t.Fatal("expected a green selection")
	}
	if b.canServe(false, 100, 1) {
		t.Fatal("bucket should be exhausted: no dummies, green budget spent")
	}
}

func TestSelectDummyPanicsWhenExhausted(t *testing.T) {
	src := rng.New(7)
	b, _ := testBucket(4)
	for i := 0; i < 4; i++ {
		(&selector{src: src}).selectDummy(b, 0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhausted bucket")
		}
	}()
	(&selector{src: src}).selectDummy(b, 0)
}

func TestSelectDummyNeverReusesSlot(t *testing.T) {
	err := quick.Check(func(seed uint32) bool {
		s := rng.New(uint64(seed))
		b, ids := testBucket(10)
		b.reshuffleScratch(ids, []BlockID{1, 2, 3}, s, &shuffleScratch{})
		seen := make(map[int]bool)
		for b.canServe(false, 100, 3) {
			slot, _ := (&selector{src: s}).selectDummy(b, 3)
			if seen[slot] {
				return false
			}
			seen[slot] = true
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelectDummyUniformUsesGreensEarly(t *testing.T) {
	// With the uniform policy and plenty of greens, green selections
	// should happen even while reserved dummies remain.
	src := rng.New(9)
	greens := 0
	for trial := 0; trial < 200; trial++ {
		b, ids := testBucket(12)
		b.reshuffleScratch(ids, []BlockID{1, 2, 3, 4, 5, 6, 7, 8}, src, &shuffleScratch{})
		if _, g := (&selector{src: src, uniform: true}).selectDummy(b, 8); g {
			greens++
		}
	}
	if greens == 0 {
		t.Fatal("uniform policy never selected a green block on the first draw")
	}
	if greens == 200 {
		t.Fatal("uniform policy always selected greens; not uniform")
	}
}

func TestCanServe(t *testing.T) {
	src := rng.New(10)
	b, ids := testBucket(6) // Z=2 reals below, 4 dummies
	b.reshuffleScratch(ids, []BlockID{1, 2}, src, &shuffleScratch{})

	if !b.canServe(true, 8, 0) {
		t.Error("bucket with target must serve")
	}
	if !b.canServe(false, 8, 0) {
		t.Error("bucket with valid dummies must serve")
	}
	b.Count = 8
	if b.canServe(true, 8, 2) {
		t.Error("bucket at access budget S must not serve even with target")
	}
	b.Count = 0

	// Exhaust dummies.
	for i := 0; i < 4; i++ {
		(&selector{src: src}).selectDummy(b, 0)
	}
	if b.canServe(false, 8, 0) {
		t.Error("no dummies, no green budget: must not serve")
	}
	if !b.canServe(false, 8, 1) {
		t.Error("green budget with resident reals: must serve")
	}
	// Consume the reals.
	b.consumeReal(ids, b.findBlock(ids, 1))
	b.consumeReal(ids, b.findBlock(ids, 2))
	if b.canServe(false, 8, 1) {
		t.Error("green budget but no resident reals: must not serve")
	}
}

func TestResidentBlocks(t *testing.T) {
	src := rng.New(11)
	b, ids := testBucket(8)
	b.reshuffleScratch(ids, []BlockID{5, 6, 7}, src, &shuffleScratch{})
	b.consumeReal(ids, b.findBlock(ids, 6))
	if n := b.realBlocks(); n != 2 {
		t.Fatalf("%d blocks resident after consuming one of three, want 2", n)
	}
	if b.findBlock(ids, 5) < 0 || b.findBlock(ids, 7) < 0 || b.findBlock(ids, 6) >= 0 {
		t.Fatalf("resident set is not {5,7}: slots %+v", b)
	}
}

// TestBucketArena pins where bucket metadata lives: records come from
// the treeCore slab 1,024 at a time, and a bucket takes an ID run only
// at its first ID write. Dummy read paths over every leaf of a 12-level
// tree materialise the 3,840 buckets of its four uncached levels; once
// one path has grown the bucket index, the other 2,047 paths (3,836
// fresh buckets) allocate only the slab's new chunks, not two objects a
// bucket. None of those buckets holds a run, and Save still records each
// of their slots with ID 0, as Load restores them; the first reshuffle
// gives a bucket its run.
func TestBucketArena(t *testing.T) {
	cfg := config.Default().ORAM
	cfg.Levels = 12
	cfg.TreeTopCacheLevels = 8 // an uncached bucket is read at most 8 < S times
	if sz := unsafe.Sizeof(Bucket{}); sz > 32 {
		t.Fatalf("a bucket record takes %d bytes, want at most 32", sz)
	}
	r, err := NewRing(cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	readPath := func(p PathID) {
		r.scr.ops = r.scr.ops[:0]
		r.readPathOp(OpDummyReadPath, p, InvalidBlock, false)
	}
	leaves := PathID(r.tree.Leaves())
	readPath(leaves - 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := PathID(0); p < leaves-1; p++ {
		readPath(p)
	}
	runtime.ReadMemStats(&after)
	const uncached = 1<<12 - 1<<8
	if n := r.buckets.len(); n != uncached {
		t.Fatalf("%d buckets materialised, want %d", n, uncached)
	}
	if n := after.Mallocs - before.Mallocs; n > 8 && !invariant.Enabled {
		t.Errorf("reading paths across %d fresh buckets made %d allocations, want at most 8", uncached-4, n)
	}
	if r.nRuns != 0 || len(r.ids) != 0 {
		t.Fatalf("read-only buckets took %d ID runs", r.nRuns)
	}

	checkSaved := func(r *Ring, wantIDs func(idx int64) BlockID) {
		t.Helper()
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		body, err := checksum.Strip(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var snap ringSnap
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		if len(snap.Buckets) != uncached {
			t.Fatalf("Save recorded %d buckets, want %d", len(snap.Buckets), uncached)
		}
		for _, b := range snap.Buckets {
			for s, sl := range b.Slots {
				if sl.Real || sl.ID != wantIDs(b.Index) {
					t.Fatalf("bucket %d slot %d saved as %+v, want a dummy with ID %d", b.Index, s, sl, wantIDs(b.Index))
				}
			}
		}
	}
	zero := func(int64) BlockID { return 0 }
	checkSaved(r, zero)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.nRuns != 0 {
		t.Fatalf("Load gave read-only buckets %d ID runs", restored.nRuns)
	}
	checkSaved(restored, zero)

	// A reshuffle is the bucket's first ID write: it takes a run, and
	// its emptied slots now name no block.
	idx := r.tree.BucketIndex(0, cfg.Levels-1)
	r.scr.ops = r.scr.ops[:0]
	r.earlyReshuffleOp(idx, cfg.Levels-1)
	if r.nRuns != 1 || r.lookup(idx).run != 1 {
		t.Fatalf("after one reshuffle: %d runs, bucket %d run %d", r.nRuns, idx, r.lookup(idx).run)
	}
	checkSaved(r, func(b int64) BlockID {
		if b == idx {
			return InvalidBlock
		}
		return 0
	})
}
