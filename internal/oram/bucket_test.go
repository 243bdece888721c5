package oram

import (
	"testing"
	"testing/quick"

	"stringoram/internal/rng"
)

func TestNewBucketAllDummyValid(t *testing.T) {
	b := newBucket(12)
	if len(b.IDs) != 12 {
		t.Fatalf("slots = %d, want 12", len(b.IDs))
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
	b := newBucket(12)
	blocks := []BlockID{10, 20, 30}
	targets := b.reshuffleScratch(blocks, src, &shuffleScratch{})
	if len(targets) != 3 {
		t.Fatalf("targets = %v", targets)
	}
	for i, id := range blocks {
		s := targets[i]
		if sl := b.slot(s); !sl.Real || !sl.Valid || sl.ID != id {
			t.Errorf("block %d not at slot %d: %+v", id, s, sl)
		}
		if b.findBlock(id) != s {
			t.Errorf("findBlock(%d) = %d, want %d", id, b.findBlock(id), s)
		}
	}
	if b.realBlocks() != 3 || b.validDummies() != 9 {
		t.Errorf("reals=%d dummies=%d", b.realBlocks(), b.validDummies())
	}
}

func TestReshuffleResetsCounters(t *testing.T) {
	src := rng.New(2)
	b := newBucket(8)
	b.Count = 7
	b.Green = 3
	b.reshuffleScratch(nil, src, &shuffleScratch{})
	if b.Count != 0 || b.Green != 0 {
		t.Fatalf("counters not reset: count=%d green=%d", b.Count, b.Green)
	}
}

func TestReshufflePermutationVaries(t *testing.T) {
	src := rng.New(3)
	same := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		b := newBucket(12)
		targets := b.reshuffleScratch([]BlockID{1, 2, 3, 4}, src, &shuffleScratch{})
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
	b := newBucket(2)
	b.reshuffleScratch([]BlockID{1, 2, 3}, rng.New(1), &shuffleScratch{})
}

func TestConsumeReal(t *testing.T) {
	src := rng.New(4)
	b := newBucket(6)
	b.reshuffleScratch([]BlockID{42}, src, &shuffleScratch{})
	s := b.findBlock(42)
	id := b.consumeReal(s)
	if id != 42 {
		t.Fatalf("consumeReal returned %d, want 42", id)
	}
	if b.findBlock(42) >= 0 {
		t.Fatal("block still resident after consume")
	}
	if b.slot(s).Valid {
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
	b := newBucket(8)
	b.reshuffleScratch([]BlockID{1, 2, 3, 4}, src, &shuffleScratch{})
	for i := 0; i < 4; i++ {
		_, green := (&selector{src: src}).selectDummy(b, 0, 0, 4)
		if green != InvalidBlock {
			t.Fatalf("selection %d consumed a green block while reserved dummies remained", i)
		}
	}
	if b.validDummies() != 0 {
		t.Fatalf("%d reserved dummies left after 4 selections", b.validDummies())
	}
	// Now only green blocks remain eligible.
	for i := 0; i < 4; i++ {
		_, green := (&selector{src: src}).selectDummy(b, 0, 0, 4)
		if green == InvalidBlock {
			t.Fatalf("selection %d should have consumed a green block", i)
		}
	}
	if b.Green != 4 {
		t.Fatalf("green counter = %d, want 4", b.Green)
	}
}

func TestSelectDummyRespectsGreenBudget(t *testing.T) {
	src := rng.New(6)
	b := newBucket(8)
	b.reshuffleScratch([]BlockID{1, 2, 3, 4}, src, &shuffleScratch{})
	// Exhaust the 4 reserved dummies, then Y=1 allows one green.
	for i := 0; i < 4; i++ {
		(&selector{src: src}).selectDummy(b, 0, 0, 1)
	}
	if _, green := (&selector{src: src}).selectDummy(b, 0, 0, 1); green == InvalidBlock {
		t.Fatal("expected a green selection")
	}
	if b.canServe(false, 100, 1) {
		t.Fatal("bucket should be exhausted: no dummies, green budget spent")
	}
}

func TestSelectDummyPanicsWhenExhausted(t *testing.T) {
	src := rng.New(7)
	b := newBucket(4)
	for i := 0; i < 4; i++ {
		(&selector{src: src}).selectDummy(b, 0, 0, 0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhausted bucket")
		}
	}()
	(&selector{src: src}).selectDummy(b, 0, 0, 0)
}

func TestSelectDummyNeverReusesSlot(t *testing.T) {
	err := quick.Check(func(seed uint32) bool {
		s := rng.New(uint64(seed))
		b := newBucket(10)
		b.reshuffleScratch([]BlockID{1, 2, 3}, s, &shuffleScratch{})
		seen := make(map[int]bool)
		for b.canServe(false, 100, 3) {
			slot, _ := (&selector{src: s}).selectDummy(b, 0, 0, 3)
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
		b := newBucket(12)
		b.reshuffleScratch([]BlockID{1, 2, 3, 4, 5, 6, 7, 8}, src, &shuffleScratch{})
		if _, g := (&selector{src: src, uniform: true}).selectDummy(b, 0, 0, 8); g != InvalidBlock {
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
	b := newBucket(6) // Z=2 reals below, 4 dummies
	b.reshuffleScratch([]BlockID{1, 2}, src, &shuffleScratch{})

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
		(&selector{src: src}).selectDummy(b, 0, 0, 0)
	}
	if b.canServe(false, 8, 0) {
		t.Error("no dummies, no green budget: must not serve")
	}
	if !b.canServe(false, 8, 1) {
		t.Error("green budget with resident reals: must serve")
	}
	// Consume the reals.
	b.consumeReal(b.findBlock(1))
	b.consumeReal(b.findBlock(2))
	if b.canServe(false, 8, 1) {
		t.Error("green budget but no resident reals: must not serve")
	}
}

func TestResidentBlocks(t *testing.T) {
	src := rng.New(11)
	b := newBucket(8)
	b.reshuffleScratch([]BlockID{5, 6, 7}, src, &shuffleScratch{})
	b.consumeReal(b.findBlock(6))
	if n := b.realBlocks(); n != 2 {
		t.Fatalf("%d blocks resident after consuming one of three, want 2", n)
	}
	if b.findBlock(5) < 0 || b.findBlock(7) < 0 || b.findBlock(6) >= 0 {
		t.Fatalf("resident set is not {5,7}: slots %+v", b)
	}
}
