package oram

import (
	"testing"

	"stringoram/internal/rng"
)

func TestSelectDummyBalancedPoolOrdering(t *testing.T) {
	src := rng.New(1)
	b := newBucket(8)
	b.reshuffleScratch([]BlockID{1, 2, 3, 4}, src, &shuffleScratch{})
	// With reserved dummies present the pool must be dummies only.
	gotPool := -1
	sel := &selector{balance: func(_ int64, _ int, cands []int) int {
		gotPool = len(cands)
		return 0
	}}
	for i := 0; i < 4; i++ {
		_, green := sel.selectDummy(b, 0, 0, 4)
		if green != InvalidBlock {
			t.Fatalf("selection %d consumed a green with dummies available", i)
		}
		if gotPool != 4-i {
			t.Fatalf("selection %d saw pool of %d, want %d", i, gotPool, 4-i)
		}
	}
	// Dummies gone: pool switches to greens.
	_, green := sel.selectDummy(b, 0, 0, 4)
	if green == InvalidBlock {
		t.Fatal("expected a green selection after dummies exhausted")
	}
	if gotPool != 4 {
		t.Fatalf("green pool size %d, want 4", gotPool)
	}
}

func TestSelectDummyBalancedPanics(t *testing.T) {
	src := rng.New(2)
	b := newBucket(4)
	for i := 0; i < 4; i++ {
		(&selector{src: src}).selectDummy(b, 0, 0, 0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhausted bucket")
		}
	}()
	(&selector{balance: func(int64, int, []int) int { return 0 }}).selectDummy(b, 0, 0, 0)
}

func TestSelectDummyBalancedRejectsBadPick(t *testing.T) {
	src := rng.New(3)
	b := newBucket(6)
	b.reshuffleScratch(nil, src, &shuffleScratch{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range pick")
		}
	}()
	(&selector{balance: func(_ int64, _ int, cands []int) int { return len(cands) }}).selectDummy(b, 0, 0, 0)
}

// TestRingWithBalancer runs the protocol with a balancer that always
// picks the first candidate and verifies invariants and determinism.
func TestRingWithBalancer(t *testing.T) {
	cfg := smallCfg(2)
	calls := 0
	r, err := NewRing(cfg, 4, &Options{
		SlotBalancer: func(bucket int64, level int, cands []int) int {
			calls++
			if level < cfg.TreeTopCacheLevels || level >= cfg.Levels {
				t.Fatalf("balancer saw level %d", level)
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, _, err := r.Access(BlockID(i%48), i%2 == 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if calls == 0 {
		t.Fatal("balancer never invoked")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBalancerPreservesOpShape: the balancer changes which slot is read,
// never how many — the shape invariant must hold.
func TestBalancerPreservesOpShape(t *testing.T) {
	cfg := smallCfg(2)
	r, err := NewRing(cfg, 5, &Options{
		SlotBalancer: func(_ int64, _ int, cands []int) int { return len(cands) - 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Levels - cfg.TreeTopCacheLevels
	for i := 0; i < 1000; i++ {
		_, ops, err := r.Access(BlockID(i%32), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if (op.Kind == OpReadPath || op.Kind == OpDummyReadPath) && op.Reads() != want {
				t.Fatalf("balanced read path has %d reads, want %d", op.Reads(), want)
			}
		}
	}
}
