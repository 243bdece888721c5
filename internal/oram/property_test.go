package oram

import (
	"testing"
	"testing/quick"

	"stringoram/internal/config"
	"stringoram/internal/rng"
)

// TestRandomConfigsKeepInvariants draws random (but valid) protocol
// configurations and random access sequences, then checks the full
// invariant set. This is the broadest net for protocol bugs: budget
// violations, lost blocks, double residency.
func TestRandomConfigsKeepInvariants(t *testing.T) {
	check := func(seedRaw uint32) bool {
		src := rng.New(uint64(seedRaw))
		z := 2 + src.Intn(7) // 2..8
		a := 2 + src.Intn(6) // 2..7
		s := a + src.Intn(6) // A..A+5
		y := src.Intn(min(z, s) + 1)
		cfg := config.ORAM{
			Z: z, S: s, Y: y, A: a,
			Levels:             5 + src.Intn(5),
			TreeTopCacheLevels: src.Intn(3),
			BlockSize:          32,
			StashSize:          150 + src.Intn(200),
		}
		if src.Bool() {
			cfg.WarmFill = 0.2 + src.Float64()*0.5
		}
		if src.Bool() {
			cfg.UniformSelect = true
		}
		if cfg.Validate() != nil {
			return true // not a valid draw; skip
		}
		r, err := NewRing(cfg, uint64(seedRaw)*7+1, nil)
		if err != nil {
			t.Logf("config %+v rejected: %v", cfg, err)
			return false
		}
		blocks := 16 + src.Intn(48)
		for i := 0; i < 600; i++ {
			if _, _, err := r.Access(BlockID(src.Intn(blocks)), src.Bool(), nil); err != nil {
				// Overflow is legitimate for hostile draws (tiny
				// trees, huge Y); anything else is a bug.
				if err == ErrStashOverflow {
					return true
				}
				t.Logf("config %+v: access error: %v", cfg, err)
				return false
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Logf("config %+v: %v", cfg, err)
			return false
		}
		// Shape invariant: read paths always touch the same number of
		// blocks.
		want := cfg.Levels - cfg.TreeTopCacheLevels
		_, ops, err := r.Access(1, false, nil)
		if err != nil && err != ErrStashOverflow {
			return false
		}
		for _, op := range ops {
			if (op.Kind == OpReadPath || op.Kind == OpDummyReadPath) && op.Reads() != want {
				t.Logf("config %+v: read path of %d blocks, want %d", cfg, op.Reads(), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBucketAccessBudgetNeverExceeded samples bucket counters during a
// hostile workload (large A, small S) and confirms the S budget holds at
// every step, not just at the end.
func TestBucketAccessBudgetNeverExceeded(t *testing.T) {
	cfg := smallCfg(0)
	cfg.A = 6
	cfg.S = 6
	r, err := NewRing(cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if _, _, err := r.Access(BlockID(i%12), false, nil); err != nil {
			t.Fatal(err)
		}
		r.eachBucket(func(idx int64, b *Bucket) {
			if int(b.Count) > cfg.S {
				t.Fatalf("step %d: bucket %d count %d exceeds S=%d", i, idx, b.Count, cfg.S)
			}
			if int(b.Green) > cfg.Y {
				t.Fatalf("step %d: bucket %d green %d exceeds Y=%d", i, idx, b.Green, cfg.Y)
			}
		})
	}
}

// TestNoSlotReadTwiceBetweenReshuffles instruments the op stream: within
// one bucket generation (epoch), no physical slot may be read twice by
// read-path operations — Ring ORAM's core non-reuse rule.
func TestNoSlotReadTwiceBetweenReshuffles(t *testing.T) {
	cfg := smallCfg(2)
	r, err := NewRing(cfg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	type slotKey struct {
		bucket int64
		slot   int
		epoch  int
	}
	seen := make(map[slotKey]bool)
	// Reconstruct per-bucket reshuffle generations from the op stream
	// itself: any operation that writes a bucket re-permutes it.
	epochModel := make(map[int64]int)
	for i := 0; i < 4000; i++ {
		_, ops, err := r.Access(BlockID(i%48), i%2 == 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			switch op.Kind {
			case OpReadPath, OpDummyReadPath:
				for _, a := range op.Accesses {
					k := slotKey{a.Bucket, a.Slot, epochModel[a.Bucket]}
					if seen[k] {
						t.Fatalf("access %d: slot %+v read twice within one epoch", i, k)
					}
					seen[k] = true
				}
			default:
				bumped := make(map[int64]bool)
				for _, a := range op.Accesses {
					if a.Write && !bumped[a.Bucket] {
						bumped[a.Bucket] = true
						epochModel[a.Bucket]++
					}
				}
			}
		}
	}
}

// TestEvictionCoversEveryPathEventually: over one full reverse-lex
// period, every leaf bucket is rewritten.
func TestEvictionCoversEveryPathEventually(t *testing.T) {
	cfg := smallCfg(0)
	cfg.Levels = 6
	cfg.TreeTopCacheLevels = 0
	r, err := NewRing(cfg, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTree(cfg.Levels)
	written := make(map[int64]bool)
	needed := int(cfg.Leaves()) * cfg.A
	for i := 0; i < needed; i++ {
		_, ops, err := r.Access(BlockID(i), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Kind != OpEvictPath {
				continue
			}
			for _, a := range op.Accesses {
				if a.Write && a.Level == tr.L {
					written[a.Bucket] = true
				}
			}
		}
	}
	if int64(len(written)) != tr.Leaves() {
		t.Fatalf("one eviction period rewrote %d leaf buckets, want %d", len(written), tr.Leaves())
	}
}
