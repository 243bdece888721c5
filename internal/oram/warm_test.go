package oram

import (
	"testing"

	"stringoram/internal/rng"
)

func TestWarmFillPopulatesBuckets(t *testing.T) {
	cfg := smallCfg(0)
	cfg.WarmFill = 0.5
	r, err := NewRing(cfg, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Touch a bunch of paths to materialize buckets.
	for i := 0; i < 200; i++ {
		if _, _, err := r.Access(BlockID(i), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Leaf buckets must carry substantial occupancy on average.
	tr := r.tree
	var leafBlocks, leafBuckets int
	r.eachBucket(func(idx int64, b *Bucket) {
		if tr.BucketLevel(idx) == tr.L {
			leafBuckets++
			leafBlocks += b.realBlocks()
		}
	})
	if leafBuckets == 0 {
		t.Fatal("no leaf buckets materialized")
	}
	avg := float64(leafBlocks) / float64(leafBuckets)
	// Some leaf blocks were consumed by evictions/green reads, but the
	// average should sit well above the empty-tree 0 and below Z.
	if avg < 0.5 || avg > float64(cfg.Z) {
		t.Fatalf("average leaf occupancy %.2f implausible for WarmFill=0.5", avg)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWarmFillDeterministic(t *testing.T) {
	cfg := smallCfg(2)
	cfg.WarmFill = 0.5
	run := func() int64 {
		r, err := NewRing(cfg, 9, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := int64(0)
		for i := 0; i < 500; i++ {
			_, ops, err := r.Access(BlockID(i%60), i%2 == 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				total += int64(len(op.Accesses)) * int64(op.Path+1)
			}
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("warm-fill runs diverged: %d vs %d", a, b)
	}
}

func TestWarmFillBoostsGreenFetches(t *testing.T) {
	greens := func(warm float64) int64 {
		cfg := smallCfg(4)
		cfg.WarmFill = warm
		r, err := NewRing(cfg, 11, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			if _, _, err := r.Access(BlockID(i%64), i%2 == 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return r.Stats().GreenFetches
	}
	cold, warm := greens(0), greens(0.5)
	if warm <= cold {
		t.Fatalf("warm tree green fetches (%d) not above cold (%d)", warm, cold)
	}
}

func TestWarmFillFunctionalCorrectness(t *testing.T) {
	// Program data must survive circulating filler blocks.
	cfg := smallCfg(3)
	cfg.WarmFill = 0.4
	r := newFunctionalRing(t, cfg, 13)
	src := rng.New(14)
	ref := make(map[BlockID][]byte)
	for i := 0; i < 1500; i++ {
		id := BlockID(src.Intn(48))
		if src.Bool() {
			d := blockData(cfg, id, i)
			if _, err := r.Write(id, d); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			ref[id] = d
		} else {
			got, _, err := r.Read(id)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			want := ref[id]
			if want == nil {
				want = make([]byte, cfg.BlockSize)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("step %d: block %d corrupted at byte %d", i, id, j)
				}
			}
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWarmFillRejectsFillerIDs(t *testing.T) {
	cfg := smallCfg(0)
	cfg.WarmFill = 0.5
	r, _ := NewRing(cfg, 1, nil)
	if _, _, err := r.Access(FillerBase, false, nil); err == nil {
		t.Fatal("accepted a program ID inside the filler space")
	}
}

func TestWarmFillReadPathShapeUnchanged(t *testing.T) {
	cfg := smallCfg(2)
	cfg.WarmFill = 0.5
	r, _ := NewRing(cfg, 17, nil)
	want := cfg.Levels - cfg.TreeTopCacheLevels
	for i := 0; i < 1000; i++ {
		_, ops, err := r.Access(BlockID(i%40), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Kind == OpReadPath && op.Reads() != want {
				t.Fatalf("warm read path has %d reads, want %d", op.Reads(), want)
			}
		}
	}
}

func TestWarmFillValidation(t *testing.T) {
	cfg := smallCfg(0)
	cfg.WarmFill = 0.95
	if _, err := NewRing(cfg, 1, nil); err == nil {
		t.Fatal("accepted WarmFill above 0.9")
	}
	cfg.WarmFill = -0.1
	if _, err := NewRing(cfg, 1, nil); err == nil {
		t.Fatal("accepted negative WarmFill")
	}
}
