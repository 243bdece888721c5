package oram

import (
	"bytes"
	"testing"

	"stringoram/internal/rng"
)

func newRecursive(t *testing.T, capacity, cutoff int64, functional bool, seed uint64) *RecursiveRing {
	t.Helper()
	cfg := smallCfg(0)
	cfg.BlockSize = 64
	// The data tree must be able to hold the whole addressable range
	// (Z * buckets >= capacity with headroom).
	for cfg.Buckets()*int64(cfg.Z) < capacity*2 {
		cfg.Levels++
	}
	rc := RecursiveConfig{Data: cfg, Capacity: capacity, OnChipCutoff: cutoff}
	var opts *Options
	if functional {
		crypt, err := NewCrypt(testKey(), cfg.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		opts = &Options{Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt}
	}
	rr, err := NewRecursiveRing(rc, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

func TestRecursiveLevelCount(t *testing.T) {
	// fanout = 64/8 = 8. Capacity 4096 with cutoff 64:
	// 4096 -> 512 -> 64 (fits): two map levels.
	rr := newRecursive(t, 4096, 64, false, 1)
	if rr.Levels() != 2 {
		t.Fatalf("Levels = %d, want 2", rr.Levels())
	}
	// Capacity below cutoff: no recursion at all.
	flat := newRecursive(t, 32, 64, false, 1)
	if flat.Levels() != 0 {
		t.Fatalf("small capacity produced %d map levels", flat.Levels())
	}
}

func TestRecursiveRejectsBadConfig(t *testing.T) {
	cfg := smallCfg(0)
	if _, err := NewRecursiveRing(RecursiveConfig{Data: cfg, Capacity: 0}, 1, nil); err == nil {
		t.Fatal("accepted zero capacity")
	}
	cfg.BlockSize = 8
	cfg.Levels = 8
	if _, err := NewRecursiveRing(RecursiveConfig{Data: cfg, Capacity: 100}, 1, nil); err == nil {
		t.Fatal("accepted 8-byte blocks (cannot pack labels)")
	}
}

func TestRecursiveRejectsOutOfRangeID(t *testing.T) {
	rr := newRecursive(t, 256, 32, false, 2)
	if _, _, err := rr.Access(256, false, nil); err == nil {
		t.Fatal("accepted id == capacity")
	}
	if _, _, err := rr.Access(-1, false, nil); err == nil {
		t.Fatal("accepted negative id")
	}
}

// TestRecursiveFunctionalRoundTrip drives the whole hierarchy — a
// functional data ring plus two timing-only map levels — with random
// reads and writes and checks data integrity and every ring's invariants.
func TestRecursiveFunctionalRoundTrip(t *testing.T) {
	const capacity = 4096
	rr := newRecursive(t, capacity, 64, true, 3)
	if rr.Levels() != 2 {
		t.Fatalf("want 2 map levels, got %d", rr.Levels())
	}
	src := rng.New(4)
	ref := make(map[BlockID][]byte)
	for i := 0; i < 1500; i++ {
		id := BlockID(src.Intn(capacity))
		if src.Bool() {
			d := make([]byte, 64)
			for j := range d {
				d[j] = byte(int(id) + i + j)
			}
			if _, err := rr.Write(id, d); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			ref[id] = d
		} else {
			got, _, err := rr.Read(id)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			want := ref[id]
			if want == nil {
				want = make([]byte, 64)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: block %d corrupted", i, id)
			}
		}
		if i%300 == 0 {
			if err := rr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := rr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecursiveOpsPerAccess verifies the access cost structure: each
// logical access emits the map levels' operations before the data
// operations, and every level contributes at least a read path.
func TestRecursiveOpsPerAccess(t *testing.T) {
	rr := newRecursive(t, 4096, 64, false, 5)
	_, ops, err := rr.Access(1234, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	readPaths := 0
	for _, op := range ops {
		if op.Kind == OpReadPath {
			readPaths++
		}
	}
	// 2 map levels + 1 data access.
	if readPaths != 3 {
		t.Fatalf("access produced %d read paths, want 3", readPaths)
	}
}

// TestRecursiveLabelChainConsistency performs many accesses to a few hot
// blocks, which maximizes remap churn in every ring of the hierarchy, and
// checks every ring's invariants along the way.
func TestRecursiveLabelChainConsistency(t *testing.T) {
	rr := newRecursive(t, 1024, 32, false, 6)
	for i := 0; i < 2000; i++ {
		id := BlockID(i % 7) // hot blocks: every access remaps them
		if _, _, err := rr.Access(id, i%2 == 0, nil); err != nil {
			t.Fatal(err)
		}
		if i%250 == 0 {
			if err := rr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := rr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rp, ev := rr.TotalOps()
	if rp == 0 || ev == 0 {
		t.Fatalf("hierarchy stats empty: %d read paths, %d evicts", rp, ev)
	}
}

// TestRecursiveTrafficModel pins what a logical access costs: the op list
// is one write access per map level, on block id / fanout^k at level k,
// smallest map first, followed by the data ring's access. A twin
// hierarchy built from the same seed, whose rings are driven directly,
// must emit the same list. Every map ring is timing-only and sees exactly
// one write per logical access and no read.
func TestRecursiveTrafficModel(t *testing.T) {
	const n, capacity = 600, 4096
	rr := newRecursive(t, capacity, 64, false, 11)
	twin := newRecursive(t, capacity, 64, false, 11)
	if rr.Levels() != 2 {
		t.Fatalf("want 2 map levels, got %d", rr.Levels())
	}
	fanout := BlockID(rr.DataRing().Config().BlockSize / 8)
	src := rng.New(12)
	var want []Op
	for i := 0; i < n; i++ {
		id, write := BlockID(src.Intn(capacity)), src.Bool()
		_, got, err := rr.Access(id, write, nil)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want = want[:0]
		for k := twin.Levels(); k >= 1; k-- {
			blk := id
			for j := 0; j < k; j++ {
				blk /= fanout
			}
			_, ops, err := twin.maps[k-1].Access(blk, true, nil)
			if err != nil {
				t.Fatalf("step %d: twin map level %d: %v", i, k, err)
			}
			want = append(want, cloneOps(ops)...)
		}
		_, ops, err := twin.data.Access(id, write, nil)
		if err != nil {
			t.Fatalf("step %d: twin data ring: %v", i, err)
		}
		want = append(want, cloneOps(ops)...)
		if !opsEqual(got, want) {
			t.Fatalf("step %d: access of block %d emitted %d ops, not the %d of its map levels then its data ring", i, id, len(got), len(want))
		}
	}
	for k, m := range rr.maps {
		if m.store != nil {
			t.Fatalf("map level %d has a store; map levels are timing-only", k+1)
		}
		if s := m.Stats(); s.Writes != n || s.Reads != 0 {
			t.Fatalf("map level %d: %d writes, %d reads, want %d and 0", k+1, s.Writes, s.Reads, n)
		}
	}
}
