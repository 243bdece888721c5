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

// TestRecursiveFunctionalRoundTrip drives the whole hierarchy — data ring
// plus two map levels — with random reads and writes and checks data
// integrity, every ring's invariants, and that the map levels seal under
// keys of their own: seal nonces are tree positions, so under one key the
// levels' slots at equal positions would share a keystream.
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
	level := make(map[string]int) // slot body -> map level holding it
	for k, m := range rr.maps {
		m.store.(*MemStore).eachBucket(func(bucket int64, slots [][]byte) {
			for s, sealed := range slots {
				if sealed == nil {
					continue
				}
				body := string(sealed[SealOverhead:])
				if other, ok := level[body]; ok && other != k {
					t.Fatalf("map levels %d and %d hold an identical slot body (bucket %d slot %d)", other+1, k+1, bucket, s)
				}
				level[body] = k
			}
		})
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

// TestRecursiveLabelChainConsistency performs many accesses; the internal
// cross-check panics on any desynchronization between the stored label
// chain and the data ring's position metadata, so survival is the
// assertion. Repeated same-block accesses maximize remap churn.
func TestRecursiveLabelChainConsistency(t *testing.T) {
	rr := newRecursive(t, 1024, 32, false, 6)
	for i := 0; i < 2000; i++ {
		id := BlockID(i % 7) // hot blocks: every access remaps them
		if _, _, err := rr.Access(id, i%2 == 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	rp, ev := rr.TotalOps()
	if rp == 0 || ev == 0 {
		t.Fatalf("hierarchy stats empty: %d read paths, %d evicts", rp, ev)
	}
}

func TestRecursiveOnChipBounded(t *testing.T) {
	const cutoff = 64
	rr := newRecursive(t, 4096, cutoff, false, 7)
	src := rng.New(8)
	for i := 0; i < 1000; i++ {
		if _, _, err := rr.Access(BlockID(src.Intn(4096)), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := rr.OnChipEntries(); int64(got) > cutoff {
		t.Fatalf("on-chip table grew to %d entries, cutoff %d", got, cutoff)
	}
}

func TestLabelCodec(t *testing.T) {
	block := make([]byte, 64)
	if _, known := getLabel(block, 3); known {
		t.Fatal("zeroed block reported a known label")
	}
	setLabel(block, 3, 0) // path 0 must be distinguishable from unknown
	if p, known := getLabel(block, 3); !known || p != 0 {
		t.Fatalf("label 0 round trip: %d,%v", p, known)
	}
	setLabel(block, 7, 123456)
	if p, known := getLabel(block, 7); !known || p != 123456 {
		t.Fatalf("label round trip: %d,%v", p, known)
	}
	if _, known := getLabel(block, 2); known {
		t.Fatal("neighbor slot contaminated")
	}
}

func TestUpdateSingleAccess(t *testing.T) {
	r := newFunctionalRing(t, smallCfg(0), 9)
	d := blockData(r.Config(), 5, 1)
	if _, err := r.Write(5, d); err != nil {
		t.Fatal(err)
	}
	before := r.Stats().ReadPaths
	old, _, err := r.Update(5, func(cur []byte) []byte {
		cur[0] ^= 0xFF
		return cur
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, d) {
		t.Fatal("Update returned wrong pre-image")
	}
	if got := r.Stats().ReadPaths - before; got != 1 {
		t.Fatalf("Update cost %d read paths, want 1", got)
	}
	got, _, err := r.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != d[0]^0xFF {
		t.Fatal("Update did not persist")
	}
}

func TestAccessRemapToUsesGivenPath(t *testing.T) {
	cfg := smallCfg(0)
	r, err := NewRing(cfg, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = PathID(17)
	if _, _, err := r.AccessRemapTo(3, true, nil, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.PositionOf(3); !ok || got != want {
		t.Fatalf("PositionOf = %d,%v, want %d", got, ok, want)
	}
}
