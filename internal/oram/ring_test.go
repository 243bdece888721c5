package oram

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/rng"
)

// smallCfg returns a small but non-trivial ORAM config for tests:
// 8 levels (255 buckets), Z=4, S=6, A=4, 2 cached levels, 32 B blocks.
func smallCfg(y int) config.ORAM {
	return config.ORAM{
		Z: 4, S: 6, Y: y, A: 4,
		Levels:             8,
		TreeTopCacheLevels: 2,
		BlockSize:          32,
		StashSize:          200,
	}
}

func newFunctionalRing(t *testing.T, cfg config.ORAM, seed uint64) *Ring {
	t.Helper()
	crypt, err := NewCrypt(testKey(), cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(cfg, seed, &Options{
		Store: NewMemStore(cfg.SlotsPerBucket()),
		Crypt: crypt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func blockData(cfg config.ORAM, id BlockID, version int) []byte {
	d := make([]byte, cfg.BlockSize)
	for i := range d {
		d[i] = byte(int(id)*31 + version*7 + i)
	}
	return d
}

// cloneOps deep-copies one access's op list. Access returns scratch that
// the next operation on the same Ring reuses, so tests accumulating ops
// across accesses must copy them first.
func cloneOps(ops []Op) []Op {
	out := make([]Op, len(ops))
	for i, op := range ops {
		op.Accesses = append([]Access(nil), op.Accesses...)
		out[i] = op
	}
	return out
}

func TestRingRejectsInvalidConfig(t *testing.T) {
	cfg := smallCfg(0)
	cfg.Z = 0
	if _, err := NewRing(cfg, 1, nil); err == nil {
		t.Fatal("NewRing accepted an invalid config")
	}
}

func TestRingRejectsNegativeID(t *testing.T) {
	r, _ := NewRing(smallCfg(0), 1, nil)
	if _, _, err := r.Access(-1, false, nil); err == nil {
		t.Fatal("Access accepted a negative block id")
	}
}

func TestRingRejectsWrongSizeWrite(t *testing.T) {
	r := newFunctionalRing(t, smallCfg(0), 1)
	if _, err := r.Write(1, []byte{1, 2, 3}); err == nil {
		t.Fatal("Write accepted wrong-size data")
	}
}

func TestRingReadUnwrittenIsZero(t *testing.T) {
	cfg := smallCfg(0)
	r := newFunctionalRing(t, cfg, 2)
	data, _, err := r.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, make([]byte, cfg.BlockSize)) {
		t.Fatalf("unwritten block read back %v, want zeros", data)
	}
}

// TestRingFunctionalRoundTrip is the core correctness test: a long random
// interleaving of reads and writes against a reference map, with protocol
// invariants checked along the way, at every CB rate.
func TestRingFunctionalRoundTrip(t *testing.T) {
	for _, y := range []int{0, 1, 2, 3, 4} {
		y := y
		t.Run(fmt.Sprintf("Y=%d", y), func(t *testing.T) {
			cfg := smallCfg(y)
			r := newFunctionalRing(t, cfg, uint64(100+y))
			src := rng.New(uint64(200 + y))
			ref := make(map[BlockID][]byte)
			version := make(map[BlockID]int)
			const blocks = 64
			const steps = 2000
			for i := 0; i < steps; i++ {
				id := BlockID(src.Intn(blocks))
				if src.Bool() {
					version[id]++
					d := blockData(cfg, id, version[id])
					if _, err := r.Write(id, d); err != nil {
						t.Fatalf("step %d: write: %v", i, err)
					}
					ref[id] = d
				} else {
					got, _, err := r.Read(id)
					if err != nil {
						t.Fatalf("step %d: read: %v", i, err)
					}
					want := ref[id]
					if want == nil {
						want = make([]byte, cfg.BlockSize)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d: block %d read %v, want %v", i, id, got[:4], want[:4])
					}
				}
				if i%250 == 0 {
					if err := r.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRingReadPathSizeIsPublicConstant verifies the security-critical
// shape invariant: every read path operation (real target, stash hit, new
// block, or background dummy) touches exactly L+1-T blocks, so the bus
// reveals nothing about the request.
func TestRingReadPathSizeIsPublicConstant(t *testing.T) {
	cfg := smallCfg(2)
	r, err := NewRing(cfg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantReads := cfg.Levels - cfg.TreeTopCacheLevels
	src := rng.New(6)
	for i := 0; i < 3000; i++ {
		// Mix fresh blocks, repeats, and immediate re-reads.
		id := BlockID(src.Intn(128))
		if i%7 == 0 {
			id = BlockID(i) // guaranteed fresh
		}
		_, ops, err := r.Access(id, src.Bool(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			switch op.Kind {
			case OpReadPath, OpDummyReadPath:
				if op.Reads() != wantReads || op.Writes() != 0 {
					t.Fatalf("op %v: %d reads %d writes, want %d reads 0 writes",
						op.Kind, op.Reads(), op.Writes(), wantReads)
				}
			case OpEvictPath:
				wantR := wantReads * cfg.Z
				wantW := wantReads * cfg.SlotsPerBucket()
				if op.Reads() != wantR || op.Writes() != wantW {
					t.Fatalf("evict: %d reads %d writes, want %d/%d",
						op.Reads(), op.Writes(), wantR, wantW)
				}
			case OpEarlyReshuffle:
				if op.Reads() != cfg.Z || op.Writes() != cfg.SlotsPerBucket() {
					t.Fatalf("reshuffle: %d reads %d writes, want %d/%d",
						op.Reads(), op.Writes(), cfg.Z, cfg.SlotsPerBucket())
				}
			}
		}
	}
}

func TestRingEvictEveryA(t *testing.T) {
	cfg := smallCfg(0)
	r, _ := NewRing(cfg, 7, nil)
	evictsSeen := 0
	for i := 0; i < cfg.A*10; i++ {
		_, ops, err := r.Access(BlockID(i), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Kind == OpEvictPath {
				evictsSeen++
				// The eviction fires exactly on every A-th access.
				if (i+1)%cfg.A != 0 {
					t.Fatalf("eviction after access %d, want multiples of %d only", i+1, cfg.A)
				}
			}
		}
	}
	if evictsSeen != 10 {
		t.Fatalf("saw %d evictions in %d accesses, want 10", evictsSeen, cfg.A*10)
	}
}

func TestRingDeterministicOps(t *testing.T) {
	cfg := smallCfg(2)
	run := func() []Op {
		r, _ := NewRing(cfg, 11, nil)
		var all []Op
		for i := 0; i < 500; i++ {
			_, ops, err := r.Access(BlockID(i%50), i%3 == 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, cloneOps(ops)...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("op counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Path != b[i].Path || len(a[i].Accesses) != len(b[i].Accesses) {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Accesses {
			if a[i].Accesses[j] != b[i].Accesses[j] {
				t.Fatalf("op %d access %d differs", i, j)
			}
		}
	}
}

func TestRingNoAccessBelowCacheBoundary(t *testing.T) {
	cfg := smallCfg(2)
	r, _ := NewRing(cfg, 13, nil)
	for i := 0; i < 1000; i++ {
		_, ops, err := r.Access(BlockID(i%40), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			for _, a := range op.Accesses {
				if a.Level < cfg.TreeTopCacheLevels {
					t.Fatalf("access emitted at cached level %d", a.Level)
				}
			}
		}
	}
}

func TestRingGreenFetchesOnlyWithCB(t *testing.T) {
	for _, y := range []int{0, 2, 4} {
		cfg := smallCfg(y)
		r, _ := NewRing(cfg, 17, nil)
		for i := 0; i < 4000; i++ {
			if _, _, err := r.Access(BlockID(i%64), i%2 == 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		g := r.Stats().GreenFetches
		if y == 0 && g != 0 {
			t.Errorf("Y=0 fetched %d green blocks", g)
		}
		if y > 0 && g == 0 {
			t.Errorf("Y=%d never fetched a green block in 4000 accesses", y)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Errorf("Y=%d: %v", y, err)
		}
	}
}

// TestRingGreenPerReadGrowsWithY checks the Fig. 13 trend: the average
// number of green blocks fetched per read path grows with the CB rate.
func TestRingGreenPerReadGrowsWithY(t *testing.T) {
	rate := func(y int) float64 {
		cfg := smallCfg(y)
		r, _ := NewRing(cfg, 19, nil)
		for i := 0; i < 6000; i++ {
			if _, _, err := r.Access(BlockID(i%64), i%2 == 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		s := r.Stats()
		return s.GreenPerReadPath()
	}
	r2, r4 := rate(2), rate(4)
	if !(r4 > r2) {
		t.Fatalf("green/read did not grow with Y: Y=2 -> %.3f, Y=4 -> %.3f", r2, r4)
	}
}

// TestRingCBReducesEvictTraffic checks CB's headline performance effect:
// fewer blocks written per eviction (Z+S-Y instead of Z+S slots).
func TestRingCBReducesEvictTraffic(t *testing.T) {
	evictBlocks := func(y int) int64 {
		cfg := smallCfg(y)
		r, _ := NewRing(cfg, 23, nil)
		for i := 0; i < 2000; i++ {
			if _, _, err := r.Access(BlockID(i%64), false, nil); err != nil {
				t.Fatal(err)
			}
		}
		s := r.Stats()
		return s.EvictBlocks / s.EvictPaths
	}
	b0, b4 := evictBlocks(0), evictBlocks(4)
	if b4 >= b0 {
		t.Fatalf("CB did not reduce evict traffic: Y=0 -> %d, Y=4 -> %d blocks/evict", b0, b4)
	}
	// Exactly (L+1-T) * (Z + Z+S-Y) per eviction.
	cfg := smallCfg(4)
	want := int64((cfg.Levels - cfg.TreeTopCacheLevels) * (cfg.Z + cfg.SlotsPerBucket()))
	if b4 != want {
		t.Fatalf("evict blocks/op = %d, want %d", b4, want)
	}
}

// TestRingBackgroundEviction forces stash pressure with an aggressive CB
// rate and a small stash and verifies (a) leakage-free background
// eviction engages, (b) the stash never exceeds capacity, (c) the op
// stream still only contains the four public op kinds with constant
// shapes.
func TestRingBackgroundEviction(t *testing.T) {
	cfg := smallCfg(4)
	cfg.StashSize = 16
	cfg.BackgroundEvictThreshold = 8
	r, err := NewRing(cfg, 29, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if _, _, err := r.Access(BlockID(i%128), i%2 == 0, nil); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if r.StashLen() > cfg.StashSize {
			t.Fatalf("stash exceeded capacity: %d > %d", r.StashLen(), cfg.StashSize)
		}
	}
	s := r.Stats()
	if s.BackgroundDummyReads == 0 {
		t.Fatal("aggressive CB with a tiny stash never triggered background eviction")
	}
	if s.BackgroundEvictions == 0 {
		t.Fatal("background dummy reads happened but no background eviction completed")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRingNoBackgroundEvictionWithBigStash mirrors Fig. 14's finding: at
// stash 500 even Y=Z causes no background evictions on this scale.
func TestRingNoBackgroundEvictionWithBigStash(t *testing.T) {
	cfg := smallCfg(4)
	cfg.StashSize = 500
	r, _ := NewRing(cfg, 31, nil)
	for i := 0; i < 4000; i++ {
		if _, _, err := r.Access(BlockID(i%128), i%2 == 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Stats().BackgroundEvictions; n != 0 {
		t.Fatalf("big stash still saw %d background evictions", n)
	}
}

// TestRingOverflowOnOverfullTree writes more distinct blocks than the
// tree can store; the excess must pile up in the stash until the
// controller reports ErrStashOverflow instead of corrupting state.
func TestRingOverflowOnOverfullTree(t *testing.T) {
	cfg := config.ORAM{
		Z: 2, S: 3, Y: 0, A: 3,
		Levels:             3,
		TreeTopCacheLevels: 0,
		BlockSize:          32,
		StashSize:          20,
	}
	r, err := NewRing(cfg, 37, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sawOverflow bool
	for i := 0; i < 500; i++ {
		if _, _, err := r.Access(BlockID(i), true, nil); err != nil {
			if errors.Is(err, ErrStashOverflow) {
				sawOverflow = true
				break
			}
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if !sawOverflow {
		t.Fatal("tree capacity 14 blocks absorbed 500 distinct blocks without overflow")
	}
}

// TestRingStashSampler: StashLen after each access is the Fig. 15
// occupancy sample, and the Stats high-water mark is the largest sample.
func TestRingStashSampler(t *testing.T) {
	cfg := smallCfg(2)
	r, _ := NewRing(cfg, 41, nil)
	peak := 0
	for i := 0; i < 200; i++ {
		if _, _, err := r.Access(BlockID(i%32), false, nil); err != nil {
			t.Fatal(err)
		}
		s := r.StashLen()
		if s < 0 || s > cfg.StashSize {
			t.Fatalf("sample %d out of range", s)
		}
		peak = max(peak, s)
	}
	if st := r.Stats(); st.StashPeak != int64(peak) {
		t.Fatalf("StashPeak = %d, largest sample %d", st.StashPeak, peak)
	}
}

func TestRingStashHitStillReadsFullPath(t *testing.T) {
	cfg := smallCfg(0)
	cfg.A = 6 // delay evictions so the block stays in the stash (S >= A)
	r, err := NewRing(cfg, 43, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Access(1, true, nil); err != nil {
		t.Fatal(err)
	}
	if !r.stash.Contains(1) {
		t.Fatal("block 1 left the stash before the second access")
	}
	_, ops, err := r.Access(1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range ops {
		if op.Kind == OpReadPath {
			found = true
			if got := op.Reads(); got != cfg.Levels-cfg.TreeTopCacheLevels {
				t.Fatalf("stash-hit read path has %d reads", got)
			}
		}
	}
	if !found {
		t.Fatal("stash hit issued no read path operation")
	}
}

func TestRingEarlyReshuffleTriggered(t *testing.T) {
	// A tiny A relative to S would avoid reshuffles; instead use a large
	// A so buckets absorb many read paths between evictions and the
	// access budget S is hit.
	cfg := smallCfg(0)
	cfg.A = 6
	cfg.S = 6
	r, _ := NewRing(cfg, 47, nil)
	for i := 0; i < 5000; i++ {
		if _, _, err := r.Access(BlockID(i%16), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r.Stats().EarlyReshuffles == 0 {
		t.Fatal("no early reshuffle in 5000 accesses with S=A=6; the budget path is dead")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRingStatsAccounting(t *testing.T) {
	cfg := smallCfg(0)
	r, _ := NewRing(cfg, 53, nil)
	const reads, writes = 60, 40
	for i := 0; i < reads; i++ {
		if _, _, err := r.Access(BlockID(i), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < writes; i++ {
		if _, _, err := r.Access(BlockID(i), true, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Stats()
	if s.Reads != reads || s.Writes != writes {
		t.Fatalf("reads/writes = %d/%d, want %d/%d", s.Reads, s.Writes, reads, writes)
	}
	if s.ReadPaths != reads+writes {
		t.Fatalf("ReadPaths = %d, want %d", s.ReadPaths, reads+writes)
	}
	if s.EvictPaths != int64((reads+writes)/cfg.A) {
		t.Fatalf("EvictPaths = %d, want %d", s.EvictPaths, (reads+writes)/cfg.A)
	}
}

func TestRingFunctionalWithBackgroundEviction(t *testing.T) {
	// Data correctness must survive green fetches and background
	// evictions: run the round-trip under stash pressure.
	cfg := smallCfg(4)
	cfg.StashSize = 60
	cfg.BackgroundEvictThreshold = 45
	r := newFunctionalRing(t, cfg, 59)
	src := rng.New(61)
	ref := make(map[BlockID][]byte)
	for i := 0; i < 3000; i++ {
		id := BlockID(src.Intn(80))
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
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: block %d corrupted", i, id)
			}
		}
	}
	if r.Stats().BackgroundEvictions == 0 {
		t.Log("note: no background evictions occurred; pressure test was weak")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRingPlaintextStore exercises the store-without-crypt layer (used
// to isolate protocol bugs from sealing bugs): data must round trip and
// dummies occupy zero blocks.
func TestRingPlaintextStore(t *testing.T) {
	cfg := smallCfg(2)
	r, err := NewRing(cfg, 404, &Options{Store: NewMemStore(cfg.SlotsPerBucket())})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(405)
	ref := make(map[BlockID][]byte)
	for i := 0; i < 1200; i++ {
		id := BlockID(src.Intn(40))
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
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: block %d corrupted in plaintext mode", i, id)
			}
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPathPlaintextStore is the same layer-isolation check for Path ORAM.
func TestPathPlaintextStore(t *testing.T) {
	p, err := NewPath(4, 8, 32, 300, 406, &Options{Store: NewMemStore(4)})
	if err != nil {
		t.Fatal(err)
	}
	d := make([]byte, 32)
	copy(d, "plain")
	if _, err := p.Write(9, d); err != nil {
		t.Fatal(err)
	}
	got, _, err := p.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d) {
		t.Fatal("plaintext Path round trip corrupted")
	}
	if p.Stats().Reads != 1 || p.Stats().Writes != 1 {
		t.Fatalf("stats: %+v", p.Stats())
	}
}

func TestRecursiveAccessors(t *testing.T) {
	rr := newRecursive(t, 1024, 32, false, 9)
	if rr.DataRing() == nil {
		t.Fatal("nil data ring")
	}
}

func TestRingSelectionPolicies(t *testing.T) {
	// Uniform selection must fetch greens at least as eagerly as the
	// default dummy-first policy under the same workload, and both must
	// preserve the invariants.
	run := func(dummyFirst bool) *Ring {
		cfg := smallCfg(3)
		cfg.UniformSelect = !dummyFirst
		r, err := NewRing(cfg, 67, nil)
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
		return r
	}
	uniform, dummyFirst := run(false), run(true)
	if uniform.Stats().GreenFetches < dummyFirst.Stats().GreenFetches {
		t.Fatalf("uniform policy fetched fewer greens (%d) than dummy-first (%d)",
			uniform.Stats().GreenFetches, dummyFirst.Stats().GreenFetches)
	}
}
