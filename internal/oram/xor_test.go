package oram

import (
	"bytes"
	"encoding/binary"
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/rng"
)

func newXORRing(t *testing.T, seed uint64) *Ring {
	t.Helper()
	cfg := smallCfg(0) // XOR requires Y=0
	crypt, err := NewCrypt(testKey(), cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(cfg, seed, &Options{
		Store: NewMemStore(cfg.SlotsPerBucket()),
		Crypt: crypt,
		XOR:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestXORRequiresStoreAndCrypt(t *testing.T) {
	if _, err := NewRing(smallCfg(0), 1, &Options{XOR: true}); err == nil {
		t.Fatal("XOR mode accepted without store/crypt")
	}
}

func TestXORRejectsCompactBucket(t *testing.T) {
	cfg := smallCfg(2)
	crypt, _ := NewCrypt(testKey(), cfg.BlockSize)
	_, err := NewRing(cfg, 1, &Options{Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt, XOR: true})
	if err == nil {
		t.Fatal("XOR mode accepted with Y > 0")
	}
}

// TestXORFunctionalRoundTrip is the key test: with XOR decoding, reads
// recover exactly the written data across a long random workload, i.e.
// cancelling deterministic dummies out of the combined block works at
// every epoch.
func TestXORFunctionalRoundTrip(t *testing.T) {
	r := newXORRing(t, 101)
	src := rng.New(102)
	cfg := r.Config()
	ref := make(map[BlockID][]byte)
	for i := 0; i < 3000; i++ {
		id := BlockID(src.Intn(64))
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
				t.Fatalf("step %d: block %d XOR decode wrong", i, id)
			}
		}
	}
	s := r.Stats()
	if s.XORDecodes == 0 {
		t.Fatal("no XOR decodes recorded; reads bypassed the XOR path")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestXORMatchesDirectRead runs the same seed with and without XOR and
// verifies identical plaintexts and identical access sequences: XOR is a
// transport optimization, not a protocol change.
func TestXORMatchesDirectRead(t *testing.T) {
	cfg := smallCfg(0)
	mk := func(xor bool) *Ring {
		crypt, _ := NewCrypt(testKey(), cfg.BlockSize)
		r, err := NewRing(cfg, 77, &Options{
			Store: NewMemStore(cfg.SlotsPerBucket()),
			Crypt: crypt,
			XOR:   xor,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(true), mk(false)
	for i := 0; i < 1000; i++ {
		id := BlockID(i % 48)
		write := i%3 == 0
		var data []byte
		if write {
			data = blockData(cfg, id, i)
		}
		da, opsA, errA := a.Access(id, write, data)
		db, opsB, errB := b.Access(id, write, data)
		if errA != nil || errB != nil {
			t.Fatalf("step %d: %v / %v", i, errA, errB)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("step %d: XOR (%v) and direct (%v) reads differ", i, da[:4], db[:4])
		}
		if len(opsA) != len(opsB) {
			t.Fatalf("step %d: op counts differ: %d vs %d", i, len(opsA), len(opsB))
		}
		for j := range opsA {
			if opsA[j].Kind != opsB[j].Kind || len(opsA[j].Accesses) != len(opsB[j].Accesses) {
				t.Fatalf("step %d op %d: shapes differ", i, j)
			}
		}
	}
}

// TestSealDummyAtDeterministic: the XOR fold re-derives a dummy's
// ciphertext from its position alone, so sealing the zero block at one
// (bucket, slot, epoch) twice must give identical bytes, headed by that
// position's IV, that open to zeros.
func TestSealDummyAtDeterministic(t *testing.T) {
	c, _ := NewCrypt(testKey(), 64)
	core := treeCore{cfg: smallCfg(0)}
	iv := core.slotIV(123, 4, 5)
	a := c.sealWith(nil, iv, nil)
	if !bytes.Equal(a, c.sealWith(nil, iv, nil)) {
		t.Fatal("the position seal is not deterministic")
	}
	if binary.BigEndian.Uint64(a) != iv {
		t.Fatalf("header %#x, want the position IV %#x", binary.BigEndian.Uint64(a), iv)
	}
	got, err := c.OpenInto(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("dummy does not decrypt to zeros")
	}
}

// TestSlotIVInjective: slotIV packs (epoch, bucket, slot) into disjoint
// fields, so no two positions share an IV. Every combination of the
// fields' smallest and largest values must decode back to itself, in a
// small tree and in the deepest geometry the sealed-tree check admits
// (an epoch field of exactly minEpochBits), which one more level fails.
func TestSlotIVInjective(t *testing.T) {
	deepest := smallCfg(0)
	slotBits, _ := ivBits(deepest)
	deepest.Levels = 64 - minEpochBits - slotBits
	crypt, _ := NewCrypt(testKey(), deepest.BlockSize)
	if err := checkSealGeometry(deepest, crypt); err != nil {
		t.Fatal(err)
	}
	tooDeep := deepest
	tooDeep.Levels++
	if checkSealGeometry(tooDeep, crypt) == nil {
		t.Fatalf("a %d-level tree leaves a %d-bit epoch, yet passed the check", tooDeep.Levels, minEpochBits-1)
	}
	if _, err := NewRing(tooDeep, 1, &Options{Store: NewMemStore(tooDeep.SlotsPerBucket()), Crypt: crypt}); err == nil {
		t.Fatal("NewRing sealed a tree whose IVs leave the epoch under 32 bits")
	}
	if _, err := NewPath(4, 33, deepest.BlockSize, 100, 1, &Options{Crypt: crypt}); err == nil {
		t.Fatal("NewPath sealed a tree whose IVs leave the epoch under 32 bits")
	}
	for _, cfg := range []config.ORAM{smallCfg(0), smallCfg(2), deepest} {
		core := treeCore{cfg: cfg}
		slotBits, epochBits := ivBits(cfg)
		seen := make(map[uint64]bool)
		for _, bucket := range []int64{0, 1, NewTree(cfg.Levels).Buckets() - 1} {
			for _, slot := range []int{0, 1, cfg.SlotsPerBucket() - 1} {
				for _, epoch := range []int{0, 1, 1<<epochBits - 1} {
					iv := core.slotIV(bucket, slot, epoch)
					gotSlot := int(iv & (1<<slotBits - 1))
					gotBucket := int64(iv >> slotBits & (1<<cfg.Levels - 1))
					gotEpoch := int(iv >> (slotBits + cfg.Levels))
					if gotSlot != slot || gotBucket != bucket || gotEpoch != epoch || seen[iv] {
						t.Fatalf("%d levels: slotIV(%d, %d, %d) = %#x decodes to (%d, %d, %d), repeated %v",
							cfg.Levels, bucket, slot, epoch, iv, gotBucket, gotSlot, gotEpoch, seen[iv])
					}
					seen[iv] = true
				}
			}
		}
	}
}

func TestXORBlocksPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	XORBlocks(make([]byte, 4), make([]byte, 5))
}

func TestXORBlocks(t *testing.T) {
	a := []byte{0xFF, 0x00, 0xAA}
	b := []byte{0x0F, 0xF0, 0xAA}
	XORBlocks(a, b)
	if a[0] != 0xF0 || a[1] != 0xF0 || a[2] != 0x00 {
		t.Fatalf("XORBlocks = %v", a)
	}
}

// TestXORWithWarmFill checks the interaction of XOR decoding with the
// warm-tree model: warmed buckets carry filler blocks whose slots were
// never written to the store, and pre-consumed (invalid) slots; the fold
// must still cancel exactly.
func TestXORWithWarmFill(t *testing.T) {
	cfg := smallCfg(0)
	cfg.WarmFill = 0.5
	crypt, err := NewCrypt(testKey(), cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(cfg, 202, &Options{
		Store: NewMemStore(cfg.SlotsPerBucket()),
		Crypt: crypt,
		XOR:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(203)
	ref := make(map[BlockID][]byte)
	for i := 0; i < 2000; i++ {
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
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: block %d XOR decode wrong under warm fill", i, id)
			}
		}
	}
	if r.Stats().XORDecodes == 0 {
		t.Fatal("no XOR decodes under warm fill")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestXOROnlineBandwidth confirms the headline effect: with XOR the
// online transfer per read path is a single block, independent of the
// tree height.
func TestXOROnlineBandwidth(t *testing.T) {
	o := config.ORAMForRing(config.Fig4Configs()[0])
	bw := RingBandwidth(o, true)
	if bw.Online != 1 {
		t.Fatalf("XOR online bandwidth = %v blocks, want 1", bw.Online)
	}
}
