package oram

import (
	"bytes"
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

func TestSealDummyAtDeterministic(t *testing.T) {
	c, _ := NewCrypt(testKey(), 64)
	a := c.SealDummyInto(nil, 123, 4, 5)
	b := c.SealDummyInto(nil, 123, 4, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("SealDummyAt not deterministic")
	}
	if bytes.Equal(a, c.SealDummyInto(nil, 123, 4, 6)) {
		t.Fatal("epochs share ciphertexts")
	}
	if bytes.Equal(a, c.SealDummyInto(nil, 123, 5, 5)) {
		t.Fatal("slots share ciphertexts")
	}
	if bytes.Equal(a, c.SealDummyInto(nil, 124, 4, 5)) {
		t.Fatal("buckets share ciphertexts")
	}
	got, err := c.OpenInto(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("dummy does not decrypt to zeros")
	}
}

func TestDummyDomainSeparation(t *testing.T) {
	// Deterministic dummy counters live in the 0xDD-prefixed subspace;
	// sequential write counters start at 1.
	for _, args := range [][3]int64{{0, 0, 0}, {1, 2, 3}, {1 << 40, 11, 99}} {
		ctr := dummyCounter(args[0], int(args[1]), int(args[2]))
		if ctr>>56 != 0xDD {
			t.Fatalf("dummy counter %x escaped its domain", ctr)
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
