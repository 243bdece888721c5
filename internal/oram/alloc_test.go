package oram

import (
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/invariant"
	"stringoram/internal/rng"
)

// The data-plane hot path is contractually allocation-free in steady
// state: seal/open run through caller buffers, and the controller
// recycles block buffers and op lists. These guards pin that property so
// a regression shows up as a test failure, not a silent benchmark drift.

func TestAllocFreeSealInto(t *testing.T) {
	c, err := NewCrypt([]byte("0123456789abcdef"), 64)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	buf := c.SealInto(nil, payload) // warm the buffer
	if n := testing.AllocsPerRun(100, func() {
		buf = c.SealInto(buf, payload)
	}); n != 0 {
		t.Fatalf("SealInto allocates %.1f times per op, want 0", n)
	}
	body := make([]byte, 12*64, 12*64+gcmTagSize)
	if n := testing.AllocsPerRun(100, func() {
		c.sealBucket(body, 7, 9)
	}); n != 0 {
		t.Fatalf("a bucket seal allocates %.1f times per op, want 0", n)
	}
}

func TestAllocFreeOpenInto(t *testing.T) {
	c, err := NewCrypt([]byte("0123456789abcdef"), 64)
	if err != nil {
		t.Fatal(err)
	}
	sealed := c.SealInto(nil, make([]byte, 64))
	out := make([]byte, 64)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		out, err = c.OpenInto(out, sealed)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("OpenInto allocates %.1f times per op, want 0", n)
	}
}

// TestAllocFreeStashCycle cycles Put/Remove at the occupancy the protocol
// holds the stash to — just under the background-eviction threshold —
// once the entry slice and the index have reached that working size.
func TestAllocFreeStashCycle(t *testing.T) {
	cfg := config.Default().ORAM
	s := NewStash(cfg.StashSize)
	buf := make([]byte, 64)
	near := cfg.EvictThreshold() - 1
	for i := 0; i < near; i++ {
		s.Put(BlockID(i), PathID(i), nil)
	}
	s.Put(BlockID(near), 0, nil) // reach the peak once so both slices have grown
	s.Remove(BlockID(near))
	const hot = BlockID(1 << 30)
	i := near
	if n := testing.AllocsPerRun(2000, func() {
		// One block passes through with its buffer, a new block arrives
		// and the oldest leaves from the middle of the slice: occupancy
		// swings between near and near+1.
		s.Put(hot, 9, buf)
		buf = s.Remove(hot)
		s.Put(BlockID(i), 3, nil)
		s.Remove(BlockID(i - near))
		i++
	}); n != 0 || s.Len() != near {
		t.Fatalf("stash Put/Remove cycle at occupancy %d (now %d) allocates %.1f times per op, want 0", near, s.Len(), n)
	}
}

// TestAllocFreeMemStoreWrite: rewriting a touched bucket's slots copies
// into the bucket's one buffer.
func TestAllocFreeMemStoreWrite(t *testing.T) {
	m := NewMemStore(12)
	sealed := make([]byte, 64)
	for b := int64(0); b < 255; b++ {
		m.WriteSlot(b, 0, sealed)
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		m.WriteSlot(int64(i%255), i%12, sealed)
		_ = m.ReadSlot(int64(i%255), (i+5)%12)
		i++
	}); n != 0 {
		t.Fatalf("steady-state MemStore.WriteSlot allocates %.1f times per op, want 0", n)
	}
}

// TestAllocFreePositionMapRemap: remapping a block whose id the table has
// already grown to cover is one store into the index.
func TestAllocFreePositionMapRemap(t *testing.T) {
	pm := NewPositionMap(1<<15, 4*(1<<16-1), rng.New(3))
	const blocks = 16384
	pm.Remap(blocks - 1) // grows the index once
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		pm.Remap(BlockID(i % blocks))
		i += 7919
	}); n != 0 {
		t.Fatalf("PositionMap.Remap allocates %.1f times per op, want 0", n)
	}
}

// TestAllocFreeFunctionalAccess drives a warmed functional ring (store +
// AES sealing) and asserts the steady-state access loop performs zero
// heap allocations. The warmup spans several full reverse-lexicographic
// eviction cycles so every bucket, pool buffer, and scratch slice
// reaches its steady capacity first.
func TestAllocFreeFunctionalAccess(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; the zero-alloc guarantee binds on the default build")
	}
	cfg := config.Default().ORAM
	cfg.Levels = 8
	crypt, err := NewCrypt([]byte("0123456789abcdef"), cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(cfg, 7, &Options{Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, cfg.BlockSize)
	const keys = 256
	step := func(i int) {
		var err error
		if i%2 == 0 {
			_, _, err = r.Access(BlockID(i%keys), true, payload)
		} else {
			_, _, err = r.Access(BlockID(i%keys), false, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8192; i++ {
		step(i)
	}
	i := 8192
	if n := testing.AllocsPerRun(500, func() {
		step(i)
		i++
	}); n != 0 {
		t.Fatalf("warmed functional Access allocates %.1f times per op, want 0", n)
	}
}
