package oram

import (
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/invariant"
	"stringoram/internal/obs"
)

// The data-plane hot path is contractually allocation-free in steady
// state: seal/open run through caller buffers, XOR folding reuses the
// accumulator, and the controller recycles block buffers and op lists.
// These guards pin that property so a regression shows up as a test
// failure, not a silent benchmark drift.

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
	if n := testing.AllocsPerRun(100, func() {
		buf = c.SealDummyInto(buf, 7, 3, 9)
	}); n != 0 {
		t.Fatalf("SealDummyInto allocates %.1f times per op, want 0", n)
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

func TestAllocFreeXORBlocks(t *testing.T) {
	dst := make([]byte, 72)
	src := make([]byte, 72)
	if n := testing.AllocsPerRun(100, func() {
		XORBlocks(dst, src)
	}); n != 0 {
		t.Fatalf("XORBlocks allocates %.1f times per op, want 0", n)
	}
}

func TestAllocFreeStashCycle(t *testing.T) {
	s := NewStash(64)
	buf := make([]byte, 64)
	// Warm the map so steady-state Put/Remove reuses its cells.
	for i := 0; i < 32; i++ {
		s.Put(BlockID(i), PathID(i), nil)
	}
	for i := 0; i < 32; i++ {
		s.Remove(BlockID(i))
	}
	if n := testing.AllocsPerRun(200, func() {
		s.Put(5, 9, buf)
		buf = s.Remove(5)
	}); n != 0 {
		t.Fatalf("stash Put/Remove cycle allocates %.1f times per op, want 0", n)
	}
}

// TestAllocFreeFunctionalAccess drives a warmed functional ring (store +
// AES sealing + XOR decode) and asserts the steady-state access loop
// performs zero heap allocations. The warmup spans several full
// reverse-lexicographic eviction cycles so every bucket, pool buffer,
// and scratch slice reaches its steady capacity first.
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

// TestAllocFreeInstrumentedAccess repeats the functional-access guard
// with the full observability stack live — metrics registry, every ring
// instrument, and a flight recorder receiving events — pinning the
// tentpole constraint that enabled telemetry adds 0 allocs/op.
func TestAllocFreeInstrumentedAccess(t *testing.T) {
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
	reg := obs.NewRegistry()
	ins := NewInstruments(reg, `ring="alloc-test"`)
	ins.Recorder = obs.NewRecorder[obs.Event](1024)
	r.Instrument(ins)
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
		t.Fatalf("instrumented warmed Access allocates %.1f times per op, want 0", n)
	}
	if ins.Accesses.Value() == 0 || ins.Stash.Value() < 0 || ins.Recorder.Total() == 0 {
		t.Fatal("instruments were not actually live during the guard")
	}
}
