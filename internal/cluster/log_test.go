package cluster

import (
	"errors"
	"fmt"
	"testing"

	"stringoram/internal/invariant"
	"stringoram/internal/obs"
	"stringoram/internal/server"
)

func TestLogAppendAndEncode(t *testing.T) {
	l := NewLog(8)
	if first, last := l.Bounds(); first != 0 || last != 0 {
		t.Fatalf("empty bounds = [%d,%d], want [0,0]", first, last)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		l.Append(seq, fmt.Sprintf("k%d", seq), []byte(fmt.Sprintf("v%d", seq)))
	}
	if first, last := l.Bounds(); first != 1 || last != 5 {
		t.Fatalf("bounds = [%d,%d], want [1,5]", first, last)
	}
	var f server.ReplicateFrame
	f.Reset(1, 0)
	last, err := l.Encode(&f, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if last != 5 || f.Len() != 3 {
		t.Fatalf("Encode(2,5] = last %d, frame of %d; want 3 entries ending at 5", last, f.Len())
	}
	// Empty range is fine.
	f.Reset(1, 0)
	if last, err := l.Encode(&f, 4, 4); err != nil || last != 4 || f.Len() != 0 {
		t.Fatalf("Encode(4,4] = %d, %v with %d entries", last, err, f.Len())
	}
}

// TestLogEncodeStopsAtFullFrame: a run too large for one frame is
// encoded up to the frame's bound, and the caller ships the rest in the
// next frame.
func TestLogEncodeStopsAtFullFrame(t *testing.T) {
	l := NewLog(8)
	big := make([]byte, 400<<10)
	for seq := uint64(1); seq <= 5; seq++ {
		l.Append(seq, "k", big)
	}
	var f server.ReplicateFrame
	for from, frames := uint64(0), 0; from < 5; frames++ {
		f.Reset(1, 0)
		last, err := l.Encode(&f, from, 5)
		if err != nil {
			t.Fatal(err)
		}
		if f.Len() != 2 && last != 5 {
			t.Fatalf("frame %d carries %d entries of 400 KiB, want 2 (a frame is 1 MiB)", frames, f.Len())
		}
		from = last
	}
}

func TestLogWrapTrimsOldEntries(t *testing.T) {
	l := NewLog(4)
	for seq := uint64(1); seq <= 10; seq++ {
		l.Append(seq, "k", []byte("v"))
	}
	first, last := l.Bounds()
	if first != 7 || last != 10 {
		t.Fatalf("bounds after wrap = [%d,%d], want [7,10]", first, last)
	}
	var f server.ReplicateFrame
	f.Reset(1, 0)
	if _, err := l.Encode(&f, 4, 10); !errors.Is(err, ErrLogTrimmed) {
		t.Fatalf("Encode past trim err = %v, want ErrLogTrimmed", err)
	}
	if last, err := l.Encode(&f, 6, 10); err != nil || last != 10 || f.Len() != 4 {
		t.Fatalf("Encode(6,10] = %d err=%v with %d entries, want 4 ending at 10", last, err, f.Len())
	}
	// The retry fallback: beyond the resident window the caller must
	// restream a snapshot, never read overwritten slots.
	f.Reset(1, 0)
	if _, err := l.Encode(&f, 0, 10); !errors.Is(err, ErrLogTrimmed) {
		t.Fatalf("Encode from 0 err = %v, want ErrLogTrimmed", err)
	}
}

// TestAllocFreeLogAppend pins the zero-alloc apply contract: once the
// ring has warmed to the workload's key/value sizes, Append must not
// allocate.
func TestAllocFreeLogAppend(t *testing.T) {
	l := NewLog(64)
	key, val := "warm-key-0123", []byte("warm-value-0123456789")
	var seq uint64
	for i := 0; i < 128; i++ { // warm every slot past the payload sizes
		seq++
		l.Append(seq, key, val)
	}
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		l.Append(seq, key, val)
	})
	if allocs != 0 {
		t.Fatalf("warmed Log.Append allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocFreeServerApplyWithOpLog extends the server's steady-state
// guarantee across the cluster hook: a warmed Put with the op-log
// append attached stays allocation-free on the apply path. The put
// itself runs through Server.Put, whose measured budget (request pool +
// response channel reuse) is zero; the OnApply hook must not add any.
func TestAllocFreeServerApplyWithOpLog(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; the zero-alloc guarantee binds on the default build")
	}
	l := NewLog(256)
	cfg := server.Config{
		Shards:     1,
		ORAM:       server.DefaultORAM(8),
		Seed:       11,
		QueueDepth: 128,
		MaxBatch:   1,
		OnApply: func(tc obs.TraceContext, shard int, seq uint64, key string, val []byte) bool {
			l.Append(seq, key, val)
			return false
		},
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key, val := "alloc-key", []byte("alloc-value-123")
	// The warmup spans several full eviction cycles so every lazily
	// materialized bucket, pool buffer, and ring slot reaches steady
	// capacity first (mirrors TestAllocFreeFunctionalAccess).
	for i := 0; i < 8192; i++ {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	// The shard worker runs on its own goroutine, so AllocsPerRun sees
	// the global rate; a fractional bound absorbs scheduler noise while
	// still catching any real per-op allocation.
	if allocs > 0.5 {
		t.Fatalf("warmed Put with op log allocates %.2f/op, want ~0", allocs)
	}
}
