package oram

import (
	"bytes"
	"fmt"
	"testing"

	"stringoram/internal/rng"
)

func TestMemStore(t *testing.T) {
	m := NewMemStore(4)
	if m.ReadSlot(1, 2) != nil {
		t.Fatal("fresh store returned data")
	}
	m.WriteSlot(1, 2, []byte{9})
	if got := m.ReadSlot(1, 2); len(got) != 1 || got[0] != 9 {
		t.Fatalf("ReadSlot = %v", got)
	}
	// A bucket is stored whole: a slot of a touched bucket not yet
	// written reads as zero bytes, a bucket never written as nil.
	if got := m.ReadSlot(1, 3); len(got) != 1 || got[0] != 0 {
		t.Fatalf("unwritten slot of a touched bucket = %v, want [0]", got)
	}
	if m.ReadSlot(2, 2) != nil {
		t.Fatal("untouched bucket returned data")
	}
	if m.TouchedBuckets() != 1 {
		t.Fatalf("touched buckets = %d, want 1", m.TouchedBuckets())
	}
}

func TestMemStoreMatchesMap(t *testing.T) {
	const perBkt, slotLen = 5, 24
	m := NewMemStore(perBkt)
	type cell struct {
		bucket int64
		slot   int
	}
	ref := map[cell][]byte{}
	touched := map[int64]bool{}
	// want is what a slot reads as: a bucket is stored whole, so an
	// unwritten slot of a touched bucket reads as zero bytes, and one of
	// a bucket never written as nil.
	want := func(c cell) []byte {
		if d, ok := ref[c]; ok {
			return d
		}
		if touched[c.bucket] {
			return make([]byte, slotLen)
		}
		return nil
	}
	buckets := boundaryKeys(1 << 16)
	src := rng.New(11)
	buf := make([]byte, slotLen) // reused: WriteSlot must copy
	for step := 0; step < 5000; step++ {
		c := cell{buckets[src.Intn(len(buckets))], src.Intn(perBkt)}
		if src.Intn(2) == 0 {
			for i := range buf {
				buf[i] = byte(src.Intn(256))
			}
			m.WriteSlot(c.bucket, c.slot, buf)
			ref[c] = bytes.Clone(buf)
			touched[c.bucket] = true
		} else if got := m.ReadSlot(c.bucket, c.slot); !bytes.Equal(got, want(c)) || (got == nil) != (want(c) == nil) {
			t.Fatalf("step %d: ReadSlot(%d, %d) = %x, want %x", step, c.bucket, c.slot, got, want(c))
		}
	}
	if m.TouchedBuckets() != len(touched) {
		t.Fatalf("TouchedBuckets = %d, want %d", m.TouchedBuckets(), len(touched))
	}
	prev := int64(-1)
	m.eachBucket(func(bucket int64, slots [][]byte) {
		if bucket <= prev || !touched[bucket] || len(slots) != perBkt {
			t.Fatalf("eachBucket visited %d after %d with %d slots", bucket, prev, len(slots))
		}
		prev = bucket
		for s, got := range slots {
			if got == nil || !bytes.Equal(got, want(cell{bucket, s})) {
				t.Fatalf("eachBucket(%d) slot %d = %x, want %x", bucket, s, got, want(cell{bucket, s}))
			}
		}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("WriteSlot of another length did not panic")
		}
	}()
	m.WriteSlot(0, 0, make([]byte, slotLen+1))
}

// TestMemStoreSlotsStayPut: the arena never moves a written body, so a
// ReadSlot slice keeps its bytes while later writes add chunks, and its
// capacity ends at the slot, so an append cannot write into the next one.
func TestMemStoreSlotsStayPut(t *testing.T) {
	const perBkt, slotLen = 3, 16
	m := NewMemStore(perBkt)
	fill := func(bucket int64, slot int) []byte {
		return bytes.Repeat([]byte{byte(bucket*perBkt + int64(slot) + 1)}, slotLen)
	}
	write := func(bucket int64) {
		for s := 0; s < perBkt; s++ {
			m.WriteSlot(bucket, s, fill(bucket, s))
		}
	}
	write(0)
	write(1)
	held := m.ReadSlot(0, 1)
	if cap(held) != slotLen {
		t.Fatalf("ReadSlot capacity = %d, want %d", cap(held), slotLen)
	}
	_ = append(held, 0xff)
	if got, want := m.ReadSlot(0, 2), fill(0, 2); !bytes.Equal(got, want) {
		t.Fatalf("append to slot 1 reached slot 2: %x, want %x", got, want)
	}
	for b := int64(2); b < 2+2*chunkBuckets; b++ {
		write(b)
	}
	if len(m.chunks) < 3 {
		t.Fatalf("the writes filled %d chunks, want at least 3", len(m.chunks))
	}
	if want := fill(0, 1); !bytes.Equal(held, want) {
		t.Fatalf("held slot changed as the arena grew: %x, want %x", held, want)
	}
	for b := int64(0); b < 2+2*chunkBuckets; b++ {
		for s := 0; s < perBkt; s++ {
			if got, want := m.ReadSlot(b, s), fill(b, s); !bytes.Equal(got, want) {
				t.Fatalf("ReadSlot(%d, %d) = %x, want %x", b, s, got, want)
			}
		}
	}
}

// TestMemStoreSlotBounds: a slot outside [0, perBkt) panics on read and
// on write; in the arena it would otherwise address a neighbouring
// bucket's bytes.
func TestMemStoreSlotBounds(t *testing.T) {
	const perBkt, slotLen = 4, 8
	m := NewMemStore(perBkt)
	for b := int64(0); b < 3; b++ {
		for s := 0; s < perBkt; s++ {
			m.WriteSlot(b, s, make([]byte, slotLen))
		}
	}
	panics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	for _, slot := range []int{-1, perBkt} {
		panics(fmt.Sprintf("ReadSlot(1, %d)", slot), func() { m.ReadSlot(1, slot) })
		panics(fmt.Sprintf("WriteSlot(1, %d)", slot), func() { m.WriteSlot(1, slot, make([]byte, slotLen)) })
	}
}
