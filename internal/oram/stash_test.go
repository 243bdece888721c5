package oram

import (
	"testing"

	"stringoram/internal/rng"
)

// stashPath returns the assigned path of a buffered block, read through
// ForEach; ok is false when the block is not buffered.
func stashPath(s *Stash, id BlockID) (p PathID, ok bool) {
	s.ForEach(func(got BlockID, path PathID) {
		if got == id {
			p, ok = path, true
		}
	})
	return p, ok
}

func TestStashBasics(t *testing.T) {
	s := NewStash(10)
	if s.Len() != 0 || s.Cap() != 10 {
		t.Fatalf("fresh stash: len=%d cap=%d", s.Len(), s.Cap())
	}
	s.Put(1, 5, []byte{0xAB})
	if !s.Contains(1) || s.Len() != 1 {
		t.Fatal("Put did not register")
	}
	if p, ok := stashPath(s, 1); !ok || p != 5 {
		t.Fatalf("Path(1) = %d,%v", p, ok)
	}
	if got := s.Get(1); len(got) != 1 || got[0] != 0xAB {
		t.Fatalf("Get(1) = %v", got)
	}
	s.SetPath(1, 7)
	if p, _ := stashPath(s, 1); p != 7 {
		t.Fatalf("SetPath did not apply: %d", p)
	}
	data := s.Remove(1)
	if data == nil || s.Contains(1) || s.Len() != 0 {
		t.Fatal("Remove did not work")
	}
	if s.Remove(1) != nil {
		t.Fatal("double Remove returned data")
	}
}

func TestStashPutReplaces(t *testing.T) {
	s := NewStash(10)
	s.Put(1, 2, []byte{1})
	s.Put(1, 3, []byte{2})
	if s.Len() != 1 {
		t.Fatalf("len = %d after replace, want 1", s.Len())
	}
	if got := s.Get(1); got[0] != 2 {
		t.Fatalf("Get returned stale data %v", got)
	}
}

func TestStashMissingLookups(t *testing.T) {
	s := NewStash(4)
	if s.Get(99) != nil {
		t.Fatal("Get on missing block returned data")
	}
	if _, ok := stashPath(s, 99); ok {
		t.Fatal("Path on missing block reported ok")
	}
	s.SetPath(99, 1) // must not panic or insert
	if s.Len() != 0 {
		t.Fatal("SetPath on missing block inserted an entry")
	}
}

func TestStashForEach(t *testing.T) {
	s := NewStash(10)
	want := map[BlockID]PathID{1: 10, 2: 20, 3: 30}
	for id, p := range want {
		s.Put(id, p, nil)
	}
	got := map[BlockID]PathID{}
	s.ForEach(func(id BlockID, p PathID) { got[id] = p })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d entries, want %d", len(got), len(want))
	}
	for id, p := range want {
		if got[id] != p {
			t.Errorf("entry %d: path %d, want %d", id, got[id], p)
		}
	}
}

// mappedBlocks counts the mappings ForEach visits.
func mappedBlocks(pm *PositionMap) int {
	n := 0
	pm.ForEach(func(BlockID, PathID) { n++ })
	return n
}

func TestPositionMapLazyAssign(t *testing.T) {
	pm := NewPositionMap(256, 64, rng.New(1))
	if _, known := pm.Lookup(5); known {
		t.Fatal("unmapped block reported known")
	}
	p := pm.Remap(5)
	if p < 0 || p >= 256 {
		t.Fatalf("Remap out of range: %d", p)
	}
	if got, known := pm.Lookup(5); !known || got != p {
		t.Fatalf("Lookup after Remap = %d,%v", got, known)
	}
	if n := mappedBlocks(pm); n != 1 {
		t.Fatalf("mapped %d blocks, want 1", n)
	}
}

func TestPositionMapRemapUniform(t *testing.T) {
	pm := NewPositionMap(16, 64, rng.New(2))
	counts := make([]int, 16)
	const draws = 16000
	for i := 0; i < draws; i++ {
		counts[pm.Remap(1)]++
	}
	for leaf, c := range counts {
		if c < draws/16*80/100 || c > draws/16*120/100 {
			t.Errorf("leaf %d drawn %d times, want ~%d", leaf, c, draws/16)
		}
	}
}

func TestPositionMapRandomPathDoesNotMap(t *testing.T) {
	pm := NewPositionMap(64, 64, rng.New(3))
	for i := 0; i < 100; i++ {
		p := pm.RandomPath()
		if p < 0 || p >= 64 {
			t.Fatalf("RandomPath out of range: %d", p)
		}
	}
	if mappedBlocks(pm) != 0 {
		t.Fatal("RandomPath inserted mappings")
	}
}

func TestPositionMapForEach(t *testing.T) {
	pm := NewPositionMap(8, 64, rng.New(4))
	pm.Remap(1)
	pm.Remap(2)
	n := 0
	pm.ForEach(func(BlockID, PathID) { n++ })
	if n != 2 {
		t.Fatalf("ForEach visited %d, want 2", n)
	}
}
