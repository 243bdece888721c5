package oram

import (
	"bytes"
	"slices"
	"testing"

	"stringoram/internal/rng"
)

// The indexed tables replaced hash maps, so each is driven through a
// seeded random sequence of its operations beside a reference map and
// compared step by step, over keys chosen to sit on both sides of the
// dense bound.

// boundaryKeys are the keys every model test draws from: small dense
// ones, the last bucket of a 16-level tree's table (2^16 - 2) and the
// two past it, both sides of the bound handed to the table, both sides of
// denseBound, and the warm-fill filler ids.
func boundaryKeys(bound int64) []int64 {
	return []int64{0, 1, 2, 3, 7, 1<<16 - 2, 1<<16 - 1, 1 << 16,
		max(bound-1, 0), bound, bound + 1,
		denseBound - 1, denseBound, denseBound + 1,
		int64(FillerBase), int64(FillerBase) + 1}
}

func TestTableMatchesMap(t *testing.T) {
	for _, bound := range []int64{0, 5, 1 << 16, denseBound, 1 << 30} {
		tab := newTable[int64](bound)
		ref := map[int64]int64{}
		keys := boundaryKeys(bound)
		src := rng.New(uint64(bound) + 1)
		for step := 0; step < 4000; step++ {
			k := keys[src.Intn(len(keys))]
			switch src.Intn(3) {
			case 0:
				v := int64(src.Intn(1000)) + 1
				tab.set(k, v)
				ref[k] = v
			case 1:
				if got := tab.get(k); got != ref[k] {
					t.Fatalf("bound %d step %d: get(%d) = %d, want %d", bound, step, k, got, ref[k])
				}
			case 2:
				var got []int64
				tab.ascending(func(k, v int64) {
					if v != ref[k] {
						t.Fatalf("bound %d step %d: walk saw %d=%d, want %d", bound, step, k, v, ref[k])
					}
					got = append(got, k)
				})
				if !slices.IsSorted(got) || len(got) != len(ref) || tab.len() != len(ref) {
					t.Fatalf("bound %d step %d: walk visited %v (len() %d) of %d keys", bound, step, got, tab.len(), len(ref))
				}
			}
		}
		// The rule is a property of the key alone, and the slice never
		// outgrows the bound whatever key the table was handed.
		if want := min(bound, denseBound); int64(len(tab.dense)) > want {
			t.Fatalf("bound %d: dense index grew to %d entries", bound, len(tab.dense))
		}
		if tab.get(-1) != 0 {
			t.Fatalf("bound %d: a negative key reads as present", bound)
		}
		for k := range tab.sparse {
			if k < min(bound, denseBound) {
				t.Fatalf("bound %d: key %d below the bound sits in the map", bound, k)
			}
		}
	}
}

// TestTableFarKeyAllocatesNothingDense pins the trap the bound exists for:
// a huge key must cost one map cell, not a slice sized by it.
func TestTableFarKeyAllocatesNothingDense(t *testing.T) {
	tab := newTable[int64](1 << 40)
	tab.set(int64(FillerBase), 7)
	tab.set(denseBound, 8)
	if len(tab.dense) != 0 || tab.get(int64(FillerBase)) != 7 || tab.get(denseBound) != 8 {
		t.Fatalf("far keys grew the dense index to %d entries", len(tab.dense))
	}
	tab.set(denseBound-1, 9)
	if len(tab.dense) != denseBound || tab.get(denseBound-1) != 9 {
		t.Fatalf("last dense key: index has %d entries, want %d", len(tab.dense), denseBound)
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
		} else if got := m.ReadSlot(c.bucket, c.slot); !bytes.Equal(got, ref[c]) || (got == nil) != (ref[c] == nil) {
			t.Fatalf("step %d: ReadSlot(%d, %d) = %x, want %x", step, c.bucket, c.slot, got, ref[c])
		}
	}
	touched := map[int64]bool{}
	for c := range ref {
		touched[c.bucket] = true
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
			if want := ref[cell{bucket, s}]; !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("eachBucket(%d) slot %d = %x, want %x", bucket, s, got, want)
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

func TestPositionMapMatchesMap(t *testing.T) {
	const leaves, capacity = 1 << 15, 4 * (1<<16 - 1)
	pm := NewPositionMap(leaves, capacity, rng.New(5))
	ref := map[BlockID]PathID{}
	ids := boundaryKeys(capacity)
	src := rng.New(6)
	for step := 0; step < 4000; step++ {
		id := BlockID(ids[src.Intn(len(ids))])
		switch src.Intn(4) {
		case 0:
			ref[id] = pm.Remap(id)
			if ref[id] < 0 || ref[id] >= leaves {
				t.Fatalf("step %d: Remap drew path %d", step, ref[id])
			}
		case 1:
			p := PathID(src.Intn(leaves)) // path 0 included: it must not read as unmapped
			pm.Set(id, p)
			ref[id] = p
		case 2:
			want, known := ref[id]
			if got, ok := pm.Lookup(id); ok != known || (ok && got != want) {
				t.Fatalf("step %d: Lookup(%d) = %d,%v, want %d,%v", step, id, got, ok, want, known)
			}
		case 3:
			prev, n := BlockID(-1), 0
			pm.ForEach(func(id BlockID, p PathID) {
				if id <= prev || ref[id] != p {
					t.Fatalf("step %d: ForEach saw %d=%d after %d, want path %d", step, id, p, prev, ref[id])
				}
				prev, n = id, n+1
			})
			if n != len(ref) {
				t.Fatalf("step %d: ForEach visited %d of %d", step, n, len(ref))
			}
		}
	}
}

// stashModel checks every observable of s against ref.
func stashModel(t *testing.T, step int, s *Stash, ref map[BlockID]stashEntry, probe []BlockID) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
	}
	for _, id := range probe {
		want, in := ref[id]
		if s.Contains(id) != in {
			t.Fatalf("step %d: Contains(%d) = %v", step, id, !in)
		}
		if p, ok := stashPath(s, id); ok != in || p != want.path {
			t.Fatalf("step %d: Path(%d) = %d,%v, want %d,%v", step, id, p, ok, want.path, in)
		}
		if got := s.Get(id); !bytes.Equal(got, want.data) || (got == nil) != (want.data == nil) {
			t.Fatalf("step %d: Get(%d) = %x, want %x", step, id, got, want.data)
		}
	}
	seen := 0
	s.ForEach(func(id BlockID, p PathID) {
		if want, in := ref[id]; !in || want.path != p {
			t.Fatalf("step %d: ForEach saw %d=%d, want %v (present %v)", step, id, p, want.path, in)
		}
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("step %d: ForEach visited %d of %d", step, seen, len(ref))
	}
}

func TestStashMatchesMap(t *testing.T) {
	s := NewStash(40)
	ref := map[BlockID]stashEntry{}
	// Enough distinct ids to grow the index past stashMinIndex several
	// times, consecutive ones (the common case) and far ones.
	var ids []BlockID
	for i := 0; i < 90; i++ {
		ids = append(ids, BlockID(i))
	}
	for _, k := range boundaryKeys(1 << 16) {
		ids = append(ids, BlockID(k))
	}
	src := rng.New(21)
	for step := 0; step < 20000; step++ {
		id := ids[src.Intn(len(ids))]
		switch src.Intn(5) {
		case 0, 1:
			var data []byte
			if src.Intn(4) > 0 {
				data = []byte{byte(step), byte(step >> 8), byte(id)}
			}
			p := PathID(src.Intn(1 << 15))
			prev, existed := ref[id]
			displaced := s.Put(id, p, data)
			if existed && prev.data != nil {
				if !bytes.Equal(displaced, prev.data) {
					t.Fatalf("step %d: Put(%d) displaced %x, want %x", step, id, displaced, prev.data)
				}
			} else if displaced != nil {
				t.Fatalf("step %d: Put(%d) displaced %x from nothing", step, id, displaced)
			}
			ref[id] = stashEntry{path: p, data: data}
		case 2:
			want, in := ref[id]
			if got := s.Remove(id); !bytes.Equal(got, want.data) || (got == nil) != (!in || want.data == nil) {
				t.Fatalf("step %d: Remove(%d) = %x, want %x", step, id, got, want.data)
			}
			delete(ref, id)
		case 3:
			p := PathID(src.Intn(1 << 15))
			s.SetPath(id, p)
			if e, in := ref[id]; in {
				e.path = p
				ref[id] = e
			}
		case 4:
			stashModel(t, step, s, ref, ids)
		}
	}
	stashModel(t, -1, s, ref, ids)
}

// TestStashProbeClusterRemoval removes from the head, the middle and the
// tail of a run of entries that all hash to one slot, where a deletion
// that left a hole (or moved the wrong entry back) would hide the rest.
func TestStashProbeClusterRemoval(t *testing.T) {
	s := NewStash(8)
	var cluster []BlockID
	for id := BlockID(0); len(cluster) < 5; id++ {
		if s.home(id) == 3 {
			cluster = append(cluster, id)
		}
	}
	for perm := 0; perm < 5; perm++ {
		for i, id := range cluster {
			s.Put(id, PathID(i), []byte{byte(id)})
		}
		if len(s.index) != stashMinIndex {
			t.Fatal("five entries grew the index; the cluster no longer shares a home slot")
		}
		// Remove starting from a different member each round.
		for k := range cluster {
			id := cluster[(perm+k)%len(cluster)]
			if got := s.Remove(id); len(got) != 1 || got[0] != byte(id) {
				t.Fatalf("round %d: Remove(%d) = %v", perm, id, got)
			}
			for j, other := range cluster {
				gone := (j-perm+len(cluster))%len(cluster) <= k
				if s.Contains(other) == gone {
					t.Fatalf("round %d after removing %d: Contains(%d) = %v", perm, id, other, !gone)
				}
			}
		}
		if s.Len() != 0 {
			t.Fatalf("round %d: %d entries left", perm, s.Len())
		}
	}
}

// TestStashRePutOwnBuffer pins the displaced contract: re-Putting an
// entry's own buffer must not hand that buffer back for recycling, while
// a replacement buffer displaces the old one.
func TestStashRePutOwnBuffer(t *testing.T) {
	s := NewStash(4)
	buf := []byte{1, 2, 3}
	if d := s.Put(9, 1, buf); d != nil {
		t.Fatalf("first Put displaced %v", d)
	}
	if d := s.Put(9, 2, s.Get(9)); d != nil {
		t.Fatalf("re-Put of the entry's own buffer displaced %v", d)
	}
	if p, _ := stashPath(s, 9); p != 2 || !bytes.Equal(s.Get(9), buf) {
		t.Fatalf("re-Put lost the entry: path %d data %v", p, s.Get(9))
	}
	if d := s.Put(9, 3, []byte{4}); len(d) != 3 || &d[0] != &buf[0] {
		t.Fatalf("replacement displaced %v, want the original buffer", d)
	}
	if d := s.Remove(9); len(d) != 1 || d[0] != 4 || s.Len() != 0 {
		t.Fatalf("Remove of the last entry = %v, len %d", d, s.Len())
	}
}
