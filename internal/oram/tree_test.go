package oram

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestTreeCounts(t *testing.T) {
	tr := NewTree(4)
	if tr.L != 3 || tr.Levels() != 4 {
		t.Fatalf("bad levels: %+v", tr)
	}
	if tr.Buckets() != 15 {
		t.Errorf("Buckets = %d, want 15", tr.Buckets())
	}
	if tr.Leaves() != 8 {
		t.Errorf("Leaves = %d, want 8", tr.Leaves())
	}
}

func TestBucketIndexRoot(t *testing.T) {
	tr := NewTree(5)
	for p := PathID(0); p < PathID(tr.Leaves()); p++ {
		if idx := tr.BucketIndex(p, 0); idx != 0 {
			t.Fatalf("path %d level 0 -> bucket %d, want 0 (root)", p, idx)
		}
	}
}

func TestBucketIndexLeaves(t *testing.T) {
	tr := NewTree(4)
	// Leaves occupy indices 7..14 at level 3 for a 4-level tree.
	for p := PathID(0); p < 8; p++ {
		want := int64(7 + p)
		if idx := tr.BucketIndex(p, 3); idx != want {
			t.Errorf("path %d leaf index = %d, want %d", p, idx, want)
		}
	}
}

func TestPathConnectivity(t *testing.T) {
	// Each bucket on a path must be the parent of the next: heap-order
	// child indices are 2i+1 and 2i+2.
	tr := NewTree(7)
	for p := PathID(0); p < PathID(tr.Leaves()); p++ {
		path := tr.Path(p, nil)
		if len(path) != tr.Levels() {
			t.Fatalf("path length %d, want %d", len(path), tr.Levels())
		}
		for l := 1; l < len(path); l++ {
			parent := path[l-1]
			if path[l] != 2*parent+1 && path[l] != 2*parent+2 {
				t.Fatalf("path %d: bucket %d at level %d is not a child of %d", p, path[l], l, parent)
			}
		}
	}
}

func TestBucketLevelRoundTrip(t *testing.T) {
	tr := NewTree(10)
	err := quick.Check(func(raw uint16) bool {
		bucket := int64(raw) % tr.Buckets()
		level := tr.BucketLevel(bucket)
		lo := (int64(1) << uint(level)) - 1
		hi := (int64(1) << uint(level+1)) - 1
		return bucket >= lo && bucket < hi
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPathThroughIsOnPath(t *testing.T) {
	tr := NewTree(8)
	for b := int64(0); b < tr.Buckets(); b++ {
		p := tr.PathThrough(b)
		if !slices.Contains(tr.Path(p, nil), b) {
			t.Fatalf("PathThrough(%d) = %d but bucket is not on that path", b, p)
		}
	}
}

func TestCommonLevel(t *testing.T) {
	tr := NewTree(4) // L = 3
	cases := []struct {
		a, b PathID
		want int
	}{
		{0, 0, 3},
		{0, 1, 2},
		{0, 2, 1},
		{0, 4, 0},
		{5, 5, 3},
		{6, 7, 2},
		{3, 4, 0},
	}
	for _, c := range cases {
		if got := tr.CommonLevel(c.a, c.b); got != c.want {
			t.Errorf("CommonLevel(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCommonLevelSymmetric(t *testing.T) {
	tr := NewTree(9)
	err := quick.Check(func(a, b uint16) bool {
		pa := PathID(int64(a) % tr.Leaves())
		pb := PathID(int64(b) % tr.Leaves())
		return tr.CommonLevel(pa, pb) == tr.CommonLevel(pb, pa)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommonLevelSharesBucket(t *testing.T) {
	tr := NewTree(7)
	err := quick.Check(func(a, b uint16) bool {
		pa := PathID(int64(a) % tr.Leaves())
		pb := PathID(int64(b) % tr.Leaves())
		l := tr.CommonLevel(pa, pb)
		// They share the bucket at level l...
		if tr.BucketIndex(pa, l) != tr.BucketIndex(pb, l) {
			return false
		}
		// ...and diverge below it (unless identical paths).
		if l < tr.L && tr.BucketIndex(pa, l+1) == tr.BucketIndex(pb, l+1) {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEvictPathReverseLex(t *testing.T) {
	tr := NewTree(4) // L = 3, 8 leaves
	// Reverse lexicographic order over 3 bits: 0,4,2,6,1,5,3,7.
	want := []PathID{0, 4, 2, 6, 1, 5, 3, 7}
	for g := int64(0); g < 8; g++ {
		if got := tr.EvictPathFor(g); got != want[g] {
			t.Errorf("EvictPathFor(%d) = %d, want %d", g, got, want[g])
		}
	}
	// Wraps around.
	if got := tr.EvictPathFor(8); got != 0 {
		t.Errorf("EvictPathFor(8) = %d, want 0", got)
	}
}

func TestEvictPathCoversAllLeaves(t *testing.T) {
	tr := NewTree(6)
	seen := make(map[PathID]bool)
	for g := int64(0); g < tr.Leaves(); g++ {
		seen[tr.EvictPathFor(g)] = true
	}
	if int64(len(seen)) != tr.Leaves() {
		t.Fatalf("one period covered %d distinct leaves, want %d", len(seen), tr.Leaves())
	}
}

// TestEvictPathConsecutiveDivergeEarly verifies the property reverse-lex
// order exists for: consecutive eviction paths share as few buckets as
// possible (consecutive paths differ in the bit closest to the root).
func TestEvictPathConsecutiveDivergeEarly(t *testing.T) {
	tr := NewTree(8)
	for g := int64(0); g < 64; g++ {
		a := tr.EvictPathFor(g)
		b := tr.EvictPathFor(g + 1)
		if l := tr.CommonLevel(a, b); l > 3 {
			t.Errorf("evictions %d,%d share down to level %d; reverse-lex should diverge near the root", g, g+1, l)
		}
	}
}

// The bit loops tree.go used before math/bits, kept as the reference the
// one-instruction forms are proved against.

func loopBucketLevel(bucket int64) int {
	level := 0
	for (int64(1)<<uint(level+1))-1 <= bucket {
		level++
	}
	return level
}

func loopCommonLevel(t Tree, a, b PathID) int {
	x := uint64(a) ^ uint64(b)
	level := t.L
	for x != 0 {
		x >>= 1
		level--
	}
	return level
}

// reverseBits reverses the low n bits of v.
func reverseBits(v uint64, n int) uint64 {
	var r uint64
	for i := 0; i < n; i++ {
		r = (r << 1) | (v & 1)
		v >>= 1
	}
	return r
}

// TestTreeBitsMatchLoops proves BucketLevel, CommonLevel and EvictPathFor
// equal the loops they replaced on every input of every tree with L <= 16.
// CommonLevel reads only a XOR b, so pairing every path with path 0 and
// with the last path covers every value of that XOR twice.
func TestTreeBitsMatchLoops(t *testing.T) {
	for L := 0; L <= 16; L++ {
		tr := Tree{L: L}
		for b := int64(0); b < tr.Buckets(); b++ {
			if got, want := tr.BucketLevel(b), loopBucketLevel(b); got != want {
				t.Fatalf("L=%d: BucketLevel(%d) = %d, want %d", L, b, got, want)
			}
		}
		last := PathID(tr.Leaves() - 1)
		for a := PathID(0); a <= last; a++ {
			for _, b := range []PathID{0, last} {
				if got, want := tr.CommonLevel(a, b), loopCommonLevel(tr, a, b); got != want {
					t.Fatalf("L=%d: CommonLevel(%d, %d) = %d, want %d", L, a, b, got, want)
				}
			}
			// Past one full cycle too: EvictPathFor reduces g mod 2^L.
			for _, g := range []int64{int64(a), int64(a) + 5*tr.Leaves()} {
				want := PathID(reverseBits(uint64(g)&uint64(last), L))
				if got := tr.EvictPathFor(g); got != want {
					t.Fatalf("L=%d: EvictPathFor(%d) = %d, want %d", L, g, got, want)
				}
			}
		}
	}
}

func TestReverseBits(t *testing.T) {
	cases := []struct {
		v    uint64
		n    int
		want uint64
	}{
		{0b001, 3, 0b100},
		{0b110, 3, 0b011},
		{0b1, 1, 0b1},
		{0, 5, 0},
		{0b10110, 5, 0b01101},
	}
	for _, c := range cases {
		if got := reverseBits(c.v, c.n); got != c.want {
			t.Errorf("reverseBits(%b, %d) = %b, want %b", c.v, c.n, got, c.want)
		}
	}
}

func TestNewTreePanicsOnZeroLevels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTree(0) did not panic")
		}
	}()
	NewTree(0)
}
