package oram

import "math/bits"

// Tree geometry helpers. Buckets are numbered in heap order: the root is
// bucket 0 at level 0; the bucket at level l with in-level index i has
// global index 2^l - 1 + i; leaves sit at level L. A PathID p (a leaf
// in-level index in [0, 2^L)) passes through in-level index p >> (L-l)
// at level l.

// Tree captures the geometry of an ORAM tree with levels 0..L.
type Tree struct {
	L int // leaf level; the tree has L+1 levels
}

// NewTree returns the geometry for a tree with the given number of levels.
func NewTree(levels int) Tree {
	if levels < 1 {
		panic("oram: tree needs at least one level")
	}
	return Tree{L: levels - 1}
}

// Levels returns the number of levels, L+1.
func (t Tree) Levels() int { return t.L + 1 }

// Buckets returns the total number of buckets, 2^(L+1) - 1.
func (t Tree) Buckets() int64 { return (int64(1) << uint(t.L+1)) - 1 }

// Leaves returns the number of leaves (= number of paths), 2^L.
func (t Tree) Leaves() int64 { return int64(1) << uint(t.L) }

// BucketIndex returns the global (heap-order) index of the bucket at the
// given level along path p.
func (t Tree) BucketIndex(p PathID, level int) int64 {
	inLevel := int64(p) >> uint(t.L-level)
	return (int64(1) << uint(level)) - 1 + inLevel
}

// BucketLevel returns the level of a global bucket index.
func (t Tree) BucketLevel(bucket int64) int {
	// Level l holds indices [2^l - 1, 2^(l+1) - 1), so bucket+1 has l+1 bits.
	return bits.Len64(uint64(bucket)+1) - 1
}

// PathThrough returns an arbitrary path passing through the given bucket
// (the leftmost leaf of its subtree).
func (t Tree) PathThrough(bucket int64) PathID {
	level := t.BucketLevel(bucket)
	inLevel := bucket - ((int64(1) << uint(level)) - 1)
	return PathID(inLevel << uint(t.L-level))
}

// Path returns the global bucket indices along path p from the root
// (level 0) to the leaf (level L), appended to dst.
func (t Tree) Path(p PathID, dst []int64) []int64 {
	for level := 0; level <= t.L; level++ {
		dst = append(dst, t.BucketIndex(p, level))
	}
	return dst
}

// CommonLevel returns the deepest level at which paths a and b share a
// bucket (0 means they only share the root).
func (t Tree) CommonLevel(a, b PathID) int {
	// The paths part ways at the highest bit their leaf indices differ in.
	return t.L - bits.Len64(uint64(a)^uint64(b))
}

// EvictPathFor returns the eviction path for the g-th eviction, following
// Ring ORAM's reverse lexicographic order: the leaf index is the L-bit
// reversal of g mod 2^L. Consecutive eviction paths therefore diverge as
// close to the root as possible, minimizing overlapped buckets.
func (t Tree) EvictPathFor(g int64) PathID {
	m := uint64(g) & (uint64(t.Leaves()) - 1)
	return PathID(bits.Reverse64(m) >> uint(64-t.L))
}
