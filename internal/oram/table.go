package oram

import (
	"math/bits"
	"slices"
)

// denseBound caps the directly indexed range of every table: 2^17 keys,
// so no table's index exceeds 1 MiB however large a key it is handed. It
// covers every bucket of a 17-level tree — the serving geometries are
// 12-16 levels — and as many block ids. The simulator's 24-level tree
// keeps its top 17 levels dense and its deep, sparsely touched levels in
// the map: at 2^20 two concurrent short-lived Rings of that geometry
// raised `stringoram all -scale full` from ~100 to ~175 MiB peak RSS
// (DESIGN.md, "Data-plane internals").
const denseBound = 1 << 17

// table maps int64 keys to values, the zero value standing for "absent".
// It is the keyed index of the access path — bucket metadata, store
// buckets, the position map — where the keys are small dense integers
// (heap-order bucket indices, block ids counted up from zero) and a hash
// map spends more time hashing than the protocol spends on the entry.
//
// One rule places a key, and it reads only the key: keys in [0, bound)
// are indexed directly, every other key — the deep levels of a huge
// tree, a wild trace address — lives in a map behind the same two
// methods. (The warm-fill filler ids, which start at FillerBase, have a
// table of their own in PositionMap, keyed from zero.) The direct range
// is cut into pages of pageSize keys, and a page is allocated when the
// first key in it is set, so a table costs memory in proportion to the
// stretches of keys it holds, not to the largest key it has been handed:
// a simulator run's few dozen program ids below the bound sit in a
// handful of pages, not in one slice spanning them all. The first page
// grows to the next power of two above its largest key, so a table whose
// keys stay small costs no more than that.
type table[V comparable] struct {
	pages  [][]V // page p holds keys [p*pageSize, p*pageSize+len(pages[p]))
	sparse map[int64]V
	bound  int64
	nDense int // keys present in pages
}

// pageShift sizes a table page: 4,096 keys, 32 KiB of int64 values, so
// the bucket index of a 12-level tree is one page.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// newTable returns an empty table that indexes keys in [0, bound)
// directly; bound is clamped to denseBound.
func newTable[V comparable](bound int64) table[V] {
	bound = min(bound, denseBound)
	return table[V]{pages: make([][]V, (bound+pageSize-1)>>pageShift), bound: bound}
}

// get returns the value stored under k, or the zero value.
func (t *table[V]) get(k int64) V {
	if uint64(k) < uint64(t.bound) {
		if pg, i := t.pages[k>>pageShift], k&(pageSize-1); i < int64(len(pg)) {
			return pg[i]
		}
		var absent V
		return absent // inside the direct range, past what its page holds
	}
	return t.sparse[k]
}

// set stores a non-zero v under k.
func (t *table[V]) set(k int64, v V) {
	if uint64(k) >= uint64(t.bound) {
		if t.sparse == nil {
			t.sparse = make(map[int64]V)
		}
		t.sparse[k] = v
		return
	}
	p, i := k>>pageShift, k&(pageSize-1)
	pg := t.pages[p]
	if i >= int64(len(pg)) {
		n := min(pageSize, t.bound-p<<pageShift) // the last page ends at bound
		if p == 0 {
			n = min(int64(1)<<bits.Len64(uint64(i)), n)
		}
		grown := make([]V, n)
		copy(grown, pg)
		pg = grown
		t.pages[p] = pg
	}
	var absent V
	if pg[i] == absent {
		t.nDense++
	}
	pg[i] = v
}

// len returns the number of keys present.
func (t *table[V]) len() int { return t.nDense + len(t.sparse) }

// ascending visits every present key in ascending key order. (Keys are
// never negative where they are set: bucket indices and block ids are
// checked at the API and by Load.)
func (t *table[V]) ascending(fn func(k int64, v V)) {
	var absent V
	for p, pg := range t.pages {
		for i, v := range pg {
			if v != absent {
				fn(int64(p)<<pageShift|int64(i), v)
			}
		}
	}
	keys := make([]int64, 0, len(t.sparse))
	for k := range t.sparse {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fn(k, t.sparse[k])
	}
}
