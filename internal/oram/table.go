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
// index a slice, every other key — the deep levels of a huge tree, the
// warm-fill filler ids from FillerBase, a wild trace address — lives in
// a map behind the same two methods. The slice grows to the next power
// of two above the largest dense key seen and never past bound, so a
// table costs memory in proportion to the range it was built for, not
// to the largest key it has been handed.
type table[V comparable] struct {
	dense  []V
	sparse map[int64]V
	bound  int64
	nDense int // keys present in dense
}

// newTable returns an empty table that indexes keys in [0, bound)
// directly; bound is clamped to denseBound.
func newTable[V comparable](bound int64) table[V] {
	return table[V]{bound: min(bound, denseBound)}
}

// get returns the value stored under k, or the zero value.
func (t *table[V]) get(k int64) V {
	if uint64(k) < uint64(len(t.dense)) {
		return t.dense[k]
	}
	if uint64(k) < uint64(t.bound) {
		var absent V
		return absent // inside the dense range, beyond what has grown
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
	if k >= int64(len(t.dense)) {
		grown := make([]V, min(int64(1)<<bits.Len64(uint64(k)), t.bound))
		copy(grown, t.dense)
		t.dense = grown
	}
	var absent V
	if t.dense[k] == absent {
		t.nDense++
	}
	t.dense[k] = v
}

// len returns the number of keys present.
func (t *table[V]) len() int { return t.nDense + len(t.sparse) }

// ascending visits every present key in ascending key order. (Keys are
// never negative where they are set: bucket indices and block ids are
// checked at the API and by Load.)
func (t *table[V]) ascending(fn func(k int64, v V)) {
	var absent V
	for k, v := range t.dense {
		if v != absent {
			fn(int64(k), v)
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
