package oram

import "stringoram/internal/rng"

// PositionMap maps every logical block to the path it is (or will be)
// stored on. In a hardware controller this is an on-chip table (possibly
// itself recursively ORAM-protected); here it is two such tables inside
// the secure boundary: program ids index paths, and the warm-fill filler
// ids, counted up from FillerBase, index fillers at id − FillerBase, so
// both start from zero (see table for the ids that fall outside the
// indexed range).
//
// Blocks are materialized lazily: the first access to an unmapped block
// assigns it a uniformly random path, modeling an ORAM whose tree starts
// empty and fills as the program touches memory.
type PositionMap struct {
	// paths holds path+1 per block id below FillerBase, and fillers per
	// id from FillerBase on, so the zero value reads "unmapped".
	paths   table[PathID] `oramlint:"secret"`
	fillers table[PathID] `oramlint:"secret"`
	leaves  int64
	src     *rng.Source
}

// NewPositionMap returns an empty position map over the given number of
// leaves, drawing path assignments from src. capacity is the number of
// real blocks the tree can hold, and so also the most fillers it can be
// warmed with: ids below it, program or filler, are indexed directly.
func NewPositionMap(leaves, capacity int64, src *rng.Source) *PositionMap {
	return &PositionMap{
		paths:   newTable[PathID](capacity),
		fillers: newTable[PathID](capacity),
		leaves:  leaves,
		src:     src,
	}
}

// tableOf returns the table that holds id, and id's key in it.
func (pm *PositionMap) tableOf(id BlockID) (*table[PathID], int64) {
	if id >= FillerBase {
		return &pm.fillers, int64(id - FillerBase)
	}
	return &pm.paths, int64(id)
}

// Lookup returns the block's current path. known is false when the block
// has never been accessed.
func (pm *PositionMap) Lookup(id BlockID) (path PathID, known bool) {
	t, k := pm.tableOf(id)
	p := t.get(k)
	return p - 1, p != 0
}

// Remap assigns the block a fresh uniformly random path and returns it.
func (pm *PositionMap) Remap(id BlockID) PathID {
	p := pm.RandomPath()
	pm.Set(id, p)
	return p
}

// Set records an explicit mapping (used by tree warming, where a block's
// placement determines its path rather than the other way around).
func (pm *PositionMap) Set(id BlockID, path PathID) {
	t, k := pm.tableOf(id)
	t.set(k, path+1)
}

// RandomPath returns a uniformly random path without touching the map
// (used by dummy read paths).
func (pm *PositionMap) RandomPath() PathID {
	return PathID(pm.src.Uint64n(uint64(pm.leaves)))
}

// ForEach visits every mapping in ascending id order: the program ids,
// then the fillers, which all lie above them.
func (pm *PositionMap) ForEach(fn func(id BlockID, path PathID)) {
	pm.paths.ascending(func(id int64, p PathID) { fn(BlockID(id), p-1) })
	pm.fillers.ascending(func(k int64, p PathID) { fn(FillerBase+BlockID(k), p-1) })
}
