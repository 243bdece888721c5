package oram

import "stringoram/internal/rng"

// PositionMap maps every logical block to the path it is (or will be)
// stored on. In a hardware controller this is an on-chip table (possibly
// itself recursively ORAM-protected); the simulator models it as a flat
// map inside the secure boundary.
//
// Blocks are materialized lazily: the first access to an unmapped block
// assigns it a uniformly random path, modeling an ORAM whose tree starts
// empty and fills as the program touches memory.
type PositionMap struct {
	m      map[BlockID]PathID `oramlint:"secret"`
	leaves int64
	src    *rng.Source
}

// NewPositionMap returns an empty position map over the given number of
// leaves, drawing path assignments from src.
func NewPositionMap(leaves int64, src *rng.Source) *PositionMap {
	return &PositionMap{m: make(map[BlockID]PathID), leaves: leaves, src: src}
}

// Lookup returns the block's current path. known is false when the block
// has never been accessed.
func (pm *PositionMap) Lookup(id BlockID) (path PathID, known bool) {
	p, ok := pm.m[id]
	return p, ok
}

// Remap assigns the block a fresh uniformly random path and returns it.
func (pm *PositionMap) Remap(id BlockID) PathID {
	p := PathID(pm.src.Uint64n(uint64(pm.leaves)))
	pm.m[id] = p
	return p
}

// Set records an explicit mapping (used by tree warming, where a block's
// placement determines its path rather than the other way around).
func (pm *PositionMap) Set(id BlockID, path PathID) {
	pm.m[id] = path
}

// RandomPath returns a uniformly random path without touching the map
// (used by dummy read paths).
func (pm *PositionMap) RandomPath() PathID {
	return PathID(pm.src.Uint64n(uint64(pm.leaves)))
}

// ForEach visits every mapping.
func (pm *PositionMap) ForEach(fn func(id BlockID, path PathID)) {
	for id, p := range pm.m {
		fn(id, p) //oramlint:allow maprange visit order is unspecified by contract; order-sensitive callers must collect and sort (see Ring.Save)
	}
}
