package oram

import (
	"fmt"

	"stringoram/internal/config"
	"stringoram/internal/rng"
)

// RecursiveRing models the memory traffic of a Ring ORAM controller whose
// position map is itself stored in recursively smaller Ring ORAMs, as in
// hardware ORAM controllers where on-chip storage cannot hold a flat map
// (Path ORAM CCS'13 §4, Ren et al. ISCA'13). The paper's evaluation keeps
// the map on-chip (Table III), so this type is an extension: it counts
// the read paths and evictions recursion would add to every access.
//
// Layout: a position-map block packs fanout = BlockSize/8 leaf labels.
// Map ORAM k holds the labels of the blocks of level k-1 (level 0 being
// the data tree), so block id's label chain runs through map block
// id / fanout^k at level k; levels shrink by fanout until the label table
// fits OnChipCutoff entries, which a controller keeps on chip.
//
// The map levels are timing-only Rings: each keeps its own position map
// and draws its own remaps, so no label bytes are stored. Every logical
// access costs one write access per map level — on the bus exactly the
// read-modify-write of the label block — plus the data access; all their
// operations are returned in issue order, smallest map first.
type RecursiveRing struct {
	data *Ring
	maps []*Ring // maps[0] covers data blocks; maps[k] covers maps[k-1] blocks

	capacity int64 // data blocks addressable
	fanout   int64

	// opsBuf collects one access's operations; the recursion depth is
	// fixed at construction, so it stops growing after the first access.
	// Returned ops alias it (and each ring's own scratch) and are valid
	// until the next Access.
	opsBuf []Op
}

// RecursiveConfig parameterizes NewRecursiveRing.
type RecursiveConfig struct {
	// Data is the data-tree configuration.
	Data config.ORAM
	// Capacity is the number of addressable data blocks (the position
	// map must be sized up front; IDs must lie in [0, Capacity)).
	Capacity int64
	// OnChipCutoff is the largest label table kept in plain controller
	// memory; smaller values add recursion levels. Zero means 1024.
	OnChipCutoff int64
}

// NewRecursiveRing builds a recursive controller. opts configures the
// data ring (store, crypt, sampling); the map rings are timing-only.
func NewRecursiveRing(rc RecursiveConfig, seed uint64, opts *Options) (*RecursiveRing, error) {
	if rc.Capacity <= 0 {
		return nil, fmt.Errorf("oram: recursive capacity must be positive, got %d", rc.Capacity)
	}
	if rc.Data.BlockSize < 16 {
		return nil, fmt.Errorf("oram: recursive rings need BlockSize >= 16, got %d", rc.Data.BlockSize)
	}
	cutoff := rc.OnChipCutoff
	if cutoff == 0 {
		cutoff = 1024
	}

	root := rng.New(seed)
	data, err := NewRing(rc.Data, root.Uint64(), opts)
	if err != nil {
		return nil, err
	}
	rr := &RecursiveRing{
		data:     data,
		capacity: rc.Capacity,
		fanout:   int64(rc.Data.BlockSize / 8),
	}

	// Build map levels until the label table fits on chip.
	for entries := rc.Capacity; entries > cutoff; {
		blocks := (entries + rr.fanout - 1) / rr.fanout
		ring, err := NewRing(mapLevelConfig(rc.Data, blocks), root.Uint64(), nil)
		if err != nil {
			return nil, err
		}
		rr.maps = append(rr.maps, ring)
		entries = blocks
	}
	return rr, nil
}

// mapLevelConfig sizes a map ORAM for the given block count: the tree
// provides at least 2x headroom over the blocks it must store, and the
// map levels never use Compact Bucket or warm filling.
func mapLevelConfig(base config.ORAM, blocks int64) config.ORAM {
	cfg := base
	cfg.Y = 0
	cfg.WarmFill = 0
	levels := 2
	for (int64(1)<<uint(levels-1))*int64(cfg.Z) < blocks*2 && levels < 40 {
		levels++
	}
	cfg.Levels = levels
	if cfg.TreeTopCacheLevels >= levels {
		cfg.TreeTopCacheLevels = levels / 3
	}
	return cfg
}

// Levels returns the number of recursive map ORAM levels.
func (rr *RecursiveRing) Levels() int { return len(rr.maps) }

// DataRing exposes the data tree (for statistics).
func (rr *RecursiveRing) DataRing() *Ring { return rr.data }

// mapBlock returns the block of map level k that holds the level-(k-1)
// label on block id's chain: id / fanout^k.
func (rr *RecursiveRing) mapBlock(id BlockID, k int) BlockID {
	for ; k > 0; k-- {
		id /= BlockID(rr.fanout)
	}
	return id
}

// Read fetches a data block through the full recursive protocol.
func (rr *RecursiveRing) Read(id BlockID) ([]byte, []Op, error) {
	return rr.Access(id, false, nil)
}

// Write stores a data block through the full recursive protocol.
func (rr *RecursiveRing) Write(id BlockID, data []byte) ([]Op, error) {
	_, ops, err := rr.Access(id, true, data)
	return ops, err
}

// Access performs one logical request: one write access per map level,
// smallest map first, standing for the read-modify-write that fetches
// the next level's label and installs its replacement, then the data
// access.
//
// The returned data and ops alias controller-owned scratch (including
// the underlying rings') and are valid until the next operation on this
// RecursiveRing.
func (rr *RecursiveRing) Access(id BlockID, write bool, data []byte) ([]byte, []Op, error) {
	if id < 0 || int64(id) >= rr.capacity {
		return nil, nil, fmt.Errorf("oram: block id %d outside recursive capacity %d", id, rr.capacity)
	}
	ops := rr.opsBuf[:0]
	for k := len(rr.maps); k >= 1; k-- {
		_, mops, err := rr.maps[k-1].Access(rr.mapBlock(id, k), true, nil)
		if err != nil {
			rr.opsBuf = ops
			return nil, ops, fmt.Errorf("oram: map level %d: %w", k, err)
		}
		// Appending the Op values is safe: each map ring is touched
		// exactly once per outer access, so its scratch-backed Accesses
		// stay intact until we return.
		ops = append(ops, mops...)
	}
	out, dops, err := rr.data.Access(id, write, data)
	rr.opsBuf = append(ops, dops...)
	//oramlint:allow scratch-return returned data aliases the data ring's response scratch by the documented API contract: valid until the next operation on this RecursiveRing, callers that retain must copy
	return out, rr.opsBuf, err
}

// TotalOps sums protocol stats across the data and map rings.
func (rr *RecursiveRing) TotalOps() (readPaths, evicts int64) {
	s := rr.data.Stats()
	readPaths, evicts = s.ReadPaths, s.EvictPaths
	for _, m := range rr.maps {
		ms := m.Stats()
		readPaths += ms.ReadPaths
		evicts += ms.EvictPaths
	}
	return readPaths, evicts
}

// CheckInvariants validates every ring in the hierarchy.
func (rr *RecursiveRing) CheckInvariants() error {
	if err := rr.data.CheckInvariants(); err != nil {
		return fmt.Errorf("data ring: %w", err)
	}
	for k, m := range rr.maps {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("map level %d: %w", k+1, err)
		}
	}
	return nil
}
