package oram

import (
	"encoding/binary"
	"fmt"

	"stringoram/internal/config"
	"stringoram/internal/rng"
)

// RecursiveRing is a Ring ORAM controller whose position map is itself
// stored in recursively smaller Ring ORAMs, as in hardware ORAM
// controllers where on-chip storage cannot hold a flat map (Path ORAM
// CCS'13 §4, Ren et al. ISCA'13). The paper's evaluation keeps the map
// on-chip (Table III), so this type is an extension: it quantifies what
// recursion would add and makes the library usable at position-map sizes
// the paper's setting cannot hold on chip.
//
// Layout: a position-map block packs fanout = BlockSize/8 leaf labels.
// Map ORAM k stores the labels of the blocks of level k-1 (level 0 being
// the data tree); levels shrink by fanout until the label table fits
// OnChipCutoff entries, which live in plain controller memory.
//
// Every logical access costs one ORAM access per map level (a single
// read-modify-write Update each) plus the data access; all their
// operations are returned in issue order, smallest map first — exactly
// the sequence a secure processor would emit.
type RecursiveRing struct {
	data *Ring
	maps []*Ring // maps[0] covers data blocks; maps[k] covers maps[k-1] blocks

	capacity int64 // data blocks addressable
	fanout   int64
	onChip   map[BlockID]PathID `oramlint:"secret"` // labels of maps[len(maps)-1] blocks
	src      *rng.Source

	// Per-access scratch: the recursion depth is fixed at construction,
	// so the ops list, index chain, and fresh-label list are allocated
	// once and reused. Returned ops alias opsBuf (and each ring's own
	// scratch) and are valid until the next Access.
	opsBuf   []Op
	chain    []BlockID `oramlint:"secret"`
	newLabel []PathID

	// updFn is the label read-modify-write callback, bound once so map
	// walks do not allocate a closure per level. updSlot/updLabel are its
	// inputs, updOut/updKnown its outputs for the current level.
	updFn    func(cur []byte) []byte
	updSlot  int
	updLabel PathID
	updOut   PathID
	updKnown bool
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
	// Key is the master key of the map levels' seals: map level k seals
	// under RingKey(Key, k, salt), with a secret salt drawn per
	// RecursiveRing, so nil still seals each level under a key of its
	// own. The data tree seals with the Crypt set on Options.
	Key []byte
}

// NewRecursiveRing builds a recursive controller. opts configures the
// data ring (store, crypt, sampling); map rings always run
// functionally (they must round-trip label bytes) with their own stores.
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
		onChip:   make(map[BlockID]PathID),
		src:      root.Fork(),
	}

	// Build map levels until the label table fits on chip.
	entries, salt := rc.Capacity, NewSalt()
	for entries > cutoff {
		blocks := (entries + rr.fanout - 1) / rr.fanout
		cfg := mapLevelConfig(rc.Data, blocks)
		crypt, err := NewCrypt(RingKey(rc.Key, uint64(len(rr.maps)+1), salt), cfg.BlockSize)
		if err != nil {
			return nil, err
		}
		ring, err := NewRing(cfg, root.Uint64(), &Options{
			Store: NewMemStore(cfg.SlotsPerBucket()),
			Crypt: crypt,
		})
		if err != nil {
			return nil, err
		}
		rr.maps = append(rr.maps, ring)
		entries = blocks
	}
	rr.chain = make([]BlockID, len(rr.maps)+1)
	rr.newLabel = make([]PathID, len(rr.maps)+1)
	rr.updFn = func(cur []byte) []byte {
		rr.updOut, rr.updKnown = getLabel(cur, rr.updSlot)
		setLabel(cur, rr.updSlot, rr.updLabel)
		return cur
	}
	return rr, nil
}

// mapLevelConfig sizes a map ORAM for the given block count: the tree
// provides at least 2x headroom over the blocks it must store, and the
// map levels never use Compact Bucket or warm filling (their content is
// load-bearing).
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

// OnChipEntries returns the current on-chip label-table occupancy.
func (rr *RecursiveRing) OnChipEntries() int { return len(rr.onChip) }

// DataRing exposes the data tree (for statistics).
func (rr *RecursiveRing) DataRing() *Ring { return rr.data }

// MapRing exposes map level k (for statistics).
func (rr *RecursiveRing) MapRing(k int) *Ring { return rr.maps[k] }

// labelSlot locates the map block and intra-block slot holding the label
// of block id at map level k (level 0 labels data blocks).
func (rr *RecursiveRing) labelSlot(id BlockID) (block BlockID, slot int) {
	return BlockID(int64(id) / rr.fanout), int(int64(id) % rr.fanout)
}

// getLabel decodes slot s of a map block. Labels are stored as value+1,
// so a zeroed (never-written) block reads as "unknown".
func getLabel(block []byte, slot int) (PathID, bool) {
	v := binary.LittleEndian.Uint64(block[slot*8:])
	if v == 0 {
		return 0, false
	}
	return PathID(v - 1), true
}

// setLabel encodes a label into slot s of a map block.
func setLabel(block []byte, slot int, p PathID) {
	binary.LittleEndian.PutUint64(block[slot*8:], uint64(p)+1)
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

// Access performs one logical request: one position-map access per
// recursion level (smallest first), then the data access. Each map
// access reads the block holding the next level's label, extracts it,
// and writes back a fresh label for the next access — a single
// read-modify-write ORAM access per level.
//
// The returned data and ops alias controller-owned scratch (including
// the underlying rings') and are valid until the next operation on this
// RecursiveRing.
func (rr *RecursiveRing) Access(id BlockID, write bool, data []byte) ([]byte, []Op, error) {
	if id < 0 || int64(id) >= rr.capacity {
		return nil, nil, fmt.Errorf("oram: block id %d outside recursive capacity %d", id, rr.capacity)
	}
	ops := rr.opsBuf[:0]

	// Index chain: chain[0] = id, chain[k] = map-level-k block holding
	// chain[k-1]'s label.
	chain := rr.chain
	chain[0] = id
	for k := 1; k <= len(rr.maps); k++ {
		chain[k], _ = rr.labelSlot(chain[k-1])
	}

	// Fresh labels for everything we touch.
	newLabel := rr.newLabel
	newLabel[0] = PathID(rr.src.Uint64n(uint64(rr.data.tree.Leaves())))
	for k := 1; k <= len(rr.maps); k++ {
		newLabel[k] = PathID(rr.src.Uint64n(uint64(rr.maps[k-1].tree.Leaves())))
	}

	// The deepest level's label lives on chip.
	if len(rr.maps) > 0 {
		top := len(rr.maps)
		rr.onChip[chain[top]] = newLabel[top]
	}

	// Walk the map chain from the smallest ORAM down to level 1,
	// extracting the next label and installing its replacement.
	var expected PathID
	var expectedKnown bool
	for k := len(rr.maps); k >= 1; k-- {
		ring := rr.maps[k-1]
		_, rr.updSlot = rr.labelSlot(chain[k-1])
		rr.updLabel = newLabel[k-1]
		_, mops, err := ring.UpdateRemapTo(chain[k], newLabel[k], rr.updFn)
		if err != nil {
			rr.opsBuf = ops
			return nil, ops, fmt.Errorf("oram: map level %d: %w", k, err)
		}
		// Appending the Op values is safe: each map ring is touched
		// exactly once per outer access, so its scratch-backed Accesses
		// stay intact until we return.
		ops = append(ops, mops...)
		expected, expectedKnown = rr.updOut, rr.updKnown
	}

	// Cross-check: the label chain must agree with the data ring's own
	// metadata (blocks carry their leaf label in a real system; a
	// mismatch means the recursion desynchronized).
	if len(rr.maps) > 0 && expectedKnown {
		if got, ok := rr.data.PositionOf(id); !ok || got != expected { //oramlint:allow secret-branch consistency cross-check; a mismatch panics the simulation rather than emitting anything
			panic(fmt.Sprintf("oram: recursive map says block %d is on path %d, data ring says %v (known=%v)",
				id, expected, got, ok))
		}
	}

	out, dops, err := rr.data.AccessRemapTo(id, write, data, newLabel[0])
	ops = append(ops, dops...)
	rr.opsBuf = ops
	if err != nil {
		//oramlint:allow scratch-return returned data aliases the data ring's response scratch by the documented API contract: valid until the next operation on this RecursiveRing
		return out, ops, err
	}
	//oramlint:allow scratch-return returned data aliases the data ring's response scratch by the documented API contract: valid until the next operation on this RecursiveRing, callers that retain must copy
	return out, ops, nil
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
