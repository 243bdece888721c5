package oram

import (
	"fmt"

	"stringoram/internal/config"
	"stringoram/internal/rng"
)

// Path is a Path ORAM controller (Stefanov et al., CCS'13), the baseline
// tree ORAM that Ring ORAM improves on. Every access reads the Z blocks
// of every bucket along the target path and writes the whole path back,
// so the total bandwidth per access is 2*Z*(L+1) blocks, versus Ring
// ORAM's (L+1) + 2*(Z+S)*(L+1)/A amortized.
//
// It is a client of the Ring's eviction machinery: one access is the
// shared core's drain of the requested path, a remap, and the core's
// refill of the same path (plane.go) — Ring ORAM's EvictPath on the
// block's own path instead of the next reverse-lexicographic one. The
// controller exists for the paper's introductory bandwidth comparison
// (Ring ORAM's 2.3-4x overall improvement) and as an independently
// tested substrate.
type Path struct {
	treeCore
}

// NewPath returns a Path ORAM controller with Z-slot buckets over a tree
// with the given number of levels. opts may be nil; only Store and Crypt
// are read (Path ORAM has no dummy selection or treetop data cache).
func NewPath(z, levels, blockSize, stashSize int, seed uint64, opts *Options) (*Path, error) {
	switch {
	case z <= 0:
		return nil, fmt.Errorf("oram: Path Z must be positive, got %d", z)
	case levels < 2 || levels > 40:
		return nil, fmt.Errorf("oram: Path levels must be in [2, 40], got %d", levels)
	case stashSize <= 0:
		return nil, fmt.Errorf("oram: Path stash size must be positive, got %d", stashSize)
	case blockSize <= 0:
		return nil, fmt.Errorf("oram: Path block size must be positive, got %d", blockSize)
	}
	if opts == nil {
		opts = &Options{}
	}
	// A Path ORAM bucket is a Ring bucket with no reserved dummies.
	cfg := config.ORAM{Z: z, Levels: levels, BlockSize: blockSize, StashSize: stashSize}
	if err := checkSlotsPerBucket(cfg.SlotsPerBucket()); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	return &Path{newTreeCore(cfg, opts.Store, opts.Crypt, root.Fork(), root.Fork())}, nil
}

// Read fetches a logical block. The returned data and ops alias
// controller-owned scratch: they are valid until the next operation on
// this Path.
func (p *Path) Read(id BlockID) ([]byte, []Op, error) {
	return p.Access(id, false, nil)
}

// Write stores a logical block. The returned ops are valid until the
// next operation on this Path.
func (p *Path) Write(id BlockID, data []byte) ([]Op, error) {
	_, ops, err := p.Access(id, true, data)
	//oramlint:allow scratch-return the ops list aliases controller scratch by the documented API contract: valid until the next operation on this Path, callers that retain must copy
	return ops, err
}

// Access performs one Path ORAM access: read the whole path into the
// stash, remap the block, write the whole path back greedily. The
// returned data and ops alias controller-owned scratch reused by the
// next operation on this Path: callers that need them longer must copy.
func (p *Path) Access(id BlockID, write bool, data []byte) ([]byte, []Op, error) {
	if id < 0 {
		return nil, nil, fmt.Errorf("oram: negative block id %d", id)
	}
	if write {
		if p.store != nil && len(data) != p.cfg.BlockSize {
			return nil, nil, fmt.Errorf("oram: write of %d bytes, want %d", len(data), p.cfg.BlockSize)
		}
		p.stats.Writes++
	} else {
		p.stats.Reads++
	}

	leaf, known := p.pos.Lookup(id)
	//oramlint:allow secret-branch both arms read one full path: an unmapped block reads a fresh uniform leaf, a mapped one its uniform assigned leaf, indistinguishable on the bus
	if !known {
		leaf = p.pos.RandomPath()
	}
	p.pathBuf = p.tree.Path(leaf, p.pathBuf[:0])
	path := p.pathBuf

	p.scr.ops = p.scr.ops[:0]
	op := takeOp(&p.scr.ops, OpReadPath, leaf)

	// Read phase: all Z slots of every bucket on the path are read, in
	// ascending order, and the reals among them move to the stash.
	for lvl, idx := range path {
		b, _ := p.materialize(idx)
		for s := range p.cfg.SlotsPerBucket() {
			op.Accesses = append(op.Accesses, Access{Bucket: idx, Level: lvl, Slot: s, Write: false})
		}
		p.drainBucket(idx, b)
	}

	newLeaf := p.pos.Remap(id)
	p.remapToStash(id, newLeaf)
	var out []byte
	if write {
		p.stashStore(id, newLeaf, data)
	} else if p.store != nil {
		out = p.snapshotOut(id)
	}

	// Write phase: greedy deepest placement back along the same path.
	p.refillPath(op, leaf, path)

	p.stats.ReadPaths++
	// The read phase is online; the write-back phase is accounted like
	// an eviction so measured online/overall bandwidth split correctly.
	p.stats.ReadPathBlocks += int64(op.Reads())
	p.stats.EvictBlocks += int64(op.Writes())
	if n := int64(p.stash.Len()); n > p.stats.StashPeak { //oramlint:allow secret-branch statistics only, after the op is fully emitted
		p.stats.StashPeak = n
	}
	if p.stash.Len() > p.stash.Cap() { //oramlint:allow secret-branch overflow detection aborts the run after the op is fully emitted; it never alters the trace
		//oramlint:allow scratch-return the ops list aliases controller scratch by the documented API contract: valid until the next operation on this Path
		return nil, p.scr.ops, ErrStashOverflow
	}
	//oramlint:allow scratch-return returned data and ops alias controller scratch by the documented API contract: valid until the next operation on this Path, callers that retain must copy
	return out, p.scr.ops, nil
}

// CheckInvariants verifies Path ORAM's location invariant for tests.
func (p *Path) CheckInvariants() error { return p.checkLocations() }
