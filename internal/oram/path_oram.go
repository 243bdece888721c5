package oram

import (
	"fmt"
	"slices"

	"stringoram/internal/rng"
)

// Path is a Path ORAM controller (Stefanov et al., CCS'13), the baseline
// tree ORAM that Ring ORAM improves on. Every access reads the Z blocks
// of every bucket along the target path and writes the whole path back,
// so the total bandwidth per access is 2*Z*(L+1) blocks, versus Ring
// ORAM's (L+1) + 2*(Z+S)*(L+1)/A amortized.
//
// The implementation exists for the paper's introductory bandwidth
// comparison (Ring ORAM's 2.3-4x overall and, with the XOR technique,
// >60x online improvement) and as an independently tested substrate.
type Path struct {
	z      int
	levels int
	block  int

	tree    Tree
	pos     *PositionMap
	stash   *Stash
	buckets map[int64]*Bucket

	store Store
	crypt *Crypt

	permSrc *rng.Source
	stats   Stats

	pathBuf []int64
	// scr reuses the Ring controller's scratch layout; the XOR and
	// dummy-selection fields stay unused (Path ORAM has neither).
	scr ringScratch
}

// NewPath returns a Path ORAM controller with Z-slot buckets over a tree
// with the given number of levels. opts may be nil; XOR and
// OnStashSample are ignored (Path ORAM has no dummy selection).
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
	root := rng.New(seed)
	p := &Path{
		z: z, levels: levels, block: blockSize,
		tree:    NewTree(levels),
		stash:   NewStash(stashSize),
		buckets: make(map[int64]*Bucket),
		store:   opts.Store,
		crypt:   opts.Crypt,
		permSrc: root.Fork(),
	}
	p.pos = NewPositionMap(p.tree.Leaves(), root.Fork())
	return p, nil
}

// Stats returns a snapshot of the protocol counters.
func (p *Path) Stats() Stats { return p.stats }

// StashLen returns the current stash occupancy.
func (p *Path) StashLen() int { return p.stash.Len() }

func (p *Path) bucket(idx int64) *Bucket {
	b, ok := p.buckets[idx]
	if !ok {
		b = newBucket(p.z)
		p.buckets[idx] = b
	}
	return b
}

// getBlockBuf and putBlockBuf mirror Ring's plaintext-buffer recycling.
func (p *Path) getBlockBuf() []byte {
	if n := len(p.scr.blockPool); n > 0 {
		buf := p.scr.blockPool[n-1]
		p.scr.blockPool[n-1] = nil
		p.scr.blockPool = p.scr.blockPool[:n-1]
		return buf
	}
	return make([]byte, p.block)
}

func (p *Path) putBlockBuf(buf []byte) {
	if cap(buf) < p.block {
		return
	}
	p.scr.blockPool = append(p.scr.blockPool, buf[:p.block])
}

// sealedForStore seals (or copies) plaintext into the seal scratch; nil
// means dummy. Valid until the next seal — stores copy (see Store).
func (p *Path) sealedForStore(plaintext []byte) []byte {
	if p.crypt != nil {
		p.scr.sealBuf = p.crypt.SealInto(p.scr.sealBuf, plaintext)
		return p.scr.sealBuf
	}
	if plaintext == nil {
		buf := ensure(p.scr.sealBuf, p.block)
		clear(buf)
		p.scr.sealBuf = buf
		return buf
	}
	buf := ensure(p.scr.sealBuf, len(plaintext))
	copy(buf, plaintext)
	p.scr.sealBuf = buf
	return buf
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
		if p.store != nil && len(data) != p.block {
			return nil, nil, fmt.Errorf("oram: write of %d bytes, want %d", len(data), p.block)
		}
		p.stats.Writes++
	} else {
		p.stats.Reads++
	}

	leaf, known := p.pos.Lookup(id)
	if !known {
		leaf = p.pos.RandomPath()
	}
	p.pathBuf = p.tree.Path(leaf, p.pathBuf[:0])
	path := p.pathBuf

	p.scr.ops = p.scr.ops[:0]
	op := takeOp(&p.scr.ops, OpReadPath, leaf)

	// Read phase: the full path (Z slots per bucket) moves to the stash.
	for lvl, idx := range path {
		b := p.bucket(idx)
		for s := range b.Slots {
			op.Accesses = append(op.Accesses, Access{Bucket: idx, Level: lvl, Slot: s, Write: false})
			if b.Slots[s].Real && b.Slots[s].Valid { //oramlint:allow secret-branch the access was already emitted unconditionally one line up; the branch only moves real contents into the stash
				bid := b.Slots[s].ID
				bp, ok := p.pos.Lookup(bid)
				if !ok {
					panic(fmt.Sprintf("oram: resident block %d unmapped", bid))
				}
				blkData, err := p.readSlotData(idx, s)
				if err != nil {
					panic(err)
				}
				p.putBlockBuf(p.stash.Put(bid, bp, blkData))
				b.consumeReal(s)
			}
		}
	}

	newLeaf := p.pos.Remap(id)
	if !p.stash.Contains(id) { //oramlint:allow secret-branch stash bookkeeping between the fixed read and write phases; neither arm emits accesses
		p.stash.Put(id, newLeaf, nil)
	}
	p.stash.SetPath(id, newLeaf)
	if write {
		var stored []byte
		if p.store != nil {
			stored = p.getBlockBuf()
			copy(stored, data)
		}
		p.putBlockBuf(p.stash.Put(id, newLeaf, stored))
	}
	var out []byte
	if !write && p.store != nil {
		blk := p.stash.Get(id)
		out = ensure(p.scr.outBuf, p.block)
		p.scr.outBuf = out
		if blk == nil {
			clear(out)
		} else {
			copy(out, blk)
		}
	}

	// Write phase: greedy deepest placement back along the same path.
	placed := p.placeForPath(leaf, path)
	for lvl, idx := range path {
		b := p.bucket(idx)
		ids := placed[lvl]
		blockData := p.scr.refs[:0]
		for _, bid := range ids {
			blockData = append(blockData, p.stash.Remove(bid))
		}
		p.scr.refs = blockData
		targets := b.reshuffleScratch(ids, p.permSrc, &p.scr.shuf)
		if p.store != nil {
			owner := p.scr.slotOwner
			if cap(owner) < len(b.Slots) {
				owner = make([]int, len(b.Slots))
			}
			owner = owner[:len(b.Slots)]
			p.scr.slotOwner = owner
			for s := range owner {
				owner[s] = -1
			}
			for i, s := range targets {
				owner[s] = i
			}
			for s := range b.Slots {
				if i := owner[s]; i >= 0 {
					p.store.WriteSlot(idx, s, p.sealedForStore(blockData[i]))
				} else {
					p.store.WriteSlot(idx, s, p.sealedForStore(nil))
				}
			}
		}
		for s := range b.Slots {
			op.Accesses = append(op.Accesses, Access{Bucket: idx, Level: lvl, Slot: s, Write: true})
		}
		for i := range blockData {
			p.putBlockBuf(blockData[i])
			blockData[i] = nil
		}
	}

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

// readSlotData pulls a slot's plaintext into a pool buffer; nil store
// yields nil. Ownership of the returned buffer transfers to the caller.
func (p *Path) readSlotData(bucket int64, slot int) ([]byte, error) {
	if p.store == nil {
		return nil, nil
	}
	sealed := p.store.ReadSlot(bucket, slot)
	buf := p.getBlockBuf()
	if sealed == nil {
		clear(buf)
		return buf, nil
	}
	if p.crypt != nil {
		return p.crypt.OpenInto(buf, sealed)
	}
	buf = ensure(buf, len(sealed))
	copy(buf, sealed)
	return buf, nil
}

// placeForPath assigns stash blocks to path buckets, deepest-first, at
// most Z per bucket. The returned slices alias per-level scratch reused
// by the next access.
func (p *Path) placeForPath(leaf PathID, path []int64) [][]BlockID {
	L := len(path) - 1
	byLevel := p.scr.byLevel
	if cap(byLevel) < L+1 {
		byLevel = make([][]BlockID, L+1)
	}
	byLevel = byLevel[:L+1]
	for i := range byLevel {
		byLevel[i] = byLevel[i][:0]
	}
	for id, e := range p.stash.entries {
		//oramlint:allow maprange CommonLevel is a pure function of (leaf, path) with no side effects, so call order is irrelevant
		lvl := p.tree.CommonLevel(leaf, e.path)
		byLevel[lvl] = append(byLevel[lvl], id) //oramlint:allow maprange entries are bucketed per level and sorted below, so placement is independent of iteration order
	}
	// Keep placement deterministic despite map iteration order.
	for _, ids := range byLevel {
		slices.Sort(ids)
	}
	placed := p.scr.placed
	if cap(placed) < L+1 {
		placed = make([][]BlockID, L+1)
	}
	placed = placed[:L+1]
	var carry []BlockID
	for lvl := L; lvl >= 0; lvl-- {
		pool := append(byLevel[lvl], carry...)
		byLevel[lvl] = pool // keep the grown capacity for next time
		n := len(pool)
		if n > p.z {
			n = p.z
		}
		placed[lvl] = pool[:n]
		carry = pool[n:]
	}
	p.scr.byLevel = byLevel
	p.scr.placed = placed
	return placed
}

// CheckInvariants verifies Path ORAM's location invariant for tests.
func (p *Path) CheckInvariants() error {
	var err error
	p.pos.ForEach(func(id BlockID, leaf PathID) {
		if err != nil {
			return
		}
		locations := 0
		if p.stash.Contains(id) {
			locations++
		}
		for _, idx := range p.tree.Path(leaf, nil) {
			if b, ok := p.buckets[idx]; ok && b.findBlock(id) >= 0 {
				locations++
			}
		}
		if locations != 1 {
			err = fmt.Errorf("oram: path-oram block %d found in %d locations", id, locations)
		}
	})
	return err
}
