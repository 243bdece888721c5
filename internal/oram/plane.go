package oram

import (
	"fmt"
	"math/bits"
	"slices"

	"stringoram/internal/config"
	"stringoram/internal/invariant"
	"stringoram/internal/rng"
)

// The tree-ORAM core. Ring ORAM and Path ORAM keep the same things — a
// bucket tree, a position map, a stash, an untrusted store behind a
// sealer — and move blocks the same way: a bucket's resident reals drain
// into the stash, stash blocks are placed back along a path as deep as
// their own paths allow, and a refilled bucket is rewritten whole under a
// fresh permutation. Path ORAM's access is exactly Ring ORAM's EvictPath
// run on the requested path, so both controllers embed treeCore and keep
// only what differs: which slots an operation *reports* reading, the
// Ring's read path with its dummy selection, and each one's Stats.
//
// Every decision the protocols make — which paths to read, which slots to
// touch, how buckets reshuffle, where the RNG streams advance — is
// metadata-only and never depends on block contents; the methods here
// carry out the block movement those decisions imply, between the store,
// the stash and the treetop cache. A refill seals a whole bucket under the
// nonce of its position (Crypt) into the store (writeBucket), or, at a
// cached level, keeps its plaintext in the treetop cache, the bucket's
// one home.

// treeScratch groups the buffers the core reuses across accesses so the
// steady-state data plane allocates nothing. Everything here is owned by
// the controller's single goroutine; slices handed to the caller (the ops
// list, the returned data) alias these fields and stay valid only until
// the next operation on the same controller. Fields holding plaintext
// block contents are tagged secret like the stash they mirror.
type treeScratch struct {
	// ops is the operation list one access builds and returns. Op entries
	// are reused index-for-index, so each index's Accesses backing array
	// survives across accesses.
	ops []Op `oramlint:"scratch"`
	// outBuf carries the plaintext handed back to the caller.
	outBuf []byte `oramlint:"secret,scratch"`
	// sealBuf receives a refilled bucket's body, sealed in place on its
	// way into the store; stores copy (see Store), so one buffer serves
	// every write.
	sealBuf []byte `oramlint:"scratch"`
	// srcs is a refill's plaintext per physical slot, nil for the zero
	// block; sized once to the geometry's slots per bucket, and all nil
	// between refills.
	srcs [][]byte `oramlint:"secret,scratch"`
	// blockPool recycles plaintext block buffers circulating between the
	// store, the stash and the controller.
	blockPool [][]byte `oramlint:"secret,scratch"`
	// shuf is the reshuffle scratch.
	shuf shuffleScratch
	// readSlots and blocks list the slots one bucket drain read and the
	// blocks it moved.
	readSlots []int
	blocks    []BlockID `oramlint:"secret,scratch"`
	// byLevel and placed are the placement tables, one slot per tree
	// level.
	byLevel [][]BlockID `oramlint:"secret"`
	placed  [][]BlockID `oramlint:"secret"`
}

// treeCore is the state and data movement shared by the Ring and Path
// controllers (see the file comment). It is not safe for concurrent use.
type treeCore struct {
	// cfg is the geometry: Z, SlotsPerBucket, Levels, BlockSize,
	// StashSize and TreeTopCacheLevels are what the core reads. A Path
	// ORAM bucket is a Ring bucket with no reserved dummies (S = Y = 0).
	cfg  config.ORAM
	tree Tree
	// slots is cfg.SlotsPerBucket(): the width of every ID run.
	slots int

	pos   *PositionMap
	stash *Stash
	// buckets maps the heap-order index of every bucket touched so far
	// to 1 + the position of its record in meta.
	buckets table[int32]
	// meta holds the bucket records, metaChunk to a chunk, in the order
	// the buckets were first touched; ids holds the buckets' slot-ID
	// runs, runChunk runs of SlotsPerBucket IDs to a chunk, in the order
	// the buckets were first written (nRuns so far). Both slabs are
	// pointer-free and their chunks never move, so a *Bucket or a run
	// stays valid while the slabs grow.
	meta  [][]Bucket
	ids   [][]BlockID `oramlint:"secret"`
	nRuns int32

	store Store
	crypt *Crypt

	permSrc *rng.Source // bucket permutations
	stats   Stats

	// tt is the treetop data cache, attached to every Ring with a Store
	// (nil without one, for Path ORAM, or with no cached levels); see
	// treetop.go.
	tt *treetopCache

	pathBuf []int64 // scratch for path walks
	scr     treeScratch
}

// newTreeCore builds the shared controller state: the one constructor
// behind NewRing, NewPath and Load.
func newTreeCore(cfg config.ORAM, store Store, crypt *Crypt, permSrc, posSrc *rng.Source) treeCore {
	tree := NewTree(cfg.Levels)
	return treeCore{
		cfg:     cfg,
		tree:    tree,
		slots:   cfg.SlotsPerBucket(),
		pos:     NewPositionMap(tree.Leaves(), int64(cfg.Z)*tree.Buckets(), posSrc),
		stash:   NewStash(cfg.StashSize),
		buckets: newTable[int32](denseBound),
		store:   store,
		crypt:   crypt,
		permSrc: permSrc,
		scr:     treeScratch{srcs: make([][]byte, cfg.SlotsPerBucket())},
	}
}

// Stats returns a snapshot of the protocol counters.
func (c *treeCore) Stats() Stats { return c.stats }

// StashLen returns the current stash occupancy in blocks.
func (c *treeCore) StashLen() int { return c.stash.Len() }

// The slab chunk sizes, powers of two so a position splits into chunk
// and offset by shift and mask: a chunk holds 1,024 bucket records (32
// KiB) or 256 ID runs (24 KiB at the serving geometry's 12 slots), which
// bounds each slab's unused tail.
const (
	metaShift = 10
	metaChunk = 1 << metaShift
	runShift  = 8
	runChunk  = 1 << runShift
)

// lookup returns the bucket at the given global index, nil if it was
// never touched.
func (c *treeCore) lookup(idx int64) *Bucket {
	if i := c.buckets.get(idx); i != 0 {
		return c.record(i - 1)
	}
	return nil
}

// record returns the bucket record at slab position pos.
func (c *treeCore) record(pos int32) *Bucket {
	return &c.meta[pos>>metaShift][pos&(metaChunk-1)]
}

// materialize returns the bucket at the given global index, creating a
// fresh all-dummy bucket on first touch (reported by fresh).
func (c *treeCore) materialize(idx int64) (b *Bucket, fresh bool) {
	if b = c.lookup(idx); b != nil {
		return b, false
	}
	n := int32(c.buckets.len())
	if n&(metaChunk-1) == 0 {
		c.meta = append(c.meta, make([]Bucket, metaChunk))
	}
	c.buckets.set(idx, n+1)
	b = c.record(n)
	*b = newBucket(c.slots)
	return b, true
}

// eachBucket visits every touched bucket in ascending index order.
func (c *treeCore) eachBucket(fn func(idx int64, b *Bucket)) {
	c.buckets.ascending(func(idx int64, i int32) { fn(idx, c.record(i-1)) })
}

// run returns bucket b's slot-ID run, nil while it has none: a bucket
// whose IDs were never written, every one of them reading 0. Such a
// bucket has no real slot, so the methods that look an ID up by a real
// slot never index a nil run.
func (c *treeCore) run(b *Bucket) []BlockID {
	if b.run == 0 {
		return nil
	}
	return c.runAt(b.run - 1)
}

// ownRun returns bucket b's slot-ID run, first giving it one (every ID
// 0) if it has none: the step before a bucket's first ID write.
func (c *treeCore) ownRun(b *Bucket) []BlockID {
	if b.run == 0 {
		if c.nRuns&(runChunk-1) == 0 {
			c.ids = append(c.ids, make([]BlockID, runChunk*c.slots))
		}
		c.nRuns++
		b.run = c.nRuns
	}
	return c.runAt(b.run - 1)
}

// runAt returns the run at slab position pos, its capacity ending at the
// run so that an append cannot reach the next one.
func (c *treeCore) runAt(pos int32) []BlockID {
	off := int(pos&(runChunk-1)) * c.slots
	return c.ids[pos>>runShift][off : off+c.slots : off+c.slots]
}

// findBlock returns the slot of bucket b holding the given block, or -1,
// reaching for the bucket's run only when it has a resident block: on a
// read path through a sparsely filled tree most buckets have none.
func (c *treeCore) findBlock(b *Bucket, id BlockID) int {
	if b.residents() == 0 {
		return -1
	}
	return b.findBlock(c.run(b), id)
}

// emitFrom returns the first tree level that generates DRAM traffic;
// levels above it are held in the on-chip tree-top cache.
func (c *treeCore) emitFrom() int { return c.cfg.TreeTopCacheLevels }

// getBlockBuf returns a BlockSize plaintext buffer from the recycle pool,
// allocating only when the pool is dry.
func (c *treeCore) getBlockBuf() []byte {
	if n := len(c.scr.blockPool); n > 0 {
		buf := c.scr.blockPool[n-1]
		c.scr.blockPool[n-1] = nil
		c.scr.blockPool = c.scr.blockPool[:n-1]
		return buf
	}
	return make([]byte, c.cfg.BlockSize)
}

// putBlockBuf returns a plaintext buffer to the recycle pool. nil and
// foreign-sized buffers are dropped, so callers can pass any displaced
// slice unconditionally.
func (c *treeCore) putBlockBuf(buf []byte) {
	if cap(buf) < c.cfg.BlockSize {
		return
	}
	c.scr.blockPool = append(c.scr.blockPool, buf[:c.cfg.BlockSize])
}

// readSlot is the one way a slot read reaches the store: it lists the
// read of (idx, slot) in op at the levels that emit (see emitFrom) and
// issues it, so the store sees exactly the op list. It returns the
// store's sealed bytes (owned by the store; see Store), nil in
// timing-only mode and at a cached bucket. A dummy's bytes are discarded
// unopened; fetchToStash opens a real block's.
func (c *treeCore) readSlot(op *Op, idx int64, level, slot int) []byte {
	if level >= c.emitFrom() {
		op.Accesses = append(op.Accesses, Access{Bucket: idx, Level: level, Slot: slot, Write: false})
	}
	if c.store == nil || c.tt.cached(idx) {
		return nil
	}
	return c.store.ReadSlot(idx, slot)
}

// fetchToStash reads slot of bucket b (at idx, level) through readSlot,
// moves the real block it holds into the stash under the block's mapped
// path, consumes the slot and returns the block.
func (c *treeCore) fetchToStash(op *Op, idx int64, level int, b *Bucket, slot int) BlockID {
	sealed := c.readSlot(op, idx, level, slot)
	id := b.consumeReal(c.run(b), slot)
	p, known := c.pos.Lookup(id)
	//oramlint:allow secret-branch consistency check after the read is listed; an unmapped resident block panics the simulation rather than emitting anything
	if !known {
		panic(fmt.Sprintf("oram: resident block %d unmapped", id))
	}
	var buf []byte
	switch {
	case c.store == nil:
	case c.tt.cached(idx):
		// Treetop elision: every access's path crosses every cached
		// level, so serving those uniform per-level operations from
		// controller memory instead of the bus is invisible to the
		// adversary; the branch keys on the public bucket index.
		buf = c.ttFetch(idx, slot)
	default:
		buf = c.openSlot(sealed, idx, b.Epoch, slot)
	}
	c.putBlockBuf(c.stash.Put(id, p, buf))
	return id
}

// openSlot opens the sealed bytes of slot (bucket, slot), last written
// in the bucket's reshuffle epoch, into a pool buffer whose ownership
// passes to the caller. nil, a bucket never written, opens to the zero
// block.
func (c *treeCore) openSlot(sealed []byte, bucket int64, epoch, slot int) []byte {
	buf := c.getBlockBuf()
	switch {
	case sealed == nil:
		clear(buf)
	case len(sealed) != len(buf):
		panic(fmt.Sprintf("oram: bucket %d slot %d holds %d bytes, want %d", bucket, slot, len(sealed), len(buf))) // corrupt store contents; unreachable with MemStore
	case c.crypt != nil:
		c.crypt.cryptAt(buf, sealed, bucket, epoch, slot)
	default:
		copy(buf, sealed)
	}
	return buf
}

// writeBucket rewrites every slot of bucket idx in the store: srcs holds
// one plaintext per physical slot, nil for the zero block. The slots are
// laid out back to back in the seal scratch and, with a Crypt, sealed
// there in one pass under the nonce of (idx, epoch), real and dummy slots
// alike, so no stored byte depends on anything but the plaintexts and
// the bucket's public position. Without one, slots hold the raw block.
func (c *treeCore) writeBucket(idx int64, epoch int, srcs [][]byte) {
	bs, n := c.cfg.BlockSize, len(srcs)*c.cfg.BlockSize
	buf := ensure(c.scr.sealBuf, n+gcmTagSize)[:n]
	c.scr.sealBuf = buf
	for s, src := range srcs {
		if src != nil {
			copy(buf[s*bs:], src)
		} else {
			clear(buf[s*bs : (s+1)*bs])
		}
	}
	if c.crypt != nil {
		if invariant.Enabled {
			invariant.Assertf(uint64(idx) < 1<<nonceBucketBits && uint64(epoch) < 1<<nonceEpochBits,
				"bucket %d epoch %d overflows the %d-bit nonce bucket or %d-bit epoch field", idx, epoch, nonceBucketBits, nonceEpochBits)
		}
		c.crypt.sealBucket(buf, idx, epoch)
	}
	for s := range srcs {
		c.store.WriteSlot(idx, s, buf[s*bs:(s+1)*bs])
	}
}

// stashStore copies caller data into the stash under (id, p), recycling
// any displaced buffer.
func (c *treeCore) stashStore(id BlockID, p PathID, data []byte) {
	var stored []byte
	if c.store != nil {
		stored = c.getBlockBuf()
		copy(stored, data)
	}
	c.putBlockBuf(c.stash.Put(id, p, stored))
}

// snapshotOut captures the block's current contents into the response
// scratch and returns it.
func (c *treeCore) snapshotOut(id BlockID) []byte {
	cur := c.stash.Get(id)
	out := ensure(c.scr.outBuf, c.cfg.BlockSize)
	c.scr.outBuf = out
	if cur == nil {
		clear(out)
	} else {
		copy(out, cur)
	}
	return out
}

// remapToStash is the remap-on-access step between an access's read and
// write phases: the block takes newPath and logically lives in the stash
// (materialized empty on its first-ever access) until a write phase
// places it back into the tree.
func (c *treeCore) remapToStash(id BlockID, newPath PathID) {
	if !c.stash.Contains(id) {
		c.stash.Put(id, newPath, nil)
	}
	c.stash.SetPath(id, newPath)
}

// placeOnPath assigns stash blocks to the buckets of path p, deepest-
// first, at most Z per bucket: a stash block with assigned path q may sit
// at any level <= CommonLevel(p, q). It returns one ID slice per level;
// the slices alias per-level scratch reused by the next placement.
// Whatever still carries past the root stays in the stash.
func (c *treeCore) placeOnPath(p PathID) [][]BlockID {
	levels := c.tree.Levels()
	byLevel := c.scr.byLevel
	if cap(byLevel) < levels {
		byLevel = make([][]BlockID, levels)
	}
	byLevel = byLevel[:levels]
	for i := range byLevel {
		byLevel[i] = byLevel[i][:0]
	}
	for i := range c.stash.entries {
		e := &c.stash.entries[i]
		lvl := c.tree.CommonLevel(p, e.path)
		byLevel[lvl] = append(byLevel[lvl], e.id)
	}
	// The stash's entry order depends on its insert/remove history, which
	// a checkpoint does not carry; sort so a restored controller places
	// exactly as the original would.
	for _, ids := range byLevel {
		slices.Sort(ids)
	}
	placed := c.scr.placed
	if cap(placed) < levels {
		placed = make([][]BlockID, levels)
	}
	placed = placed[:levels]
	var carry []BlockID
	for lvl := levels - 1; lvl >= 0; lvl-- {
		pool := append(byLevel[lvl], carry...)
		byLevel[lvl] = pool // keep the grown capacity for next time
		n := len(pool)
		if n > c.cfg.Z {
			n = c.cfg.Z
		}
		placed[lvl] = pool[:n]
		carry = pool[n:]
	}
	c.scr.byLevel = byLevel
	c.scr.placed = placed
	return placed
}

// refillPath is the write phase of an eviction along p, root to leaf:
// stash blocks are placed as deep as they can go and every bucket on the
// path is rewritten. The read phase on the same path comes first, so
// every bucket on it is already materialized.
func (c *treeCore) refillPath(op *Op, p PathID, path []int64) {
	placed := c.placeOnPath(p)
	for lvl, idx := range path {
		c.refillBucket(op, idx, lvl, c.lookup(idx), placed[lvl])
	}
}

// refillBucket rewrites one bucket with the given stash blocks (at most
// Z) under a fresh permutation and fresh metadata: every physical slot is
// written, real slots with re-sealed data and the rest with fresh dummy
// ciphertext, in ascending physical order so the data plane sees a
// deterministic seal sequence. The blocks leave the stash.
func (c *treeCore) refillBucket(op *Op, idx int64, level int, b *Bucket, ids []BlockID) {
	if invariant.Enabled {
		invariant.Assertf(len(ids) <= c.cfg.Z, "bucket %d refilled with %d real blocks, Z=%d", idx, len(ids), c.cfg.Z)
	}
	targets := b.reshuffleScratch(c.ownRun(b), ids, c.permSrc, &c.scr.shuf)
	srcs := c.scr.srcs
	//oramlint:allow secret-branch moves each placed block's plaintext into its slot's source and emits nothing; the bucket write and the accesses below cover every slot whatever the count
	for i, id := range ids {
		srcs[targets[i]] = c.stash.Remove(id)
	}
	if c.store != nil {
		// Treetop elision: the eviction rewrites every slot of every
		// bucket on its path regardless of contents, so absorbing the
		// cached levels' uniform writes into controller memory changes
		// no bus-visible behaviour; the bucket index is public.
		if c.tt.cached(idx) {
			c.ttWriteBucket(idx, srcs)
		} else {
			c.writeBucket(idx, b.Epoch, srcs)
		}
	}
	if level >= c.emitFrom() {
		for s := range c.cfg.SlotsPerBucket() {
			op.Accesses = append(op.Accesses, Access{Bucket: idx, Level: level, Slot: s, Write: true})
		}
	}
	// The plaintext was sealed into the store or copied into the cache;
	// recycle the buffers.
	//oramlint:allow secret-branch recycles each placed block's buffer after the bucket write and emits nothing; the accesses above already covered every slot
	for _, s := range targets {
		c.putBlockBuf(srcs[s])
		srcs[s] = nil
	}
}

// checkLocations verifies that every valid real slot holds a mapped block
// on a path through that bucket and resident nowhere else, that every
// stashed block is stashed under its mapped path, and that every mapped
// block is resident somewhere.
func (c *treeCore) checkLocations() error {
	var err error
	resident := make(map[BlockID]int64) // block -> the bucket holding it
	c.eachBucket(func(idx int64, b *Bucket) {
		ids := c.run(b)
		for m := b.residents(); m != 0 && err == nil; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			id := ids[s]
			p, mapped := c.pos.Lookup(id)
			prev, twice := resident[id]
			switch {
			case !mapped:
				err = fmt.Errorf("oram: bucket %d slot %d holds block %d, which is unmapped", idx, s, id)
			case c.tree.BucketIndex(p, c.tree.BucketLevel(idx)) != idx:
				err = fmt.Errorf("oram: block %d (path %d) resident in bucket %d (level %d), off its path", id, p, idx, c.tree.BucketLevel(idx))
			case twice:
				err = fmt.Errorf("oram: block %d resident in buckets %d and %d", id, prev, idx)
			case c.stash.Contains(id):
				err = fmt.Errorf("oram: block %d resident in bucket %d and in the stash", id, idx)
			}
			resident[id] = idx
		}
	})
	c.stash.ForEach(func(id BlockID, sp PathID) {
		if p, mapped := c.pos.Lookup(id); err == nil && (!mapped || p != sp) {
			err = fmt.Errorf("oram: block %d stashed under path %d, mapped to %d (mapped: %v)", id, sp, p, mapped)
		}
	})
	c.pos.ForEach(func(id BlockID, p PathID) {
		if _, ok := resident[id]; err == nil && !ok && !c.stash.Contains(id) {
			err = fmt.Errorf("oram: block %d (path %d) is mapped but resident nowhere", id, p)
		}
	})
	return err
}
