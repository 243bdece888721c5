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
// nonce of its position (Crypt), whether it seals the bucket at once
// (writeBucket) or defers to the treetop cache, so the sealed bytes are
// the same either way.

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

	pos   *PositionMap
	stash *Stash
	// buckets holds the metadata of every bucket touched so far, by
	// heap-order index.
	buckets table[*Bucket]

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
		pos:     NewPositionMap(tree.Leaves(), int64(cfg.Z)*tree.Buckets(), posSrc),
		stash:   NewStash(cfg.StashSize),
		buckets: newTable[*Bucket](denseBound),
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

// materialize returns the bucket at the given global index, creating a
// fresh all-dummy bucket on first touch (reported by fresh).
func (c *treeCore) materialize(idx int64) (b *Bucket, fresh bool) {
	b = c.buckets.get(idx)
	if b == nil {
		b = newBucket(c.cfg.SlotsPerBucket())
		c.buckets.set(idx, b)
		fresh = true
	}
	return b, fresh
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

// readSlotData pulls a real block's plaintext out of slot (bucket, slot),
// last written in the bucket's reshuffle epoch, into a pool buffer; nil
// store yields nil (timing-only mode). Ownership of the returned buffer
// transfers to the caller (usually straight into the stash).
func (c *treeCore) readSlotData(bucket int64, epoch, slot int) []byte {
	if c.store == nil {
		return nil
	}
	sealed := c.store.ReadSlot(bucket, slot)
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

// fetchToStash moves one real block's plaintext from the store slot into
// the stash under (id, p); epoch is the bucket's.
func (c *treeCore) fetchToStash(bucket int64, epoch, slot int, id BlockID, p PathID) {
	// Treetop elision: every access's path crosses every cached level,
	// so serving those uniform per-level operations from controller
	// memory instead of the bus is invisible to the adversary (the op
	// trace already excludes cached levels); the branch keys on the
	// bucket index, which the emitted op list makes public.
	if c.tt.cached(bucket) {
		c.ttFetch(bucket, slot, id, p)
		return
	}
	c.putBlockBuf(c.stash.Put(id, p, c.readSlotData(bucket, epoch, slot)))
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

// drainBucket moves every resident real block of b into the stash under
// its mapped path. It returns the slots it read and the blocks they
// held, both in ascending slot order and both aliasing scratch that the
// next drain reuses. Which slots hold reals is secret, so this is data
// movement only and emits nothing: the callers report a read set whose
// size the geometry fixes (Z per bucket), and slot positions are a secret
// uniform permutation refreshed every epoch.
func (c *treeCore) drainBucket(idx int64, b *Bucket) (slots []int, ids []BlockID) {
	slots, ids = c.scr.readSlots[:0], c.scr.blocks[:0]
	for m := b.residents(); m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		id := b.IDs[s]
		p, known := c.pos.Lookup(id)
		if !known {
			panic(fmt.Sprintf("oram: resident block %d unmapped", id))
		}
		c.fetchToStash(idx, b.Epoch, s, id, p)
		b.consumeReal(s)
		slots, ids = append(slots, s), append(ids, id)
	}
	c.scr.readSlots, c.scr.blocks = slots, ids
	return slots, ids
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
		c.refillBucket(op, idx, lvl, c.buckets.get(idx), placed[lvl])
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
	targets := b.reshuffleScratch(ids, c.permSrc, &c.scr.shuf)
	srcs := c.scr.srcs
	//oramlint:allow secret-branch moves each placed block's plaintext into its slot's source and emits nothing; the bucket write and the accesses below cover every slot whatever the count
	for i, id := range ids {
		srcs[targets[i]] = c.stash.Remove(id)
	}
	if c.store != nil {
		// Treetop elision: the eviction rewrites every slot of every
		// bucket on its path regardless of contents, so absorbing the
		// cached levels' uniform writes into controller memory (flushed
		// at snapshot time as the same bucket write) changes no
		// bus-visible behaviour; the bucket index is public.
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
	// The plaintext was re-sealed into the store; recycle the buffers.
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
	c.buckets.ascending(func(idx int64, b *Bucket) {
		for m := b.residents(); m != 0 && err == nil; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			id := b.IDs[s]
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
