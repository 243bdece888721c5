package oram

import (
	"bytes"
	"errors"

	"stringoram/internal/invariant"
)

// treetopCache holds the plaintext contents of the top
// TreeTopCacheLevels levels of the tree inside the controller. The
// protocol already elides those levels from the bus-visible op trace
// (emitFrom): every access's path crosses every cached level, so per
// the standard tree-top-caching argument (Ring ORAM Sec. 8; Path ORAM
// follow-ups) skipping their uniform bus operations leaks nothing.
// This structure extends the elision from the op trace to the data
// plane: reads at cached levels are served from controller memory and
// writes land in controller memory, so cached buckets cost neither
// store I/O nor AES until the cache flushes.
//
// Flush discipline: every real write still reserves its AES-CTR write
// counter at the moment the uncached controller would have sealed, and
// every dummy write records its (bucket, slot, epoch) triple. Flushing
// re-seals under those remembered counters, so the flushed store bytes
// are bit-identical to the store of an uncached controller that ran
// the same access sequence — the property the snapshot round-trip and
// equivalence oracles pin.
//
// Slot states: a clean slot's store bytes are current (warmed or
// flushed); a dirty-real slot holds plaintext in buf awaiting a
// counter-bound seal; a dirty-dummy slot (buf nil) awaits its
// deterministic dummy ciphertext. A nil buf read as real decodes to
// the zero block, mirroring readSlotData on a never-written slot.
type treetopCache struct {
	nBuckets int64 // heap-order buckets [0, nBuckets) are cached
	slots    int   // physical slots per bucket

	buf   [][]byte `oramlint:"secret,scratch"` // plaintext per slot; nil = zero/dummy
	state []uint8  // ttClean / ttReal / ttDummy
	ctr   []uint64 // reserved seal counter for dirty-real slots
	epoch []int32  // reshuffle epoch for dirty-dummy slots
}

const (
	ttClean uint8 = iota
	ttReal
	ttDummy
)

// index maps (bucket, slot) to the flat cache index.
func (tt *treetopCache) index(bucket int64, slot int) int {
	return int(bucket)*tt.slots + slot
}

// cached reports whether a bucket lives in the treetop cache. Bucket
// indices are public protocol metadata (the emitted op list names
// them), so this branch never depends on block contents.
func (tt *treetopCache) cached(bucket int64) bool {
	return tt != nil && bucket < tt.nBuckets
}

// EnableTreetop attaches the treetop data cache, warming it from the
// store, and returns nil if the cache is active (or a no-op because
// TreeTopCacheLevels is 0). NewRing calls it for Options.TreetopCache,
// and callers of Load re-enable it on the restored ring.
func (r *Ring) EnableTreetop() error {
	if r.tt != nil {
		return nil
	}
	if r.store == nil {
		return errors.New("oram: treetop cache requires a functional Store")
	}
	c := r.cfg.TreeTopCacheLevels
	if c <= 0 {
		return nil
	}
	n := (int64(1) << uint(c)) - 1
	slots := r.cfg.SlotsPerBucket()
	r.tt = &treetopCache{
		nBuckets: n,
		slots:    slots,
		buf:      make([][]byte, n*int64(slots)),
		state:    make([]uint8, n*int64(slots)),
		ctr:      make([]uint64, n*int64(slots)),
		epoch:    make([]int32, n*int64(slots)),
	}
	r.warmTreetop()
	return nil
}

// TreetopEnabled reports whether the treetop data cache is attached.
func (r *Ring) TreetopEnabled() bool { return r.tt != nil }

// warmTreetop decrypts every resident real slot of the cached buckets
// out of the store. Buckets absent from the metadata map have no store
// contents (store writes always materialize the bucket first), and
// dummy slots are never read at cached levels (the read path's
// per-level work starts at emitFrom), so warming only real residents
// makes every later cached read a guaranteed hit.
func (r *Ring) warmTreetop() {
	tt := r.tt
	// Deterministic sweep of exactly the cached range (the tree top is
	// buckets [0, nBuckets)); unmaterialized buckets have no contents.
	for idx := int64(0); idx < tt.nBuckets; idx++ {
		b := r.buckets.get(idx)
		if b == nil {
			continue
		}
		for s := range b.Slots {
			// Warming is a bus-silent copy of store contents into
			// controller memory; it emits no ops.
			if !b.Slots[s].Real || !b.Slots[s].Valid {
				continue
			}
			data, err := r.readSlotData(idx, s)
			if err != nil {
				panic(err) // corrupt store contents; unreachable with MemStore
			}
			i := tt.index(idx, s)
			r.putBlockBuf(tt.buf[i])
			tt.buf[i] = data
			tt.state[i] = ttClean
		}
	}
}

// flushTreetop seals every dirty cached slot back into the store:
// dirty-real slots under their reserved write counters, dirty-dummy
// slots as the deterministic (bucket, slot, epoch) ciphertext — exactly
// the bytes the uncached controller wrote when the slot was dirtied.
// Clean slots are skipped; their store bytes are already current. Save
// calls this before serializing the store.
func (r *Ring) flushTreetop() {
	tt := r.tt
	if tt == nil || r.store == nil {
		return
	}
	for i, st := range tt.state {
		if st == ttClean {
			continue
		}
		bucket := int64(i / tt.slots)
		slot := i % tt.slots
		switch {
		case st == ttReal && r.crypt != nil:
			r.scr.sealBuf = r.crypt.sealWith(r.scr.sealBuf, tt.ctr[i], tt.buf[i])
			r.store.WriteSlot(bucket, slot, r.scr.sealBuf)
		case st == ttDummy && r.crypt != nil:
			r.scr.sealBuf = r.crypt.SealDummyInto(r.scr.sealBuf, bucket, slot, int(tt.epoch[i]))
			r.store.WriteSlot(bucket, slot, r.scr.sealBuf)
		default:
			// Plaintext mode stores the raw block; nil (dummy or
			// never-materialized real) stores the zero block, matching
			// writeBucket.
			buf := ensure(r.scr.sealBuf, r.cfg.BlockSize)
			r.scr.sealBuf = buf
			if tt.buf[i] == nil {
				clear(buf)
			} else {
				copy(buf, tt.buf[i])
			}
			r.store.WriteSlot(bucket, slot, buf)
		}
		tt.state[i] = ttClean
	}
}

// ttFetch serves a cached-level fetchToStash from controller
// memory: a copy instead of a store read plus AES open.
func (c *treeCore) ttFetch(bucket int64, slot int, id BlockID, p PathID) {
	buf := c.getBlockBuf()
	if src := c.tt.buf[c.tt.index(bucket, slot)]; src == nil {
		clear(buf)
	} else {
		copy(buf, src)
	}
	c.putBlockBuf(c.stash.Put(id, p, buf))
}

// ttWriteReal applies a cached-level real write to controller
// memory, reserving the seal counter the uncached controller would have
// burned so the eventual flush produces bit-identical store bytes.
func (c *treeCore) ttWriteReal(bucket int64, slot int, src []byte) {
	tt := c.tt
	i := tt.index(bucket, slot)
	if tt.buf[i] == nil {
		tt.buf[i] = c.getBlockBuf()
	}
	if src == nil {
		clear(tt.buf[i])
	} else {
		copy(tt.buf[i], src)
	}
	var ctr uint64
	if c.crypt != nil {
		ctr = c.crypt.nextCounter()
	}
	tt.ctr[i] = ctr
	tt.state[i] = ttReal
}

// ttWriteDummy applies a cached-level dummy write: pure metadata.
func (c *treeCore) ttWriteDummy(bucket int64, slot int, epoch int) {
	tt := c.tt
	i := tt.index(bucket, slot)
	c.putBlockBuf(tt.buf[i])
	tt.buf[i] = nil
	tt.state[i] = ttDummy
	tt.epoch[i] = int32(epoch)
}

// verifyTreetop asserts (under -tags=invariants) that the cache is
// consistent with the store and bucket metadata: clean resident slots
// decrypt from the store to exactly the cached plaintext, dirty slots
// carry the state their flush needs.
func (r *Ring) verifyTreetop() {
	if !invariant.Enabled || r.tt == nil {
		return
	}
	tt := r.tt
	for idx := int64(0); idx < tt.nBuckets; idx++ {
		b := r.buckets.get(idx)
		if b == nil {
			continue
		}
		for s := range b.Slots {
			i := tt.index(idx, s)
			switch tt.state[i] {
			case ttClean:
				if !b.Slots[s].Real || !b.Slots[s].Valid {
					continue
				}
				data, err := r.readSlotData(idx, s)
				if err != nil {
					panic(err)
				}
				want := data
				if want == nil {
					continue // timing-only: nothing to compare
				}
				got := tt.buf[i]
				ok := (got == nil && isZero(want)) || (got != nil && bytes.Equal(got, want))
				r.putBlockBuf(data)
				invariant.Assertf(ok, "treetop bucket %d slot %d: clean cache diverges from a fresh store read", idx, s)
			case ttReal:
				invariant.Assertf(r.crypt == nil || tt.ctr[i] != 0,
					"treetop bucket %d slot %d: dirty-real slot with no reserved counter", idx, s)
			case ttDummy:
				invariant.Assertf(tt.buf[i] == nil,
					"treetop bucket %d slot %d: dirty-dummy slot holds plaintext", idx, s)
			}
		}
	}
}

// isZero reports whether every byte of b is zero.
func isZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// ttAssertUncached panics under -tags=invariants if a data-plane call
// that must never see a cached bucket (XOR folds start at emitFrom)
// receives one.
func (r *Ring) ttAssertUncached(bucket int64, what string) {
	if invariant.Enabled {
		invariant.Assertf(!r.tt.cached(bucket), "treetop: %s on cached bucket %d", what, bucket)
	}
}
