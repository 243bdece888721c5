package oram

import (
	"bytes"
	"errors"
	"math/bits"

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
// Flush discipline: a refill rewrites a whole bucket, and its seal is one
// pass over the plaintexts under the nonce of the bucket's public
// position and epoch alone. A cached refill keeps the plaintexts in buf
// and marks the bucket dirty; a flush seals each dirty bucket in the one writeBucket the
// uncached controller made at the bucket's last refill, so the flushed
// store bytes are bit-identical to the store of an uncached controller
// that ran the same access sequence — the property the snapshot
// round-trip and equivalence oracles pin.
//
// A clean bucket's store bytes are current (warmed or flushed). A nil buf
// slot is the zero block (a dummy, or a real never written with data),
// mirroring readSlotData on a never-written slot.
type treetopCache struct {
	nBuckets int64 // heap-order buckets [0, nBuckets) are cached
	slots    int   // physical slots per bucket

	buf   [][]byte `oramlint:"secret,scratch"` // plaintext per slot; nil = zero block
	dirty []bool   // per bucket: refilled since its store bytes were written
}

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
		dirty:    make([]bool, n),
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
		// Warming is a bus-silent copy of store contents into
		// controller memory; it emits no ops.
		for m := b.residents(); m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			i := tt.index(idx, s)
			r.putBlockBuf(tt.buf[i])
			tt.buf[i] = r.readSlotData(idx, b.Epoch, s)
		}
	}
}

// flushTreetop seals every dirty cached bucket back into the store as the
// writeBucket its last refill would have made uncached. Clean buckets are
// skipped; their store bytes are already current. Save calls this before
// serializing the store.
func (r *Ring) flushTreetop() {
	tt := r.tt
	if tt == nil {
		return
	}
	for idx, dirty := range tt.dirty {
		if dirty {
			i := tt.index(int64(idx), 0)
			r.writeBucket(int64(idx), r.buckets.get(int64(idx)).Epoch, tt.buf[i:i+tt.slots])
			tt.dirty[idx] = false
		}
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

// ttWriteBucket applies a cached-level refill to controller memory: srcs
// holds one plaintext per physical slot, nil for the zero block.
func (c *treeCore) ttWriteBucket(bucket int64, srcs [][]byte) {
	tt := c.tt
	for s, src := range srcs {
		i := tt.index(bucket, s)
		if src == nil {
			c.putBlockBuf(tt.buf[i])
			tt.buf[i] = nil
			continue
		}
		if tt.buf[i] == nil {
			tt.buf[i] = c.getBlockBuf()
		}
		copy(tt.buf[i], src)
	}
	tt.dirty[bucket] = true
}

// verifyTreetop asserts (under -tags=invariants) that the cache is
// consistent with the store and bucket metadata: every resident real slot
// of a clean bucket decrypts from the store to exactly the cached
// plaintext.
func (r *Ring) verifyTreetop() {
	if !invariant.Enabled || r.tt == nil {
		return
	}
	tt := r.tt
	for idx := int64(0); idx < tt.nBuckets; idx++ {
		b := r.buckets.get(idx)
		if b == nil || tt.dirty[idx] {
			continue
		}
		for m := b.residents(); m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			data := r.readSlotData(idx, b.Epoch, s)
			got := tt.buf[tt.index(idx, s)]
			ok := bytes.Equal(got, data) || got == nil && bytes.Count(data, []byte{0}) == len(data)
			r.putBlockBuf(data)
			invariant.Assertf(ok, "treetop bucket %d slot %d: clean cache diverges from a fresh store read", idx, s)
		}
	}
}
