package oram

// treetopCache holds the plaintext contents of the top
// TreeTopCacheLevels levels of the tree inside the controller. The
// protocol already elides those levels from the bus-visible op trace
// (emitFrom): every access's path crosses every cached level, so per
// the standard tree-top-caching argument (Ring ORAM Sec. 8; Path ORAM
// follow-ups) skipping their uniform bus operations leaks nothing.
// This structure extends the elision from the op trace to the data
// plane: reads at cached levels are served from controller memory and
// refills land in controller memory, so cached buckets cost neither
// store I/O nor AES.
//
// The cache is the cached buckets' one home. It is trusted state beside
// the stash and the position map: the store never holds a cached bucket,
// and a checkpoint carries the cache's plaintext as it carries the
// stash's (Save, Load). A nil buf slot is the zero block (a dummy, or a
// slot never refilled), as openSlot opens a bucket never written.
type treetopCache struct {
	nBuckets int64 // heap-order buckets [0, nBuckets) are cached
	slots    int   // physical slots per bucket

	buf [][]byte `oramlint:"secret,scratch"` // plaintext per slot; nil = zero block
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

// treetopBuckets is how many heap-order buckets a functional ring with
// this geometry caches.
func treetopBuckets(levels int) int64 { return int64(1)<<uint(levels) - 1 }

// attachTreetop attaches an empty treetop data cache; with
// TreeTopCacheLevels 0 there is nothing to cache. NewRing and Load call
// it on every Ring that has a Store.
func (r *Ring) attachTreetop() {
	n := treetopBuckets(r.cfg.TreeTopCacheLevels)
	if n == 0 {
		return
	}
	slots := r.cfg.SlotsPerBucket()
	r.tt = &treetopCache{nBuckets: n, slots: slots, buf: make([][]byte, n*int64(slots))}
}

// ttFetch copies a cached slot's plaintext into a pool buffer whose
// ownership passes to the caller: a copy instead of a store read plus
// AES open.
func (c *treeCore) ttFetch(bucket int64, slot int) []byte {
	buf := c.getBlockBuf()
	if src := c.tt.buf[c.tt.index(bucket, slot)]; src == nil {
		clear(buf)
	} else {
		copy(buf, src)
	}
	return buf
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
}
