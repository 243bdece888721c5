package oram

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"stringoram/internal/checksum"
	"stringoram/internal/config"
	"stringoram/internal/rng"
)

// snapshotVersion guards the checkpoint format. Version 1 sealed real
// slots under a sequential write counter, and version 2 stored an 8-byte
// IV header with each slot; version 3 slots are bare BlockSize bytes
// sealed under their bucket's position nonce, and version 4 trails the
// gob body with its SHA-256 (checksum.Append). Version 5 carries the
// treetop cache's plaintext (ringSnap.Treetop) where version 4 stored the
// cached buckets sealed. Load refuses all four.
const snapshotVersion = 5

// maxCheckpointBlock bounds the block size Load accepts: the sealer
// allocates a block-sized buffer up front, and a checkpoint is outside
// input. It is the server's frame limit; no larger block can be served.
const maxCheckpointBlock = 1 << 20

// Snapshot structures. gob encodes the exported fields; the types stay
// package-private so the wire format is an implementation detail.

type stashSnap struct {
	ID   BlockID
	Path PathID
	Data []byte
}

type posSnap struct {
	ID   BlockID
	Path PathID
}

type bucketSnap struct {
	Index int64
	Count int
	Green int
	Epoch int
	Slots []Slot
}

type storeSnap struct {
	Bucket int64
	Slots  [][]byte
}

type ringSnap struct {
	Version int
	Cfg     config.ORAM

	HasStore bool
	HasCrypt bool

	EvictCount int64
	RoundCount int
	NextFiller BlockID
	WarmSeed   uint64

	SelState  [4]uint64
	PermState [4]uint64
	PosState  [4]uint64

	Stash   []stashSnap
	PosMap  []posSnap
	Buckets []bucketSnap
	Store   []storeSnap
	// Treetop is the treetop cache's plaintext, one entry per cached slot
	// in treetopCache.buf order, nil for the zero block.
	Treetop [][]byte
	Stats   Stats
}

// Save checkpoints the controller's complete state — configuration,
// position map, stash and treetop cache (plaintext: the checkpoint itself
// must be stored inside the trusted boundary or sealed by the caller),
// bucket metadata, RNG streams, and, when the block store is a MemStore,
// the sealed slot contents. A Ring restored with Load continues exactly
// where Save left off, access for access.
//
// Save makes no store call. It fails for rings with a custom
// (non-MemStore) store: external storage persists independently and the
// caller re-attaches it on Load. The gob body is followed by its SHA-256,
// which Load checks before it decodes anything.
func (r *Ring) Save(w io.Writer) error {
	ms, isMem := r.store.(*MemStore)
	if r.store != nil && !isMem {
		return fmt.Errorf("oram: Save supports nil or MemStore stores, got %T", r.store)
	}
	snap := ringSnap{
		Version:    snapshotVersion,
		Cfg:        r.cfg,
		HasStore:   r.store != nil,
		HasCrypt:   r.crypt != nil,
		EvictCount: r.evictCount,
		RoundCount: r.roundCount,
		NextFiller: r.nextFiller,
		WarmSeed:   r.warmSeed,
		SelState:   r.sel.src.State(),
		PermState:  r.permSrc.State(),
		PosState:   r.pos.src.State(),
		Stats:      r.stats,
	}
	// Every snapshot slice is in ascending id or index order, so the gob
	// stream is byte-identical across runs of the same simulation. The
	// tables walk in that order; the stash's order is its insert/remove
	// history, so it is sorted.
	r.stash.ForEach(func(id BlockID, p PathID) {
		// Copy: the snapshot must not alias stash buffers that the pool
		// recycles on the next access (caught by oramlint's ownership
		// analyzer — the gob encode may run after serving resumes).
		var data []byte
		if d := r.stash.Get(id); d != nil {
			data = append([]byte(nil), d...)
		}
		snap.Stash = append(snap.Stash, stashSnap{ID: id, Path: p, Data: data})
	})
	sort.Slice(snap.Stash, func(i, j int) bool { return snap.Stash[i].ID < snap.Stash[j].ID })
	if r.tt != nil {
		// Copied as the stash is: the cache's buffers are recycled too.
		snap.Treetop = make([][]byte, len(r.tt.buf))
		for i, d := range r.tt.buf {
			snap.Treetop[i] = bytes.Clone(d)
		}
	}
	r.pos.ForEach(func(id BlockID, p PathID) {
		snap.PosMap = append(snap.PosMap, posSnap{ID: id, Path: p})
	})
	r.eachBucket(func(idx int64, b *Bucket) {
		ids := r.run(b)
		slots := make([]Slot, r.slots)
		for s := range slots {
			slots[s] = b.slot(ids, s)
		}
		snap.Buckets = append(snap.Buckets, bucketSnap{
			Index: idx, Count: int(b.Count), Green: int(b.Green), Epoch: b.Epoch, Slots: slots,
		})
	})
	if isMem {
		ms.eachBucket(func(bkt int64, slots [][]byte) {
			snap.Store = append(snap.Store, storeSnap{Bucket: bkt, Slots: slots})
		})
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&snap); err != nil {
		return fmt.Errorf("oram: encoding checkpoint: %w", err)
	}
	if _, err := w.Write(checksum.Append(body.Bytes())); err != nil {
		return fmt.Errorf("oram: writing checkpoint: %w", err)
	}
	return nil
}

// Load restores a Ring from a Save checkpoint. The restored ring
// reconstructs its store and treetop cache from the checkpoint: rings
// saved with a MemStore come back functional, and timing-only rings come
// back timing-only. A checkpoint whose SHA-256 trailer does not match is
// refused before any of it is decoded; one that names an earlier version
// is refused by that version.
//
// key may be nil for timing-only or plaintext-store checkpoints; for
// encrypted checkpoints it must be the 16-byte AES key the original ring
// sealed with, or block contents will not decrypt. The restored Ring
// seals under that key at the positions the checkpoint's tree had already
// sealed at; unless it is the only copy ever to serve on, Rekey it first.
func Load(rd io.Reader, key []byte) (*Ring, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("oram: reading checkpoint: %w", err)
	}
	body, err := checksum.Strip(data)
	if err != nil {
		// Name an earlier format by its version rather than as corruption.
		var head struct{ Version int }
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&head) == nil && head.Version != snapshotVersion {
			return nil, fmt.Errorf("oram: checkpoint version %d, want %d", head.Version, snapshotVersion)
		}
		return nil, fmt.Errorf("oram: checkpoint %w", err)
	}
	var snap ringSnap
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("oram: decoding checkpoint: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("oram: checkpoint version %d, want %d", snap.Version, snapshotVersion)
	}
	if err := snap.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("oram: checkpoint config: %w", err)
	}
	if err := checkSlotsPerBucket(snap.Cfg.SlotsPerBucket()); err != nil {
		return nil, fmt.Errorf("oram: checkpoint config: %w", err)
	}
	if snap.Cfg.BlockSize > maxCheckpointBlock {
		return nil, fmt.Errorf("oram: checkpoint Cfg.BlockSize %d exceeds %d", snap.Cfg.BlockSize, maxCheckpointBlock)
	}

	var crypt *Crypt
	if snap.HasCrypt {
		if key == nil {
			return nil, fmt.Errorf("oram: checkpoint was sealed; Load needs the original key")
		}
		var err error
		crypt, err = NewCrypt(key, snap.Cfg.BlockSize)
		if err != nil {
			return nil, err
		}
	}
	// The checkpoint is outside input: every index that will address a
	// table is checked against the tree before it is used.
	tree := NewTree(snap.Cfg.Levels)
	perBkt := snap.Cfg.SlotsPerBucket()
	var store Store
	var nCached int64 // the store never holds a cached bucket
	if snap.HasStore {
		nCached = treetopBuckets(snap.Cfg.TreeTopCacheLevels)
	}
	if int64(len(snap.Treetop)) != nCached*int64(perBkt) {
		return nil, fmt.Errorf("oram: checkpoint Treetop holds %d slots, want %d", len(snap.Treetop), nCached*int64(perBkt))
	}
	for i, d := range snap.Treetop {
		if len(d) != 0 && len(d) != snap.Cfg.BlockSize {
			return nil, fmt.Errorf("oram: checkpoint Treetop slot %d holds %d bytes, want %d", i, len(d), snap.Cfg.BlockSize)
		}
	}
	if snap.HasStore {
		ms := NewMemStore(perBkt)
		for _, s := range snap.Store {
			switch {
			case s.Bucket < nCached || s.Bucket >= tree.Buckets():
				return nil, fmt.Errorf("oram: checkpoint Store.Bucket %d outside the tree's uncached buckets [%d, %d)", s.Bucket, nCached, tree.Buckets())
			case len(s.Slots) != perBkt:
				return nil, fmt.Errorf("oram: checkpoint bucket %d has %d slots, want %d", s.Bucket, len(s.Slots), perBkt)
			case ms.index.get(s.Bucket) != 0:
				return nil, fmt.Errorf("oram: checkpoint Store.Bucket %d appears twice", s.Bucket)
			}
			// A stored bucket is whole: a missing slot is refused too.
			for slot, sealed := range s.Slots {
				if len(sealed) != snap.Cfg.BlockSize {
					return nil, fmt.Errorf("oram: checkpoint Store bucket %d slot %d holds %d bytes, want %d", s.Bucket, slot, len(sealed), snap.Cfg.BlockSize)
				}
				ms.WriteSlot(s.Bucket, slot, sealed)
			}
		}
		store = ms
	}

	r := newRing(snap.Cfg, store, crypt,
		rng.Restore(snap.SelState), rng.Restore(snap.PermState), rng.Restore(snap.PosState))
	r.evictCount = snap.EvictCount
	r.roundCount = snap.RoundCount
	r.warmSeed = snap.WarmSeed
	r.nextFiller = snap.NextFiller
	r.stats = snap.Stats
	checkBlock := func(field string, id BlockID, p PathID) error {
		if id < 0 {
			return fmt.Errorf("oram: checkpoint %s.ID %d is negative", field, id)
		}
		if p < 0 || int64(p) >= tree.Leaves() {
			return fmt.Errorf("oram: checkpoint %s.Path %d (block %d) outside the tree's %d leaves", field, p, id, tree.Leaves())
		}
		return nil
	}
	for _, e := range snap.PosMap {
		if err := checkBlock("PosMap", e.ID, e.Path); err != nil {
			return nil, err
		}
		r.pos.Set(e.ID, e.Path)
	}
	for _, e := range snap.Stash {
		if err := checkBlock("Stash", e.ID, e.Path); err != nil {
			return nil, err
		}
		if len(e.Data) != 0 && len(e.Data) != snap.Cfg.BlockSize {
			return nil, fmt.Errorf("oram: checkpoint Stash block %d holds %d bytes, want %d", e.ID, len(e.Data), snap.Cfg.BlockSize)
		}
		r.stash.Put(e.ID, e.Path, e.Data)
	}
	for _, b := range snap.Buckets {
		switch {
		case b.Index < 0 || b.Index >= tree.Buckets():
			return nil, fmt.Errorf("oram: checkpoint Buckets.Index %d outside the tree's %d buckets", b.Index, tree.Buckets())
		case len(b.Slots) != perBkt:
			return nil, fmt.Errorf("oram: checkpoint bucket %d metadata has %d slots, want %d", b.Index, len(b.Slots), perBkt)
		case r.lookup(b.Index) != nil:
			return nil, fmt.Errorf("oram: checkpoint Buckets.Index %d appears twice", b.Index)
		case b.Epoch < 0 || uint64(b.Epoch) >= 1<<nonceEpochBits:
			// An epoch past its nonce field would alias another bucket's nonce.
			return nil, fmt.Errorf("oram: checkpoint bucket %d Epoch %d outside [0, 2^%d)", b.Index, b.Epoch, nonceEpochBits)
		// The counters are checked before the record narrows them to
		// int16; a negative Green would lift the bucket's CB budget.
		case b.Count < 0:
			return nil, fmt.Errorf("oram: checkpoint bucket %d count %d is negative", b.Index, b.Count)
		case b.Count > snap.Cfg.S:
			return nil, fmt.Errorf("oram: checkpoint bucket %d count %d exceeds S=%d", b.Index, b.Count, snap.Cfg.S)
		case b.Green < 0:
			return nil, fmt.Errorf("oram: checkpoint bucket %d green %d is negative", b.Index, b.Green)
		case b.Green > snap.Cfg.Y:
			return nil, fmt.Errorf("oram: checkpoint bucket %d green %d exceeds Y=%d", b.Index, b.Green, snap.Cfg.Y)
		}
		rb, _ := r.materialize(b.Index)
		*rb = Bucket{Epoch: b.Epoch, Count: int16(b.Count), Green: int16(b.Green)}
		for s, sl := range b.Slots {
			if sl.Real {
				rb.real |= 1 << uint(s)
			}
			if sl.Valid {
				rb.valid |= 1 << uint(s)
			}
			// A bucket takes an ID run only where a slot needs one, so a
			// never-written bucket comes back without one.
			if sl.Real || sl.ID != 0 {
				r.ownRun(rb)[s] = sl.ID
			}
		}
	}
	if err := r.CheckInvariants(); err != nil {
		return nil, err
	}
	if store != nil {
		r.attachTreetop()
		for i, d := range snap.Treetop {
			if len(d) != 0 { // gob decodes a nil slot as empty
				r.tt.buf[i] = d
			}
		}
	}
	return r, nil
}

// Rekey re-seals every stored bucket under key and seals under key from
// then on: a restored Ring diverges from the other copies of its
// checkpoint, so it must not share their key. Each bucket takes one pass
// under the old key, which opens it (CTR is its own inverse), and one
// under the new key, both at the nonce of the bucket's position in its
// current epoch: the nonce comes from trusted metadata, never from the
// stored bytes, which a checkpoint read from disk could have forged.
func (r *Ring) Rekey(key []byte) error {
	ms, ok := r.store.(*MemStore)
	if r.crypt == nil || !ok {
		return fmt.Errorf("oram: Rekey needs a sealed MemStore ring")
	}
	next, err := NewCrypt(key, r.cfg.BlockSize)
	if err != nil {
		return err
	}
	bs := r.cfg.BlockSize
	var body []byte
	ms.eachBucket(func(bkt int64, slots [][]byte) {
		var epoch int // a stored bucket without metadata is never read
		if b := r.lookup(bkt); b != nil {
			epoch = b.Epoch
		}
		body = ensure(body, len(slots)*bs+gcmTagSize)[:len(slots)*bs]
		for s, old := range slots {
			copy(body[s*bs:(s+1)*bs], old)
		}
		r.crypt.sealBucket(body, bkt, epoch)
		next.sealBucket(body, bkt, epoch)
		for s := range slots {
			ms.WriteSlot(bkt, s, body[s*bs:(s+1)*bs])
		}
	})
	r.crypt = next
	return nil
}
