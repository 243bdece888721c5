package oram

import "fmt"

// Data movement of the Ring protocol engine. Every decision the protocol
// makes — which paths to read, which slots to touch, how buckets
// reshuffle, where the RNG stream advances — is metadata-only and never
// depends on block contents; the methods here carry out the block
// movement those decisions imply, between the store, the stash and the
// treetop cache. writeReal and writeDummy are called in ascending slot
// order, so the counter-mode sealer binds one fresh counter per call.

// fetchToStash moves one real block's plaintext from the store slot into
// the stash under (id, p).
func (r *Ring) fetchToStash(bucket int64, slot int, id BlockID, p PathID) {
	// Treetop elision: every access's path crosses every cached level,
	// so serving those uniform per-level operations from controller
	// memory instead of the bus is invisible to the adversary (the op
	// trace already excludes cached levels); the branch keys on the
	// bucket index, which the emitted op list makes public.
	if r.tt.cached(bucket) {
		r.ttFetch(bucket, slot, id, p)
		return
	}
	data, err := r.readSlotData(bucket, slot)
	if err != nil {
		panic(err) // corrupt store contents; unreachable with MemStore
	}
	r.putBlockBuf(r.stash.Put(id, p, data))
}

// xorFoldSlot folds one selected slot's ciphertext into the XOR
// accumulator, canceling deterministic dummy ciphertexts as it goes.
func (r *Ring) xorFoldSlot(bucket int64, slot int, isDummy bool, epoch int) {
	r.ttAssertUncached(bucket, "xorFoldSlot") // XOR folding starts at emitFrom
	sealed := r.store.ReadSlot(bucket, slot)
	if sealed == nil {
		// A never-written slot contributes nothing, and the controller
		// knows it (slot epochs are controller state).
		return
	}
	if len(r.scr.xorAcc) == 0 {
		r.scr.xorAcc = append(r.scr.xorAcc, sealed...)
	} else {
		XORBlocks(r.scr.xorAcc, sealed)
	}
	if isDummy {
		r.scr.dummySeal = r.crypt.SealDummyInto(r.scr.dummySeal, bucket, slot, epoch)
		XORBlocks(r.scr.xorAcc, r.scr.dummySeal)
	}
}

// xorFinishToStash decodes the XOR accumulator and stashes the recovered
// target under (id, p).
func (r *Ring) xorFinishToStash(id BlockID, p PathID) {
	data, err := r.crypt.OpenInto(r.getBlockBuf(), r.scr.xorAcc)
	if err != nil {
		panic(fmt.Sprintf("oram: XOR decode of block %d: %v", id, err))
	}
	r.putBlockBuf(r.stash.Put(id, p, data))
}

// reshuffleFetch reads one slot's plaintext into a pool buffer held for
// the same operation's bucket rewrite.
func (r *Ring) reshuffleFetch(bucket int64, slot int) []byte {
	r.ttAssertUncached(bucket, "reshuffleFetch") // early reshuffles start at emitFrom
	data, err := r.readSlotData(bucket, slot)
	if err != nil {
		panic(err)
	}
	return data
}

// writeReal seals src (nil means a zero block) and writes it to the slot.
func (r *Ring) writeReal(bucket int64, slot int, src []byte) {
	// Treetop elision: the eviction rewrites every slot of every bucket
	// on its path regardless of contents, so absorbing the cached
	// levels' uniform writes into controller memory (flushed sealed
	// under reserved counters at snapshot epochs) changes no
	// bus-visible behaviour; the bucket index is public.
	if r.tt.cached(bucket) {
		r.ttWriteReal(bucket, slot, src)
		return
	}
	r.store.WriteSlot(bucket, slot, r.sealedForStore(src))
}

// writeDummy writes the slot's deterministic dummy ciphertext (or a zero
// block without a Crypt).
func (r *Ring) writeDummy(bucket int64, slot int, epoch int) {
	if r.tt.cached(bucket) {
		r.ttWriteDummy(bucket, slot, epoch)
		return
	}
	if r.crypt != nil {
		// Dummies seal deterministically per (bucket, slot, epoch) so
		// XOR reads can cancel them; each epoch is written once, so
		// bus-visible ciphertexts are still always fresh.
		r.scr.dummySeal = r.crypt.SealDummyInto(r.scr.dummySeal, bucket, slot, epoch)
		r.store.WriteSlot(bucket, slot, r.scr.dummySeal)
	} else {
		r.store.WriteSlot(bucket, slot, r.sealedForStore(nil))
	}
}

// stashStore copies caller data into the stash under (id, p), recycling
// any displaced buffer.
func (r *Ring) stashStore(id BlockID, p PathID, data []byte) {
	var stored []byte
	if r.store != nil {
		stored = r.getBlockBuf()
		copy(stored, data)
	}
	r.putBlockBuf(r.stash.Put(id, p, stored))
}

// snapshotOut captures the block's current contents into the response
// scratch and returns it.
func (r *Ring) snapshotOut(id BlockID) []byte {
	cur := r.stash.Get(id)
	out := ensure(r.scr.outBuf, r.cfg.BlockSize)
	r.scr.outBuf = out
	if cur == nil {
		clear(out)
	} else {
		copy(out, cur)
	}
	return out
}
