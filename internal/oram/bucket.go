package oram

import (
	"fmt"
	"math/bits"

	"stringoram/internal/invariant"
	"stringoram/internal/rng"
)

// maxSlotsPerBucket is the widest bucket the controllers run: a bucket's
// real and valid flags are one 64-bit mask each. NewRing, NewPath and
// Load reject a geometry with more physical slots per bucket (the
// paper's is Z+S-Y = 12; the analytic bandwidth model has no limit).
const maxSlotsPerBucket = 64

// checkSlotsPerBucket rejects a geometry whose buckets the masks cannot
// hold.
func checkSlotsPerBucket(slots int) error {
	if slots > maxSlotsPerBucket {
		return fmt.Errorf("oram: %d slots per bucket exceeds the limit of %d", slots, maxSlotsPerBucket)
	}
	return nil
}

// Slot is one physical slot's metadata as a checkpoint records it: real
// (holding the block identified by ID) or a reserved dummy, and valid
// (untouched since the bucket's last reshuffle). Bucket keeps the same
// state as masks and an ID array; Save and Load convert. Real and ID
// are secret for the same reason as Bucket's real and IDs.
type Slot struct {
	Real  bool `oramlint:"secret"`
	Valid bool
	ID    BlockID `oramlint:"secret"`
}

// Bucket is one tree node: Z real slots plus S-Y reserved dummy slots,
// and the metadata of Fig. 2 / Fig. 7(b): which slots are real, which are
// untouched, the per-bucket access counter, and the green-block counter
// of the Compact Bucket scheme.
//
// Bit i of real and valid describes physical slot i, so a bucket holds
// at most maxSlotsPerBucket slots. A slot is valid until it is read;
// Ring ORAM never reads the same slot twice between reshuffles. IDs,
// real and Green are secret: which slots hold real blocks — and which
// blocks — must never steer the bus-visible access sequence (enforced
// by oramlint's oblivious analyzer, which follows them through locals
// and calls into every branch condition). valid is public: the
// adversary sees which slots have been touched since the last reshuffle.
type Bucket struct {
	// IDs names the block in each physical slot; an entry is meaningful
	// only where real is set.
	IDs   []BlockID `oramlint:"secret"`
	real  uint64    `oramlint:"secret"`
	valid uint64
	// Count is the number of accesses since the last reshuffle; must
	// never exceed S.
	Count int
	// Green is the number of real blocks consumed as dummies since the
	// last reshuffle; must never exceed Y. Secret: it is a function of
	// real-vs-dummy identity, which the bus must not learn.
	Green int `oramlint:"secret"`
	// Epoch counts reshuffles of this bucket. It is a field of the
	// bucket's seal nonce (Crypt), so each reshuffle reseals the bucket
	// under a fresh nonce.
	Epoch int
}

// onesMask returns a mask of the low n bits, n in [0, 64].
func onesMask(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// newBucket returns a freshly reshuffled bucket with no real blocks: all
// slots slots are valid reserved dummies. This is also the state of a
// never-written bucket (encrypted garbage is indistinguishable from a
// dummy block).
func newBucket(slots int) *Bucket {
	return &Bucket{IDs: make([]BlockID, slots), valid: onesMask(slots)}
}

// slot returns slot s's metadata as a checkpoint record.
func (b *Bucket) slot(s int) Slot {
	return Slot{Real: b.real>>uint(s)&1 != 0, Valid: b.valid>>uint(s)&1 != 0, ID: b.IDs[s]}
}

// bucketFromSlots builds a bucket's metadata from its checkpoint records.
func bucketFromSlots(slots []Slot) *Bucket {
	b := &Bucket{IDs: make([]BlockID, len(slots))}
	for s, sl := range slots {
		b.IDs[s] = sl.ID
		if sl.Real {
			b.real |= 1 << uint(s)
		}
		if sl.Valid {
			b.valid |= 1 << uint(s)
		}
	}
	return b
}

// residents returns the mask of valid real slots: the blocks resident in
// the bucket.
func (b *Bucket) residents() uint64 { return b.real & b.valid }

// findBlock returns the slot index holding the given block, or -1.
func (b *Bucket) findBlock(id BlockID) int {
	for m := b.residents(); m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); b.IDs[i] == id {
			return i
		}
	}
	return -1
}

// realBlocks returns the number of valid real blocks resident.
func (b *Bucket) realBlocks() int { return bits.OnesCount64(b.residents()) }

// validDummies returns the number of untouched reserved dummy slots.
func (b *Bucket) validDummies() int { return bits.OnesCount64(b.valid &^ b.real) }

// canServe reports whether the bucket can absorb one more read-path access
// without a reshuffle. hasTarget indicates the access will read a real
// block of interest out of this bucket (which is always possible when the
// block is valid); otherwise a dummy-capable slot must exist: a valid
// reserved dummy, or (CB) a green block when the green budget y allows and
// a valid real block is resident. s is the access budget S.
func (b *Bucket) canServe(hasTarget bool, s, y int) bool {
	if b.Count >= s {
		return false
	}
	if hasTarget {
		return true
	}
	if b.validDummies() > 0 {
		return true
	}
	return b.Green < y && b.realBlocks() > 0
}

// selector is the read path's dummy-selection policy with the candidate
// scratch it reuses, so the per-level hot path allocates nothing. The
// zero scratch is ready to use; its capacity grows to the bucket's slot
// count and stays.
type selector struct {
	// src draws the uniform policy's coin and, without balance, the slot
	// within the chosen pool.
	src *rng.Source
	// uniform picks uniformly among all eligible slots instead of
	// reserved dummies first (config.ORAM.UniformSelect).
	uniform bool
	// balance, when set, chooses the slot within the pool instead of src
	// and overrides uniform (Options.SlotBalancer).
	balance func(bucket int64, level int, candidates []int) int

	dummies, greens []int
}

// selectDummy picks a slot of bucket b (global index idx, tree level
// level) to read as a dummy and consumes it. With the dummy-first policy,
// reserved dummies are used before green blocks so that green fetches
// (which grow the stash) happen only when necessary; the uniform policy
// picks uniformly among all eligible slots. y is the green budget.
//
// It returns the slot index and, when a green block was consumed, the
// evicted real block's ID (the caller must move it to the stash);
// otherwise InvalidBlock. The caller must have checked canServe.
func (sel *selector) selectDummy(b *Bucket, idx int64, level, y int) (slot int, green BlockID) {
	// Set-bit iteration lists candidates in ascending slot order.
	sel.dummies, sel.greens = sel.dummies[:0], sel.greens[:0]
	for m := b.valid &^ b.real; m != 0; m &= m - 1 {
		sel.dummies = append(sel.dummies, bits.TrailingZeros64(m))
	}
	for m := b.residents(); m != 0; m &= m - 1 {
		sel.greens = append(sel.greens, bits.TrailingZeros64(m))
	}
	dummies, greens := sel.dummies, sel.greens
	greenOK := b.Green < y && len(greens) > 0
	// Reserved dummies first; the uniform policy, unless a balancer
	// overrides it, tosses a coin weighted by the two pools' sizes.
	pickGreen := len(dummies) == 0 ||
		sel.balance == nil && sel.uniform && greenOK && sel.src.Intn(len(dummies)+len(greens)) >= len(dummies)
	if pickGreen && !greenOK {
		panic("oram: selectDummy called on a bucket that cannot serve")
	}
	pool := dummies
	if pickGreen {
		pool = greens
	}
	var choice int
	if sel.balance != nil {
		choice = sel.balance(idx, level, pool)
		if choice < 0 || choice >= len(pool) {
			panic("oram: slot balancer returned an out-of-range candidate index")
		}
	} else {
		choice = sel.src.Intn(len(pool))
	}
	i := pool[choice]
	b.valid &^= 1 << uint(i)
	if !pickGreen {
		return i, InvalidBlock
	}
	b.Green++
	if invariant.Enabled {
		invariant.Assertf(b.Green <= y, "bucket green counter %d exceeds CB budget Y=%d", b.Green, y)
	}
	return i, b.IDs[i]
}

// consumeReal reads the target block out of the given slot: the slot is
// invalidated and the block leaves the bucket (its data now lives in the
// stash).
func (b *Bucket) consumeReal(slot int) BlockID {
	id := b.IDs[slot]
	b.IDs[slot] = InvalidBlock
	b.real &^= 1 << uint(slot)
	b.valid &^= 1 << uint(slot)
	return id
}

// shuffleScratch holds the permutation and target scratch reused across
// bucket reshuffles. The zero value is ready to use.
type shuffleScratch struct {
	perm   []int
	target []int
}

// grow resizes the scratch slices for a bucket with slots physical slots
// and nBlocks real blocks, reusing capacity.
func (sc *shuffleScratch) grow(slots, nBlocks int) (perm, target []int) {
	if cap(sc.perm) < slots {
		sc.perm = make([]int, slots)
	}
	if cap(sc.target) < nBlocks {
		sc.target = make([]int, nBlocks)
	}
	return sc.perm[:slots], sc.target[:nBlocks]
}

// reshuffleScratch rewrites the bucket with the given real blocks (at
// most Z) in randomly permuted physical positions, resets all metadata,
// and marks every slot valid. It returns the permutation target slots
// chosen for the real blocks (parallel to blocks), so a functional store
// can place data. The returned slice aliases sc.target and is valid until
// the next reshuffle through the same scratch.
func (b *Bucket) reshuffleScratch(blocks []BlockID, src *rng.Source, sc *shuffleScratch) []int {
	if len(blocks) > len(b.IDs) {
		panic("oram: reshuffle with more blocks than slots")
	}
	perm, target := sc.grow(len(b.IDs), len(blocks))
	src.PermInto(perm)
	for i := range b.IDs {
		b.IDs[i] = InvalidBlock
	}
	b.real = 0
	b.valid = onesMask(len(b.IDs))
	for i, id := range blocks {
		s := perm[i]
		b.IDs[s] = id
		b.real |= 1 << uint(s)
		target[i] = s
	}
	b.Count = 0
	b.Green = 0
	b.Epoch++
	if invariant.Enabled {
		// Reshuffle resets the CB metadata and must preserve every block
		// it was handed.
		invariant.Assertf(b.realBlocks() == len(blocks), "reshuffle placed %d of %d blocks", b.realBlocks(), len(blocks))
	}
	return target
}
