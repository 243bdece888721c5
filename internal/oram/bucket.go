package oram

import (
	"math/bits"

	"stringoram/internal/invariant"
	"stringoram/internal/rng"
)

// Slot is one physical block slot in a bucket. A slot is either real
// (holding the block identified by ID) or a reserved dummy. Valid means the
// slot has not been touched since the bucket's last reshuffle; Ring ORAM
// never reads the same slot twice between reshuffles.
// Real and ID are secret: which slots hold real blocks — and which
// blocks — must never steer the bus-visible access sequence (enforced
// by oramlint's oblivious analyzer, which follows them through locals
// and calls into every branch condition). Valid is public: the adversary
// sees which slots have been touched since the last reshuffle.
type Slot struct {
	Real  bool `oramlint:"secret"`
	Valid bool
	ID    BlockID `oramlint:"secret"`
}

// Bucket is one tree node: Z real slots plus S-Y reserved dummy slots,
// and the metadata of Fig. 2 / Fig. 7(b): the per-bucket access counter,
// and the green-block counter of the Compact Bucket scheme.
type Bucket struct {
	Slots []Slot
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

	// realMask/validMask mirror the Slots' Real and Valid flags as bit
	// sets for buckets of at most 64 slots (every practical geometry:
	// the paper's is Z+S-Y = 12), replacing the per-access linear scans
	// of the metadata hot path with popcounts and bit iteration. They
	// are maintained incrementally by every mutation below and rebuilt
	// by reindex after a snapshot restore; wider buckets fall back to
	// the scans. realMask is secret for the same reason Real is.
	realMask  uint64 `oramlint:"secret"`
	validMask uint64
}

// maskable reports whether the bucket's slot count fits the bit masks.
func (b *Bucket) maskable() bool { return len(b.Slots) <= 64 }

// onesMask returns a mask of the low n bits (n capped at 64).
func onesMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<n - 1
}

// reindex rebuilds the masks from the Slots. Callers that construct a
// Bucket directly (snapshot restore) must invoke it before use.
func (b *Bucket) reindex() {
	b.realMask, b.validMask = 0, 0
	for i := range b.Slots {
		if b.Slots[i].Real {
			b.realMask |= 1 << uint(i)
		}
		if b.Slots[i].Valid {
			b.validMask |= 1 << uint(i)
		}
	}
}

// checkMasks asserts (under -tags=invariants) that the incremental masks
// agree with the Slots they mirror.
func (b *Bucket) checkMasks() {
	if !invariant.Enabled || !b.maskable() {
		return
	}
	real, valid := b.realMask, b.validMask
	b.reindex()
	invariant.Assertf(real == b.realMask && valid == b.validMask,
		"bucket masks drifted from slots: real %#x/%#x, valid %#x/%#x", real, b.realMask, valid, b.validMask)
}

// newBucket returns a freshly reshuffled bucket with no real blocks: all
// slots slots are valid reserved dummies. This is also the state of a
// never-written bucket (encrypted garbage is indistinguishable from a
// dummy block).
func newBucket(slots int) *Bucket {
	b := &Bucket{Slots: make([]Slot, slots)}
	for i := range b.Slots {
		b.Slots[i] = Slot{Real: false, Valid: true}
	}
	b.validMask = onesMask(slots)
	return b
}

// findBlock returns the slot index holding the given block, or -1.
func (b *Bucket) findBlock(id BlockID) int {
	if b.maskable() {
		b.checkMasks()
		for m := b.realMask & b.validMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if b.Slots[i].ID == id {
				return i
			}
		}
		return -1
	}
	for i := range b.Slots {
		if b.Slots[i].Real && b.Slots[i].Valid && b.Slots[i].ID == id {
			return i
		}
	}
	return -1
}

// realBlocks returns the number of valid real blocks resident.
func (b *Bucket) realBlocks() int {
	if b.maskable() {
		return bits.OnesCount64(b.realMask & b.validMask)
	}
	n := 0
	for i := range b.Slots {
		if b.Slots[i].Real && b.Slots[i].Valid {
			n++
		}
	}
	return n
}

// validDummies returns the number of untouched reserved dummy slots.
func (b *Bucket) validDummies() int {
	if b.maskable() {
		return bits.OnesCount64(b.validMask &^ b.realMask)
	}
	n := 0
	for i := range b.Slots {
		if !b.Slots[i].Real && b.Slots[i].Valid {
			n++
		}
	}
	return n
}

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

// selectScratch holds the candidate-slot scratch reused by dummy
// selection so the per-level hot path allocates nothing. The zero value
// is ready to use; capacity grows to the bucket's slot count and stays.
type selectScratch struct {
	dummies []int
	greens  []int
}

// split partitions the bucket's valid slots into reserved dummies and
// green candidates using the scratch's backing arrays.
func (sc *selectScratch) split(b *Bucket) (dummies, greens []int) {
	sc.dummies = sc.dummies[:0]
	sc.greens = sc.greens[:0]
	if b.maskable() {
		// Set-bit iteration visits slots in ascending index order, the
		// same order as the scan it replaces, so the RNG-indexed picks
		// downstream are unchanged.
		b.checkMasks()
		for m := b.validMask &^ b.realMask; m != 0; m &= m - 1 {
			sc.dummies = append(sc.dummies, bits.TrailingZeros64(m))
		}
		for m := b.validMask & b.realMask; m != 0; m &= m - 1 {
			sc.greens = append(sc.greens, bits.TrailingZeros64(m))
		}
		return sc.dummies, sc.greens
	}
	for i := range b.Slots {
		if !b.Slots[i].Valid {
			continue
		}
		if b.Slots[i].Real {
			sc.greens = append(sc.greens, i)
		} else {
			sc.dummies = append(sc.dummies, i)
		}
	}
	return sc.dummies, sc.greens
}

// selectDummyScratch picks a slot to read as a dummy and consumes it.
// With the dummy-first policy, reserved dummies are used before green
// blocks so that green fetches (which grow the stash) happen only when
// necessary; the uniform policy picks uniformly among all eligible slots.
//
// It returns the slot index and, when a green block was consumed, the
// evicted real block's ID (the caller must move it to the stash);
// otherwise InvalidBlock. The caller must have checked canServe.
func (b *Bucket) selectDummyScratch(src *rng.Source, y int, uniform bool, sc *selectScratch) (slot int, green BlockID) {
	dummies, greens := sc.split(b)
	greenOK := b.Green < y && len(greens) > 0
	pickGreen := false
	switch {
	case uniform && greenOK && len(dummies) > 0:
		pickGreen = src.Intn(len(dummies)+len(greens)) >= len(dummies)
	case len(dummies) == 0 && greenOK:
		pickGreen = true
	case len(dummies) == 0:
		panic("oram: selectDummy called on a bucket that cannot serve")
	}
	if pickGreen {
		i := greens[src.Intn(len(greens))]
		id := b.Slots[i].ID
		b.Slots[i].Valid = false
		b.validMask &^= 1 << uint(i)
		b.Green++
		if invariant.Enabled {
			invariant.Assertf(b.Green <= y, "bucket green counter %d exceeds CB budget Y=%d", b.Green, y)
		}
		return i, id
	}
	i := dummies[src.Intn(len(dummies))]
	b.Slots[i].Valid = false
	b.validMask &^= 1 << uint(i)
	return i, InvalidBlock
}

// selectDummyBalancedScratch is selectDummyScratch with the choice within
// the eligible pool delegated to pick (used by imbalance-aware retrieval,
// Che et al. ICCD'19: any valid dummy is equally safe, so the controller
// may choose the one whose physical address balances channel load). The
// dummy-first pool ordering is preserved: reserved dummies are offered
// before green blocks.
func (b *Bucket) selectDummyBalancedScratch(pick func(candidates []int) int, y int, sc *selectScratch) (slot int, green BlockID) {
	dummies, greens := sc.split(b)
	pool := dummies
	pickGreen := false
	if len(dummies) == 0 {
		if b.Green >= y || len(greens) == 0 {
			panic("oram: selectDummyBalanced called on a bucket that cannot serve")
		}
		pool = greens
		pickGreen = true
	}
	choice := pick(pool)
	if choice < 0 || choice >= len(pool) {
		panic("oram: slot balancer returned an out-of-range candidate index")
	}
	i := pool[choice]
	if pickGreen {
		id := b.Slots[i].ID
		b.Slots[i].Valid = false
		b.validMask &^= 1 << uint(i)
		b.Green++
		if invariant.Enabled {
			invariant.Assertf(b.Green <= y, "bucket green counter %d exceeds CB budget Y=%d", b.Green, y)
		}
		return i, id
	}
	b.Slots[i].Valid = false
	b.validMask &^= 1 << uint(i)
	return i, InvalidBlock
}

// consumeReal reads the target block out of the given slot: the slot is
// invalidated and the block leaves the bucket (its data now lives in the
// stash).
func (b *Bucket) consumeReal(slot int) BlockID {
	id := b.Slots[slot].ID
	b.Slots[slot].Real = false
	b.Slots[slot].Valid = false
	b.Slots[slot].ID = InvalidBlock
	b.realMask &^= 1 << uint(slot)
	b.validMask &^= 1 << uint(slot)
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
	if len(blocks) > len(b.Slots) {
		panic("oram: reshuffle with more blocks than slots")
	}
	perm, target := sc.grow(len(b.Slots), len(blocks))
	src.PermInto(perm)
	for i := range b.Slots {
		b.Slots[i] = Slot{Real: false, Valid: true, ID: InvalidBlock}
	}
	b.realMask = 0
	b.validMask = onesMask(len(b.Slots))
	for i, id := range blocks {
		s := perm[i]
		b.Slots[s] = Slot{Real: true, Valid: true, ID: id}
		if s < 64 {
			b.realMask |= 1 << uint(s)
		}
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
