package oram

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"stringoram/internal/config"
	"stringoram/internal/invariant"
	"stringoram/internal/rng"
)

// ErrStashOverflow is returned when the stash exceeds its capacity and
// background eviction cannot drain it. With sanely chosen Y and stash
// sizes (see Fig. 14/15) this does not happen; it indicates an
// over-aggressive CB rate for the configured stash.
var ErrStashOverflow = errors.New("oram: stash overflow")

// maxBackgroundRounds bounds the background-eviction loop per access so a
// pathological configuration reports ErrStashOverflow instead of spinning.
const maxBackgroundRounds = 4096

// Options configures optional Ring behaviour.
type Options struct {
	// Store receives sealed block data; nil selects timing-only mode.
	Store Store
	// Crypt seals/opens block data moving through Store. nil with a
	// non-nil Store stores plaintext (useful for layered tests). Seal
	// nonces are tree positions, so its key must seal no other Ring nor any
	// earlier Ring of this store: derive one per Ring with RingKey.
	Crypt *Crypt
	// TreetopCache is accepted and ignored: a Ring with a Store always
	// holds its top TreeTopCacheLevels levels decrypted in controller
	// memory (see treetop.go). The field survives only so bench/, which
	// may change only in a benchmark PR, keeps compiling; that PR removes
	// it.
	TreetopCache bool
}

// Ring is a Ring ORAM controller with the String ORAM Compact Bucket
// extension: the shared tree-ORAM core (plane.go) plus the read path with
// its dummy selection, the (A reads, 1 evict) schedule and early
// reshuffles. It is not safe for concurrent use; the secure processor
// serializes ORAM accesses by construction.
type Ring struct {
	treeCore

	evictCount int64 // evictions issued so far (selects reverse-lex path)
	roundCount int   // read paths since the last eviction, in [0, A)

	warmSeed   uint64  // per-bucket warm-fill derivation seed
	nextFiller BlockID // next synthetic filler block ID
	// warmOdds[l] is the chance a level-l slot of a fresh bucket holds a
	// filler, and warmLimit is e^-A, poisson's stopping bound; both are
	// per-Ring constants of warmBucket's draws.
	warmOdds  []float64
	warmLimit float64

	// sel is the dummy-selection policy and its scratch.
	sel selector
}

// NewRing returns a Ring ORAM controller for the given configuration.
// opts may be nil. All randomness derives from seed.
func NewRing(cfg config.ORAM, seed uint64, opts *Options) (*Ring, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkSlotsPerBucket(cfg.SlotsPerBucket()); err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &Options{}
	}
	root := rng.New(seed)
	r := newRing(cfg, opts.Store, opts.Crypt, root.Fork(), root.Fork(), root.Fork())
	r.warmSeed = root.Uint64()
	r.nextFiller = FillerBase
	if opts.Store != nil {
		r.attachTreetop()
	}
	return r, nil
}

// newRing assembles a controller around a fresh core from its three RNG
// streams; NewRing and Load then set what each alone knows.
func newRing(cfg config.ORAM, store Store, crypt *Crypt, selSrc, permSrc, posSrc *rng.Source) *Ring {
	r := &Ring{
		treeCore:  newTreeCore(cfg, store, crypt, permSrc, posSrc),
		sel:       selector{src: selSrc, uniform: cfg.UniformSelect},
		warmLimit: math.Exp(-float64(cfg.A)),
	}
	// Occupancy: leaves hold Binomial(Z, WarmFill); interior levels
	// carry the geometrically decaying overflow load of the subtree
	// below them (≈ Z*WarmFill/2 one level up, /4 two levels up, ...).
	r.warmOdds = make([]float64, r.tree.L+1)
	for lvl := range r.warmOdds {
		r.warmOdds[lvl] = cfg.WarmFill * math.Pow(0.5, float64(r.tree.L-lvl))
	}
	return r
}

// FillerBase is the first block ID of the synthetic filler space used by
// tree warming (config.ORAM.WarmFill). Program block IDs must stay below
// it; Access enforces this when warming is enabled.
const FillerBase BlockID = 1 << 40

// warmBucket populates a freshly materialized bucket with synthetic
// steady state: resident "filler" blocks (leaves draw Binomial(Z,
// WarmFill), interior buckets one block with probability WarmFill) and a
// uniformly random phase within the bucket's reshuffle period — as if k
// of its A per-period accesses had already consumed dummy/green budget.
// Fillers are ordinary real blocks — mapped in the position map,
// green-fetchable, evictable — just never requested by the program.
// Everything is deterministic per bucket.
func (r *Ring) warmBucket(idx int64, b *Bucket) {
	lvl := r.tree.BucketLevel(idx)
	var src rng.Source
	src.Seed(r.warmSeed ^ uint64(idx)*0x9e3779b97f4a7c15)
	// Occupancy: Binomial(Z, warmOdds[lvl]), plus, above the leaves, a
	// transient block in flight toward the root.
	n := 0
	p := r.warmOdds[lvl]
	for i := 0; i < r.cfg.Z; i++ {
		if src.Float64() < p {
			n++
		}
	}
	if lvl < r.tree.L && src.Float64() < r.cfg.WarmFill && n < r.cfg.Z {
		n++
	}
	var permBuf [maxSlotsPerBucket]int
	perm := src.PermInto(permBuf[:r.slots])

	// Phase: k accesses absorbed since the (synthetic) last reshuffle.
	// In steady state a bucket at level l is reshuffled every A*2^l
	// reads and hit by read paths with probability 2^-l, so the number
	// of accesses per period is Poisson with mean A, and at a uniform
	// observation instant the consumed count is uniform within the
	// period's total. Dummies go first in the synthetic history; the
	// remainder consumed green blocks (bounded by Y and the fillers).
	k := 0
	if r.cfg.A > 1 {
		period := poisson(&src, r.warmLimit, r.cfg.A)
		if period > 0 {
			k = src.Intn(period + 1)
		}
		if k >= r.cfg.S {
			k = r.cfg.S - 1
		}
	}
	reserved := r.slots - n
	dc := k
	if dc > reserved {
		dc = reserved
	}
	gc := k - dc
	if gc > r.cfg.Y {
		gc = r.cfg.Y
	}
	if gc > n {
		gc = n
	}

	// Surviving fillers occupy perm[0 : n-gc]; only a bucket that places
	// one takes an ID run.
	span := uint64(1) << uint(r.tree.L-lvl)
	inLevel := idx - ((int64(1) << uint(lvl)) - 1)
	var ids []BlockID
	if n > gc {
		ids = r.ownRun(b)
	}
	for i := 0; i < n-gc; i++ {
		id := r.nextFiller
		r.nextFiller++
		ids[perm[i]] = id
		b.real |= 1 << uint(perm[i])
		leaf := PathID(uint64(inLevel)*span + src.Uint64n(span))
		r.pos.Set(id, leaf)
	}
	// Consumed green slots (their blocks live elsewhere by now) and
	// consumed dummies, perm[n-gc : n+dc], are invalid until the next
	// reshuffle.
	for i := n - gc; i < n+dc; i++ {
		b.valid &^= 1 << uint(perm[i])
	}
	b.Count = int16(dc + gc)
	b.Green = int16(gc)
}

// poisson draws a Poisson(mean) variate (Knuth's method; mean is small —
// it is the eviction rate A). limit is e^-mean.
func poisson(src *rng.Source, limit float64, mean int) int {
	k := 0
	p := 1.0
	for {
		p *= src.Float64()
		if p <= limit {
			return k
		}
		k++
		if k > 20*(mean+1) {
			return k // numeric guard; astronomically unlikely
		}
	}
}

// Config returns the controller's configuration.
func (r *Ring) Config() config.ORAM { return r.cfg }

// bucket returns the bucket at the given global index, materializing it
// (warm-filled when configured) on first touch.
func (r *Ring) bucket(idx int64) *Bucket {
	b, fresh := r.materialize(idx)
	if fresh && r.cfg.WarmFill > 0 {
		r.warmBucket(idx, b)
	}
	return b
}

// takeOp appends a fresh operation to ops and returns a pointer to it,
// reusing that index's Accesses backing array from earlier accesses. The
// pointer is valid until the next takeOp on the same list (which may
// grow it), so each op must be fully populated before the next one is
// taken.
func takeOp(ops *[]Op, kind OpKind, p PathID) *Op {
	s := *ops
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		s = append(s, Op{})
	}
	op := &s[len(s)-1]
	op.Kind = kind
	op.Path = p
	op.Accesses = op.Accesses[:0]
	*ops = s
	return op
}

// Read fetches a logical block. The returned data is nil in timing-only
// mode and a zero block for never-written addresses. ops lists the memory
// transactions the access generated, in issue order. Both returned slices
// alias controller-owned scratch: they are valid until the next operation
// on this Ring.
func (r *Ring) Read(id BlockID) (data []byte, ops []Op, err error) {
	return r.Access(id, false, nil)
}

// Write stores a logical block. The returned ops are valid until the next
// operation on this Ring.
func (r *Ring) Write(id BlockID, data []byte) (ops []Op, err error) {
	_, ops, err = r.Access(id, true, data)
	//oramlint:allow scratch-return the ops list aliases controller scratch by the documented API contract: valid until the next operation on this Ring, callers that retain must copy
	return ops, err
}

// Access performs one logical memory request through the full Ring ORAM
// protocol: early reshuffles where budgets are exhausted, a read path
// operation, the scheduled eviction at every A-th round, and leakage-free
// background eviction when the stash crosses its threshold.
//
// The returned data and ops alias controller-owned scratch reused by the
// next operation on this Ring: callers that need them longer must copy.
func (r *Ring) Access(id BlockID, write bool, data []byte) ([]byte, []Op, error) {
	//oramlint:allow secret-branch argument validation on the public API: the id comes from a public allocation counter, and a rejection issues no access at all
	if id < 0 {
		//oramlint:allow secret-early-exit argument validation on the public API: block ids are allocated by a public counter, so rejecting a negative id reveals only argument well-formedness, never mapped state
		return nil, nil, fmt.Errorf("oram: negative block id %d", id)
	}
	//oramlint:allow secret-branch the caller's id is compared only against the public filler-space constant, before any access is issued
	if r.cfg.WarmFill > 0 && id >= FillerBase {
		//oramlint:allow secret-early-exit the filler-space boundary is a public configuration constant; the rejection depends on the caller-supplied id against that constant, not on any mapped secret
		return nil, nil, fmt.Errorf("oram: block id %d collides with the warm-fill filler space", id)
	}
	if write {
		//oramlint:allow secret-branch the payload length is caller framing checked against the public BlockSize, before any access is issued; the contents are never read
		if r.store != nil && len(data) != r.cfg.BlockSize {
			//oramlint:allow secret-early-exit the size check is the public API contract (BlockSize is configuration); server encoders normalize every value to exactly BlockSize before calling, so the rejection depends only on caller framing, not content
			return nil, nil, fmt.Errorf("oram: write of %d bytes, want %d", len(data), r.cfg.BlockSize)
		}
		r.stats.Writes++
	} else {
		r.stats.Reads++
	}

	// The op list is rebuilt in place every access; anything the caller
	// still holds from the previous access is invalidated here.
	r.scr.ops = r.scr.ops[:0]

	// Determine the path to read: the block's current path, or a random
	// one when the block is new or already buffered in the stash. The
	// bus-visible behaviour is identical in all cases.
	readPath, haveTarget := r.pos.Lookup(id)
	if r.stash.Contains(id) { //oramlint:allow secret-branch both arms issue one full read path; a stash hit only redirects it to a fresh random path, indistinguishable on the bus
		haveTarget = false
	}
	//oramlint:allow secret-branch both arms issue one full read path: an unmapped or stashed block reads a fresh uniform path, a mapped one its uniform assigned path, indistinguishable on the bus
	if !haveTarget {
		readPath = r.pos.RandomPath()
	}

	r.readPathOp(OpReadPath, readPath, id, haveTarget)
	r.stats.ReadPaths++

	// Remap-on-access: the block gets a fresh path and logically lives
	// in the stash until an eviction pushes it back into the tree.
	newPath := r.pos.Remap(id)
	r.remapToStash(id, newPath)

	// A write stores its payload; a read snapshots the block's contents
	// into the out scratch (writes return no data).
	var out []byte
	if write {
		r.stashStore(id, newPath, data)
	} else if r.store != nil {
		out = r.snapshotOut(id)
	}

	r.bumpRound()

	// Background eviction: when the stash crosses its threshold, halt
	// and issue dummy read paths until the A-interval boundary, then
	// evict; repeat until the stash drains. The bus sees only the usual
	// (A reads, 1 evict) rhythm, so nothing leaks.
	rounds := 0
	//oramlint:allow secret-branch the extra ops are dummy read paths on random paths plus scheduled evictions, all in the public (A reads, 1 evict) rhythm; occupancy only stalls the CPU, it never shapes an op
	//oramlint:allow secret-trip-count every extra round issues dummy read paths and scheduled evictions in the unchanged public (A reads, 1 evict) rhythm; the occupancy-dependent round count stalls only the CPU and is bounded by maxBackgroundRounds
	for r.stash.Len() >= r.cfg.EvictThreshold() {
		if rounds++; rounds > maxBackgroundRounds {
			//oramlint:allow secret-early-exit stash overflow is the catastrophic safety valve: it aborts the access loudly with ErrStashOverflow, a condition the deployment treats as public (parameters were mis-sized), not as a per-access signal
			//oramlint:allow scratch-return the ops list aliases controller scratch by the documented API contract: valid until the next operation on this Ring
			return nil, r.scr.ops, ErrStashOverflow
		}
		p := r.pos.RandomPath()
		r.readPathOp(OpDummyReadPath, p, InvalidBlock, false)
		r.stats.BackgroundDummyReads++
		wasBoundary := r.roundCount == r.cfg.A-1
		r.bumpRound()
		if wasBoundary {
			r.stats.BackgroundEvictions++
		}
	}
	if invariant.Enabled {
		// The background loop only exits (without overflow) once
		// eviction has drained the stash below the threshold; a future
		// early break here would silently void the occupancy bound.
		invariant.Assertf(r.stash.Len() < r.cfg.EvictThreshold(), "background eviction left stash at %d, threshold %d", r.stash.Len(), r.cfg.EvictThreshold())
	}
	if r.stash.Len() > r.stash.Cap() { //oramlint:allow secret-branch overflow detection aborts the run after all ops are emitted; it never alters the trace
		//oramlint:allow scratch-return the ops list aliases controller scratch by the documented API contract: valid until the next operation on this Ring
		return nil, r.scr.ops, ErrStashOverflow
	}

	if n := int64(r.stash.Len()); n > r.stats.StashPeak { //oramlint:allow secret-branch statistics only, after all ops are emitted
		r.stats.StashPeak = n
	}
	//oramlint:allow scratch-return returned data and ops alias controller scratch by the documented API contract: valid until the next operation on this Ring, callers that retain must copy
	return out, r.scr.ops, nil
}

// bumpRound advances the read-path round counter and issues the scheduled
// eviction at the A boundary.
func (r *Ring) bumpRound() {
	r.roundCount++
	if r.roundCount >= r.cfg.A {
		r.roundCount = 0
		r.evictPathOp()
	}
}

// readPathOp performs one read path operation (real or dummy) along path
// p, appending the early-reshuffle ops it had to issue and the read-path
// op itself to the access's op list.
//
// wantTarget indicates id is mapped and expected in the tree; a dummy read
// path passes wantTarget=false and id=InvalidBlock.
func (r *Ring) readPathOp(kind OpKind, p PathID, id BlockID, wantTarget bool) {
	r.pathBuf = r.tree.Path(p, r.pathBuf[:0])
	path := r.pathBuf
	emitFrom := r.emitFrom()
	// Dummy read paths must not consume green blocks: background
	// eviction exists to shrink the stash, and a green fetch would grow
	// it. (A normal read path may use greens freely.)
	greenBudget := r.cfg.Y
	if kind == OpDummyReadPath {
		greenBudget = 0
	}

	// Locate the target along the path, including cached top levels. The
	// search runs from the leaf up: eviction places blocks as deep as
	// they fit, so in a sparsely filled tree the target almost always
	// sits near the leaf. A block is resident in at most one bucket
	// (checkLocations), so the order does not change the result.
	targetLevel := -1
	targetSlot := -1
	//oramlint:allow secret-branch target search only; with or without a target the emitted path reads exactly one slot per level
	if wantTarget {
		for lvl := len(path) - 1; lvl >= 0; lvl-- {
			if b := r.lookup(path[lvl]); b != nil {
				if s := r.findBlock(b, id); s >= 0 { //oramlint:allow secret-branch target lookup; the emitted path still reads exactly one untouched slot per level, and slot positions are a secret uniform permutation (Ring ORAM Sec. 3.2)
					targetLevel, targetSlot = lvl, s
					break
				}
			}
		}
		if targetLevel < 0 {
			// The position map says the block is in the tree but no
			// bucket on its path holds it: a protocol invariant is
			// broken and continuing would return wrong data.
			panic(fmt.Sprintf("oram: block %d mapped to path %d but absent from it", id, p))
		}
	}

	// Pre-pass: reshuffle any uncached bucket that cannot absorb one
	// more access. (Cached buckets carry no access budget.)
	for lvl := emitFrom; lvl < len(path); lvl++ {
		b := r.bucket(path[lvl])
		hasTarget := lvl == targetLevel
		if !b.canServe(hasTarget, r.cfg.S, greenBudget) { //oramlint:allow secret-branch reshuffle scheduling follows bucket metadata whose evolution is driven by the public access sequence and uniform dummy selection, not by which blocks are real (paper Sec. IV)
			r.earlyReshuffleOp(path[lvl], lvl)
			if hasTarget {
				// The reshuffle re-permuted the bucket.
				targetSlot = r.findBlock(b, id)
			}
		}
	}

	// The early reshuffles above are complete, so the read-path op can
	// be taken now (taking it earlier would pin a stale pointer across
	// the list growth).
	op := takeOp(&r.scr.ops, kind, p)

	// Cached-level target: pull it straight out of the on-chip bucket
	// (readSlot lists nothing above emitFrom); the DRAM path below is
	// then all dummies.
	if targetLevel >= 0 && targetLevel < emitFrom {
		r.fetchToStash(op, path[targetLevel], targetLevel, r.bucket(path[targetLevel]), targetSlot)
		targetLevel = -1
	}

	for lvl := emitFrom; lvl < len(path); lvl++ {
		idx := path[lvl]
		b := r.bucket(idx)
		b.Count++
		if invariant.Enabled {
			invariant.Assertf(int(b.Count) <= r.cfg.S, "bucket %d count %d exceeds access budget S=%d", idx, b.Count, r.cfg.S)
		}
		if lvl == targetLevel {
			r.fetchToStash(op, idx, lvl, b, targetSlot)
			continue
		}
		slot, green := r.sel.selectDummy(b, greenBudget)
		//oramlint:allow secret-branch the slot was already chosen and both arms read it once; a green block only rides along into the stash (CB, paper Sec. IV)
		if green {
			r.fetchToStash(op, idx, lvl, b, slot)
			r.stats.GreenFetches++
		} else {
			r.readSlot(op, idx, lvl, slot) // a dummy, discarded unopened
		}
	}
	r.stats.ReadPathBlocks += int64(len(op.Accesses))
}

// earlyReshuffleOp reshuffles one bucket in place: Z reads and a full
// bucket of writes, with fresh metadata and a fresh permutation. Resident
// real blocks pass through the stash and straight back into the bucket
// (re-permuted).
func (r *Ring) earlyReshuffleOp(idx int64, level int) {
	b := r.bucket(idx)
	op := takeOp(&r.scr.ops, OpEarlyReshuffle, r.tree.PathThrough(idx))
	r.refillBucket(op, idx, level, b, r.readBucketOp(op, idx, level, b))

	r.stats.EarlyReshuffles++
	r.stats.ReshuffleBlocks += int64(len(op.Accesses))
}

// readBucketOp is the read phase of a reshuffle or eviction on one
// bucket: its resident reals drain into the stash and, at uncached
// levels, padding slots are read and discarded unopened until exactly Z
// slots are read, so the count never reveals the bucket's real
// occupancy. It returns the drained blocks in slot order (aliasing
// scratch reused by the next call).
//
// Known weakness, kept bit-identical here (DESIGN.md "Security
// invariants", ROADMAP item 2): the reads list the slots that held reals
// first and then pad with the lowest-index other slots, so the order and
// the set of read slots are a function of the occupancy the count hides.
// Ring ORAM's ReadBucket pads with random valid dummies.
func (r *Ring) readBucketOp(op *Op, idx int64, level int, b *Bucket) []BlockID {
	slots, ids := r.scr.readSlots[:0], r.scr.blocks[:0]
	//oramlint:allow secret-branch reads one slot per resident real; the padding below brings the reads to exactly Z at every level that emits, and their order is the known weakness documented above
	//oramlint:allow secret-trip-count reads one slot per resident real; the padding below brings the reads to exactly Z at every level that emits, so the count the bus sees is fixed by the geometry
	for m := b.residents(); m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		slots, ids = append(slots, s), append(ids, r.fetchToStash(op, idx, level, b, s))
	}
	if level >= r.emitFrom() {
		for s := 0; len(slots) < r.cfg.Z && s < r.cfg.SlotsPerBucket(); s++ {
			if !slices.Contains(slots, s) {
				slots = append(slots, s)
				r.readSlot(op, idx, level, s)
			}
		}
	}
	r.scr.readSlots, r.scr.blocks = slots, ids
	return ids
}

// evictPathOp performs the deterministic EvictPath: along the next
// reverse-lexicographic path, every bucket's resident blocks move to the
// stash (Z reads per uncached bucket), then each bucket is refilled as
// deep as possible from the stash and fully rewritten (Z+S-Y writes).
func (r *Ring) evictPathOp() {
	p := r.tree.EvictPathFor(r.evictCount)
	r.evictCount++
	r.pathBuf = r.tree.Path(p, r.pathBuf[:0])
	path := r.pathBuf

	op := takeOp(&r.scr.ops, OpEvictPath, p)
	for lvl, idx := range path {
		r.readBucketOp(op, idx, lvl, r.bucket(idx))
	}
	r.refillPath(op, p, path)

	r.stats.EvictPaths++
	r.stats.EvictBlocks += int64(len(op.Accesses))
}

// CheckInvariants verifies the protocol invariants and returns the first
// violation found. It is O(touched slots + mapped blocks); Load runs it on
// every checkpoint, since a state that breaks one panics a later access.
func (r *Ring) CheckInvariants() error {
	if err := r.checkLocations(); err != nil {
		return err
	}
	// Bucket budgets, in ascending bucket order so the first reported
	// violation is the same run to run.
	var err error
	r.eachBucket(func(idx int64, b *Bucket) {
		switch {
		case err != nil:
		case int(b.Count) > r.cfg.S:
			err = fmt.Errorf("oram: bucket %d count %d exceeds S=%d", idx, b.Count, r.cfg.S)
		case int(b.Green) > r.cfg.Y:
			err = fmt.Errorf("oram: bucket %d green %d exceeds Y=%d", idx, b.Green, r.cfg.Y)
		case b.realBlocks() > r.cfg.Z:
			err = fmt.Errorf("oram: bucket %d holds %d real blocks, Z=%d", idx, b.realBlocks(), r.cfg.Z)
		}
	})
	if err != nil {
		return err
	}
	if r.stash.Len() > r.stash.Cap() {
		return fmt.Errorf("oram: stash %d over capacity %d", r.stash.Len(), r.stash.Cap())
	}
	return nil
}
