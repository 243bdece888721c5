// Package oblpos exercises the oblivious analyzer: secret-dependent
// branches inside address-emitting code paths must be reported.
package oblpos

// Access is one bus-visible physical access (the emit type the
// analyzer is configured with).
type Access struct {
	Addr uint64
	Read bool
}

// Slot is one bucket slot; the real/dummy identity is secret.
type Slot struct {
	Valid bool
	Real  bool `oramlint:"secret"`
	ID    int  `oramlint:"secret"`
}

// Bucket holds slots plus the secret green-block counter.
type Bucket struct {
	Slots []Slot
	Green int `oramlint:"secret"`
}

// Ring issues accesses onto the bus.
type Ring struct {
	Accesses []Access
}

func (r *Ring) emit(addr uint64) {
	r.Accesses = append(r.Accesses, Access{Addr: addr, Read: true})
}

// readBucket branches directly on the secret Real bit while emitting.
func (r *Ring) readBucket(b *Bucket, base uint64) {
	for i := range b.Slots {
		if b.Slots[i].Real { // want secret-branch
			r.emit(base + uint64(i))
		}
	}
}

// isReal reads the secret but emits nothing itself; it taints callers.
func (r *Ring) isReal(b *Bucket, i int) bool {
	return b.Slots[i].Real
}

// viaHelper branches on a secret-reading helper call while emitting.
func (r *Ring) viaHelper(b *Bucket, base uint64) {
	for i := range b.Slots {
		if r.isReal(b, i) { // want secret-branch
			r.emit(base)
		}
	}
}

// viaSwitch branches on the secret green counter in a case expression.
func (r *Ring) viaSwitch(b *Bucket, base uint64) {
	switch {
	case b.Green > 0: // want secret-branch
		r.emit(base)
	default:
		r.emit(base + 1)
	}
}

// viaInit hides the secret read in the if-init statement.
func (r *Ring) viaInit(b *Bucket, base uint64) {
	if id := b.Slots[0].ID; id >= 0 { // want secret-branch
		r.emit(base)
	}
}

// transitive emits only through a callee, but branches on a secret:
// address relevance must propagate up the call chain.
func (r *Ring) transitive(b *Bucket, base uint64) {
	if b.Green > 0 { // want secret-branch
		r.readBucket(b, base)
	}
}

// Stash holds secret contents; its occupancy must not steer emission.
type Stash struct {
	entries map[int]uint64 `oramlint:"secret"`
}

// drain iterates the secret stash, emitting once per entry: the trip
// count leaks the occupancy.
func (r *Ring) drain(s *Stash, base uint64) {
	for range s.entries { // want secret-branch secret-trip-count
		r.emit(base)
	}
}

// table is a generic keyed index shaped like oram's: a slice for small
// keys. The tag lives on the field that holds one, not inside it.
type table[V comparable] struct {
	dense []V
}

func (t *table[V]) get(k int64) V { return t.dense[k] }

// PosMap keeps the secret block-to-path mapping in a tagged table, the
// layout that replaced a tagged map.
type PosMap struct {
	paths table[int64] `oramlint:"secret"`
}

// viaTable branches on a lookup in the tagged table while emitting: the
// tag follows the data out of the map it used to live in.
func (r *Ring) viaTable(pm *PosMap, id int64, base uint64) {
	if pm.paths.get(id) > 0 { // want secret-branch
		r.emit(base)
	}
	if pm.paths.dense[id] > 0 { // want secret-branch
		r.emit(base)
	}
}

// The shapes below keep the secret in a local between the read and the
// branch; the taint engine follows it there.

// viaLookupOk branches on the ok bit of a secret-map lookup made in an
// earlier statement.
func (r *Ring) viaLookupOk(s *Stash, id int, base uint64) {
	_, ok := s.entries[id]
	if ok { // want secret-branch
		r.emit(base)
	}
}

// viaLocalCopy branches on a local copied out of a secret field.
func (r *Ring) viaLocalCopy(b *Bucket, base uint64) {
	real := b.Slots[0].Real
	if real { // want secret-branch
		r.emit(base)
	}
}

// viaDerivedSlice ranges over a local slice built from secret ids: the
// trip count is the secret occupancy.
func (r *Ring) viaDerivedSlice(b *Bucket, base uint64) {
	var ids []int
	for _, s := range b.Slots {
		ids = append(ids, s.ID)
	}
	for range ids { // want secret-branch secret-trip-count
		r.emit(base)
	}
}
