package oram

import "math/bits"

// stashEntry is one block buffered in the on-chip stash. Data is nil in
// timing-only mode (no Store attached).
type stashEntry struct {
	id   BlockID `oramlint:"secret"`
	path PathID  `oramlint:"secret"`
	data []byte  `oramlint:"secret,scratch"`
}

// Stash is the bounded on-chip buffer that holds blocks between a read
// path and their eviction back into the tree. It lives inside the secure
// boundary, so its contents are invisible to the memory-bus adversary.
//
// The blocks sit densely in one slice, in no particular order (Remove
// moves the last entry into the gap), so placement, checkpointing and
// ForEach walk a slice. Lookup by id goes through a small open-addressed
// hash (linear probing, deletion by backward shift, so no tombstones):
// index holds, per hash slot, the entry's position in entries plus one,
// 0 for an empty slot. Its length is a power of two and at least twice
// the occupancy, and Put/Remove cycling allocates nothing once both
// slices have reached the stash's working size.
type Stash struct {
	entries []stashEntry `oramlint:"secret,scratch"`
	index   []int32      `oramlint:"secret"`
	shift   uint         // 64 - log2(len(index)): a hash's top bits pick the slot
	cap     int
}

// stashMinIndex is the initial index size, in slots.
const stashMinIndex = 16

// NewStash returns an empty stash with the given capacity in blocks.
func NewStash(capacity int) *Stash {
	s := &Stash{cap: capacity}
	s.rehash(stashMinIndex)
	return s
}

// rehash rebuilds the index with the given power-of-two slot count.
func (s *Stash) rehash(slots int) {
	s.index = make([]int32, slots)
	s.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	for i := range s.entries {
		s.index[s.probe(s.entries[i].id)] = int32(i + 1)
	}
}

// probe returns the index slot that holds id, or the empty slot that ends
// id's probe sequence. The walk's length depends on which ids are
// buffered; like every stash operation it runs inside the controller and
// emits nothing, and SECURITY.md's adversary observes the bus, not
// controller-internal lookup time.
func (s *Stash) probe(id BlockID) int {
	mask := len(s.index) - 1
	for h := s.home(id); ; h = (h + 1) & mask {
		if p := s.index[h]; p == 0 || s.entries[p-1].id == id {
			return h
		}
	}
}

// home returns the slot id's probe sequence starts at (Fibonacci hashing:
// block ids are small consecutive integers, which the multiply spreads).
func (s *Stash) home(id BlockID) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> s.shift)
}

// find returns the buffered entry for id, or nil. The pointer is valid
// until the next Put or Remove.
func (s *Stash) find(id BlockID) *stashEntry {
	if p := s.index[s.probe(id)]; p != 0 {
		return &s.entries[p-1]
	}
	return nil
}

// Len returns the current occupancy in blocks.
func (s *Stash) Len() int { return len(s.entries) }

// Cap returns the capacity in blocks.
func (s *Stash) Cap() int { return s.cap }

// Contains reports whether the block is buffered.
func (s *Stash) Contains(id BlockID) bool { return s.find(id) != nil }

// Put inserts or replaces a block, taking ownership of data. The caller
// is responsible for capacity policy (background eviction); Put itself
// never fails so that the protocol can always complete an in-flight
// operation.
//
// It returns the data buffer displaced by a replacement (nil when the
// block was absent, had no data, or was re-inserted with its own
// buffer), so buffer-pooling callers can recycle it.
func (s *Stash) Put(id BlockID, path PathID, data []byte) (displaced []byte) {
	h := s.probe(id)
	p := s.index[h]
	if p == 0 {
		s.entries = append(s.entries, stashEntry{id: id, path: path, data: data})
		s.index[h] = int32(len(s.entries))
		if 2*len(s.entries) > len(s.index) {
			s.rehash(2 * len(s.index))
		}
		return nil
	}
	e := &s.entries[p-1]
	prev := e.data
	e.path, e.data = path, data
	// Guard against handing back the very buffer just stored (a caller
	// re-Putting an entry's own data slice must not see it recycled).
	if len(data) > 0 && len(prev) > 0 && &data[0] == &prev[0] {
		return nil
	}
	//oramlint:allow scratch-return the displaced buffer is an ownership transfer by contract: the stash has dropped its reference and the caller recycles the buffer into the pool
	return prev
}

// Get returns the buffered data for the block, or nil. The slice remains
// owned by the stash: callers must not retain it past the next mutation.
func (s *Stash) Get(id BlockID) []byte {
	if e := s.find(id); e != nil {
		//oramlint:allow scratch-return the slice stays stash-owned by the documented API contract: callers must not retain it past the next mutation (snapshotting copies)
		return e.data
	}
	return nil
}

// SetPath updates the assigned path of a buffered block (remap-on-access).
func (s *Stash) SetPath(id BlockID, path PathID) {
	if e := s.find(id); e != nil {
		e.path = path
	}
}

// Remove deletes the block and returns its data (nil in timing mode).
// Ownership of the returned buffer transfers to the caller.
func (s *Stash) Remove(id BlockID) []byte {
	h := s.probe(id)
	p := s.index[h]
	if p == 0 {
		return nil
	}
	// Close the gap at h: an entry further along the probe run moves back
	// into it unless its home slot lies strictly between the gap and the
	// entry, in which case a lookup starting at its home would miss it.
	mask := len(s.index) - 1
	for j := (h + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		home := s.home(s.entries[s.index[j]-1].id)
		if (j-home)&mask >= (j-h)&mask {
			s.index[h] = s.index[j]
			h = j
		}
	}
	s.index[h] = 0
	// Fill the entry's place with the last entry and repoint its slot.
	i, last := int(p-1), len(s.entries)-1
	data := s.entries[i].data
	if i != last {
		s.entries[i] = s.entries[last]
		s.index[s.probe(s.entries[i].id)] = p
	}
	s.entries[last] = stashEntry{}
	s.entries = s.entries[:last]
	//oramlint:allow scratch-return ownership of the removed buffer transfers to the caller by contract: the stash entry is gone, so no aliasing remains on this side
	return data
}

// ForEach visits every buffered block, in an order that depends on the
// history of insertions and removals: order-sensitive callers collect and
// sort (see treeCore.placeOnPath, Ring.Save). Mutating the stash during
// the walk is not allowed.
func (s *Stash) ForEach(fn func(id BlockID, path PathID)) {
	for i := range s.entries {
		fn(s.entries[i].id, s.entries[i].path)
	}
}
