package oram

// stashEntry is one block buffered in the on-chip stash. Data is nil in
// timing-only mode (no Store attached). Entries are stored by value in
// the map so that Put/Remove cycling allocates nothing in steady state.
type stashEntry struct {
	path PathID `oramlint:"secret"`
	data []byte `oramlint:"secret,scratch"`
}

// Stash is the bounded on-chip buffer that holds blocks between a read
// path and their eviction back into the tree. It lives inside the secure
// boundary, so its contents are invisible to the memory-bus adversary.
type Stash struct {
	entries map[BlockID]stashEntry `oramlint:"secret,scratch"`
	cap     int
}

// NewStash returns an empty stash with the given capacity in blocks.
func NewStash(capacity int) *Stash {
	return &Stash{entries: make(map[BlockID]stashEntry), cap: capacity}
}

// Len returns the current occupancy in blocks.
func (s *Stash) Len() int { return len(s.entries) }

// Cap returns the capacity in blocks.
func (s *Stash) Cap() int { return s.cap }

// Contains reports whether the block is buffered.
func (s *Stash) Contains(id BlockID) bool {
	_, ok := s.entries[id]
	return ok
}

// Put inserts or replaces a block, taking ownership of data. The caller
// is responsible for capacity policy (background eviction); Put itself
// never fails so that the protocol can always complete an in-flight
// operation.
//
// It returns the data buffer displaced by a replacement (nil when the
// block was absent, had no data, or was re-inserted with its own
// buffer), so buffer-pooling callers can recycle it.
func (s *Stash) Put(id BlockID, path PathID, data []byte) (displaced []byte) {
	prev, existed := s.entries[id]
	s.entries[id] = stashEntry{path: path, data: data}
	if !existed || prev.data == nil {
		return nil
	}
	// Guard against handing back the very buffer just stored (a caller
	// re-Putting an entry's own data slice must not see it recycled).
	if len(data) > 0 && len(prev.data) > 0 && &data[0] == &prev.data[0] {
		return nil
	}
	//oramlint:allow scratch-return the displaced buffer is an ownership transfer by contract: the stash has dropped its reference and the caller recycles the buffer into the pool
	return prev.data
}

// Get returns the buffered data for the block, or nil. The slice remains
// owned by the stash: callers must not retain it past the next mutation.
func (s *Stash) Get(id BlockID) []byte {
	if e, ok := s.entries[id]; ok {
		//oramlint:allow scratch-return the slice stays stash-owned by the documented API contract: callers must not retain it past the next mutation (snapshotting copies)
		return e.data
	}
	return nil
}

// SetPath updates the assigned path of a buffered block (remap-on-access).
func (s *Stash) SetPath(id BlockID, path PathID) {
	if e, ok := s.entries[id]; ok {
		e.path = path
		s.entries[id] = e
	}
}

// Path returns the assigned path of a buffered block. ok is false when the
// block is not buffered.
func (s *Stash) Path(id BlockID) (PathID, bool) {
	e, ok := s.entries[id]
	if !ok {
		return 0, false
	}
	return e.path, true
}

// Remove deletes the block and returns its data (nil in timing mode).
// Ownership of the returned buffer transfers to the caller.
func (s *Stash) Remove(id BlockID) []byte {
	e, ok := s.entries[id]
	if !ok {
		return nil
	}
	delete(s.entries, id)
	//oramlint:allow scratch-return ownership of the removed buffer transfers to the caller by contract: the stash entry is gone, so no aliasing remains on this side
	return e.data
}

// ForEach visits every buffered block. Mutating the stash during the walk
// is not allowed.
func (s *Stash) ForEach(fn func(id BlockID, path PathID)) {
	for id, e := range s.entries {
		fn(id, e.path) //oramlint:allow maprange visit order is unspecified by contract; order-sensitive callers must collect and sort (see Ring.placeForEvict, Ring.Save)
	}
}
