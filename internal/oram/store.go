package oram

// Store is the untrusted block storage behind the ORAM controller: it
// holds one sealed (encrypted) blob per physical slot and knows nothing
// about which slots are real. A nil Store puts the controller in
// timing-only mode: all metadata and access sequences are exact but no
// data bytes move.
//
// Buffer ownership: WriteSlot must not retain sealed after it returns
// (the controller passes a reused scratch buffer — implementations copy);
// the slice ReadSlot returns stays owned by the store and is valid only
// until the next WriteSlot to the same slot.
type Store interface {
	// ReadSlot returns the sealed bytes last written to the slot, or nil
	// if the slot was never written.
	ReadSlot(bucket int64, slot int) []byte
	// WriteSlot replaces the slot's sealed bytes with a copy of sealed.
	WriteSlot(bucket int64, slot int, sealed []byte)
}

// MemStore is an in-memory Store. Slots are materialized lazily, so huge
// trees cost memory proportional to the touched region only; each slot's
// backing buffer is allocated once and rewritten in place, so steady-state
// writes allocate nothing.
type MemStore struct {
	slots  map[int64][][]byte
	perBkt int
}

// NewMemStore returns an empty in-memory store for buckets with the given
// number of slots.
func NewMemStore(slotsPerBucket int) *MemStore {
	return &MemStore{slots: make(map[int64][][]byte), perBkt: slotsPerBucket}
}

// ReadSlot implements Store.
func (m *MemStore) ReadSlot(bucket int64, slot int) []byte {
	b, ok := m.slots[bucket]
	if !ok {
		return nil
	}
	return b[slot]
}

// WriteSlot implements Store.
func (m *MemStore) WriteSlot(bucket int64, slot int, sealed []byte) {
	b, ok := m.slots[bucket]
	if !ok {
		b = make([][]byte, m.perBkt)
		m.slots[bucket] = b
	}
	buf := b[slot]
	if cap(buf) < len(sealed) {
		buf = make([]byte, len(sealed))
	}
	buf = buf[:len(sealed)]
	copy(buf, sealed)
	b[slot] = buf
}

// TouchedBuckets returns how many buckets have materialized storage.
func (m *MemStore) TouchedBuckets() int { return len(m.slots) }
