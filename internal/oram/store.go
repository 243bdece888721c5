package oram

import "fmt"

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

// MemStore is an in-memory Store. Buckets are materialized lazily, so huge
// trees cost memory proportional to the touched region only. A touched
// bucket is one allocation — every slot's sealed bytes side by side,
// followed by one written-flag per slot — rewritten in place, so
// steady-state writes allocate nothing. Every slot of one store holds the
// same number of sealed bytes (a block plus the sealing overhead); the
// first write fixes it.
type MemStore struct {
	buckets table[*storeBucket]
	perBkt  int
	slotLen int // sealed bytes per slot; -1 until the first write
}

// storeBucket is one touched bucket: perBkt slots of slotLen bytes, then
// perBkt flags marking the slots that have been written.
type storeBucket struct{ buf []byte }

// NewMemStore returns an empty in-memory store for buckets with the given
// number of slots.
func NewMemStore(slotsPerBucket int) *MemStore {
	return &MemStore{buckets: newTable[*storeBucket](denseBound), perBkt: slotsPerBucket, slotLen: -1}
}

// ReadSlot implements Store.
func (m *MemStore) ReadSlot(bucket int64, slot int) []byte {
	b := m.buckets.get(bucket)
	if b == nil || b.buf[m.perBkt*m.slotLen+slot] == 0 {
		return nil
	}
	return b.buf[slot*m.slotLen : (slot+1)*m.slotLen : (slot+1)*m.slotLen]
}

// WriteSlot implements Store.
func (m *MemStore) WriteSlot(bucket int64, slot int, sealed []byte) {
	if m.slotLen != len(sealed) {
		if m.slotLen >= 0 {
			panic(fmt.Sprintf("oram: MemStore holds %d-byte slots, WriteSlot got %d bytes", m.slotLen, len(sealed)))
		}
		m.slotLen = len(sealed)
	}
	b := m.buckets.get(bucket)
	if b == nil {
		b = &storeBucket{buf: make([]byte, m.perBkt*(m.slotLen+1))}
		m.buckets.set(bucket, b)
	}
	copy(b.buf[slot*m.slotLen:(slot+1)*m.slotLen], sealed)
	b.buf[m.perBkt*m.slotLen+slot] = 1
}

// TouchedBuckets returns how many buckets have materialized storage.
func (m *MemStore) TouchedBuckets() int { return m.buckets.len() }

// eachBucket visits the touched buckets in ascending index order, each as
// one sealed slice per slot (aliasing the store) with nil for a slot never
// written: the checkpoint's view of the store.
func (m *MemStore) eachBucket(fn func(bucket int64, slots [][]byte)) {
	m.buckets.ascending(func(bucket int64, _ *storeBucket) {
		slots := make([][]byte, m.perBkt)
		for s := range slots {
			slots[s] = m.ReadSlot(bucket, s)
		}
		fn(bucket, slots)
	})
}
