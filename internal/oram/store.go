package oram

import "fmt"

// Store is the untrusted block storage behind the ORAM controller: it
// holds one sealed (encrypted) blob per physical slot and knows nothing
// about which slots are real. The controller reads exactly the slots its
// op list names, in order, real and dummy alike (treeCore.readSlot), and
// writes a bucket whole or not at all. A nil Store puts the controller
// in timing-only mode: all metadata and access sequences are exact but
// no data bytes move.
//
// Buffer ownership: WriteSlot must not retain sealed after it returns
// (the controller passes a reused scratch buffer — implementations copy);
// the slice ReadSlot returns stays owned by the store and is valid only
// until the next WriteSlot to the same bucket.
type Store interface {
	// ReadSlot returns the sealed bytes last written to the slot, or nil
	// if its bucket was never written.
	ReadSlot(bucket int64, slot int) []byte
	// WriteSlot replaces the slot's sealed bytes with a copy of sealed.
	WriteSlot(bucket int64, slot int, sealed []byte)
}

// MemStore is an in-memory Store. Buckets are materialized lazily, so huge
// trees cost memory proportional to the touched region only. A touched
// bucket is one allocation, every slot's sealed bytes side by side,
// rewritten in place, so steady-state writes allocate nothing. It keeps
// the controller's contract that a bucket is written whole: a slot of a
// touched bucket reads as what was last written to it, zero bytes until
// then. Every slot of one store holds the same number of sealed bytes (a
// block plus the sealing overhead); the first write fixes it.
type MemStore struct {
	buckets table[*storeBucket]
	perBkt  int
	slotLen int // sealed bytes per slot; -1 until the first write
}

// storeBucket is one touched bucket: perBkt slots of slotLen bytes.
type storeBucket struct{ buf []byte }

// NewMemStore returns an empty in-memory store for buckets with the given
// number of slots.
func NewMemStore(slotsPerBucket int) *MemStore {
	return &MemStore{buckets: newTable[*storeBucket](denseBound), perBkt: slotsPerBucket, slotLen: -1}
}

// ReadSlot implements Store.
func (m *MemStore) ReadSlot(bucket int64, slot int) []byte {
	b := m.buckets.get(bucket)
	if b == nil {
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
		b = &storeBucket{buf: make([]byte, m.perBkt*m.slotLen)}
		m.buckets.set(bucket, b)
	}
	copy(b.buf[slot*m.slotLen:(slot+1)*m.slotLen], sealed)
}

// TouchedBuckets returns how many buckets have materialized storage.
func (m *MemStore) TouchedBuckets() int { return m.buckets.len() }

// eachBucket visits the touched buckets in ascending index order, each as
// one sealed slice per slot (aliasing the store): the checkpoint's view
// of the store.
func (m *MemStore) eachBucket(fn func(bucket int64, slots [][]byte)) {
	m.buckets.ascending(func(bucket int64, _ *storeBucket) {
		slots := make([][]byte, m.perBkt)
		for s := range slots {
			slots[s] = m.ReadSlot(bucket, s)
		}
		fn(bucket, slots)
	})
}
