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
// trees cost memory proportional to the touched region only. It keeps the
// controller's contract that a bucket is written whole: a slot of a
// touched bucket reads as what was last written to it, zero bytes until
// then. Every slot of one store holds the same number of sealed bytes (a
// block plus the sealing overhead); the first write fixes it.
//
// The touched buckets live in an arena: bucket bodies (every slot's sealed
// bytes side by side) back to back in chunks of chunkBuckets bodies, in
// the order the buckets were first written, and an index maps a bucket to
// 1 + its arena position. A slot read is that one index load and address
// arithmetic, touching none of the slot's bytes, so a dummy read whose
// bytes are never opened touches no cold memory. Chunks are never moved
// or freed, so a ReadSlot slice stays valid as the arena grows, and
// steady-state writes, which rewrite a body in place, allocate nothing.
type MemStore struct {
	// index maps a bucket to 1 + its arena position, 0 meaning never
	// written. An int32 keeps the dense index small; 2^31 buckets at the
	// serving geometry would be 1.5 TiB of arena.
	index   table[int32]
	chunks  [][]byte // chunkBuckets bodies of perBkt·slotLen bytes each
	perBkt  int
	slotLen int // sealed bytes per slot; -1 until the first write
}

// chunkBuckets is the number of bucket bodies in one arena chunk (a power
// of two, so a position splits into chunk and offset by shift and mask):
// 48 KiB at the serving geometry's 12 slots of 64 bytes, which bounds the
// arena's unused tail.
const (
	chunkShift   = 6
	chunkBuckets = 1 << chunkShift
)

// NewMemStore returns an empty in-memory store for buckets with the given
// number of slots.
func NewMemStore(slotsPerBucket int) *MemStore {
	return &MemStore{index: newTable[int32](denseBound), perBkt: slotsPerBucket, slotLen: -1}
}

// ReadSlot implements Store.
func (m *MemStore) ReadSlot(bucket int64, slot int) []byte {
	m.checkSlot(slot)
	i := m.index.get(bucket)
	if i == 0 {
		return nil
	}
	return m.slot(i-1, slot)
}

// WriteSlot implements Store.
func (m *MemStore) WriteSlot(bucket int64, slot int, sealed []byte) {
	if m.slotLen != len(sealed) {
		if m.slotLen >= 0 {
			panic(fmt.Sprintf("oram: MemStore holds %d-byte slots, WriteSlot got %d bytes", m.slotLen, len(sealed)))
		}
		m.slotLen = len(sealed)
	}
	m.checkSlot(slot)
	i := m.index.get(bucket)
	if i == 0 {
		n := m.index.len()
		if n%chunkBuckets == 0 {
			m.chunks = append(m.chunks, make([]byte, chunkBuckets*m.perBkt*m.slotLen))
		}
		i = int32(n) + 1
		m.index.set(bucket, i)
	}
	copy(m.slot(i-1, slot), sealed)
}

// checkSlot panics on a slot outside the bucket: in the arena such a slot
// would address the neighbouring bucket's bytes.
func (m *MemStore) checkSlot(slot int) {
	if uint(slot) >= uint(m.perBkt) {
		panic(fmt.Sprintf("oram: MemStore slot %d outside [0, %d)", slot, m.perBkt))
	}
}

// slot returns the given slot of the body at arena position pos, its
// capacity ending at the slot so that an append cannot reach the next one.
func (m *MemStore) slot(pos int32, slot int) []byte {
	off := (int(pos&(chunkBuckets-1))*m.perBkt + slot) * m.slotLen
	return m.chunks[pos>>chunkShift][off : off+m.slotLen : off+m.slotLen]
}

// TouchedBuckets returns how many buckets have materialized storage.
func (m *MemStore) TouchedBuckets() int { return m.index.len() }

// eachBucket visits the touched buckets in ascending index order, each as
// one sealed slice per slot (aliasing the store): the checkpoint's view
// of the store.
func (m *MemStore) eachBucket(fn func(bucket int64, slots [][]byte)) {
	m.index.ascending(func(bucket int64, i int32) {
		slots := make([][]byte, m.perBkt)
		for s := range slots {
			slots[s] = m.slot(i-1, s)
		}
		fn(bucket, slots)
	})
}
