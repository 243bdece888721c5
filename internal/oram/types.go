// Package oram implements the Ring ORAM protocol with the String ORAM
// Compact Bucket (CB) extension, plus a Path ORAM baseline.
//
// The package serves two callers:
//
//   - The functional library API (Ring.Read / Ring.Write with a Store):
//     real data blocks move through encrypted bucket slots, the stash and
//     the position map exactly as the protocol prescribes.
//   - The timing simulator (internal/sim): every protocol operation also
//     returns the precise sequence of physical slot accesses it performed,
//     which the simulator replays against the cycle-accurate DRAM model.
//
// Terminology follows the paper: a bucket holds Z real slots and S dummy
// slots; with CB only S-Y dummy slots are physically reserved and up to Y
// real blocks per bucket may be consumed as dummies ("green blocks");
// one EvictPath runs after every A ReadPath operations, on paths in
// reverse lexicographic order; a bucket touched S times must be reshuffled.
package oram

import "fmt"

// BlockID identifies a logical data block (a cache-line-sized unit of the
// program's address space). IDs are block addresses: byteAddr / BlockSize.
type BlockID int64

// InvalidBlock is the sentinel for "no block".
const InvalidBlock BlockID = -1

// PathID identifies a path (equivalently, a leaf) in the ORAM tree,
// in [0, 2^L).
type PathID int64

// OpKind classifies an ORAM operation; each operation becomes one memory
// transaction in the timing simulator.
type OpKind uint8

const (
	// OpReadPath is a read path operation: one block per bucket along
	// the target path.
	OpReadPath OpKind = iota
	// OpDummyReadPath is a read path issued by leakage-free background
	// eviction: indistinguishable on the bus from OpReadPath.
	OpDummyReadPath
	// OpEvictPath is the deterministic eviction after every A read paths.
	OpEvictPath
	// OpEarlyReshuffle rewrites buckets whose access budget is exhausted.
	OpEarlyReshuffle
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpReadPath:
		return "read-path"
	case OpDummyReadPath:
		return "dummy-read-path"
	case OpEvictPath:
		return "evict-path"
	case OpEarlyReshuffle:
		return "early-reshuffle"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Access is one physical slot access within an operation. Bucket is the
// global bucket index (heap order), Level its tree level, Slot the physical
// slot within the bucket. Accesses at cached tree-top levels are never
// emitted; the controller filters them out.
type Access struct {
	Bucket int64
	Level  int
	Slot   int
	Write  bool
}

// Op is one ORAM operation and the physical accesses it performed, in
// issue order. The timing simulator treats each Op as one transaction.
type Op struct {
	Kind     OpKind
	Path     PathID
	Accesses []Access
}

// Reads returns the number of read accesses in the operation.
func (op *Op) Reads() int {
	n := 0
	for _, a := range op.Accesses {
		if !a.Write {
			n++
		}
	}
	return n
}

// Writes returns the number of write accesses in the operation.
func (op *Op) Writes() int {
	return len(op.Accesses) - op.Reads()
}

// Stats aggregates protocol-level counters for one Ring instance.
type Stats struct {
	// Logical requests served.
	Reads  int64
	Writes int64

	// Operations issued. ReadPaths counts the read paths that serve a
	// request; BackgroundDummyReads counts the others.
	ReadPaths       int64
	EvictPaths      int64
	EarlyReshuffles int64

	// Physical block accesses, split by operation kind.
	ReadPathBlocks  int64
	EvictBlocks     int64
	ReshuffleBlocks int64

	// CB counters.
	GreenFetches         int64 // real blocks consumed as dummies
	BackgroundEvictions  int64 // evictions triggered by stash pressure
	BackgroundDummyReads int64 // dummy read paths issued to reach the A boundary

	StashPeak int64 // maximum stash occupancy observed
}

// GreenPerReadPath returns the average number of green blocks fetched per
// (real) read path operation, the metric of Fig. 13.
func (s *Stats) GreenPerReadPath() float64 {
	if s.ReadPaths == 0 {
		return 0
	}
	return float64(s.GreenFetches) / float64(s.ReadPaths)
}
