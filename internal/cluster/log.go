package cluster

import (
	"errors"
	"fmt"
	"sync"

	"stringoram/internal/server"
)

// ErrLogTrimmed reports an Encode asking for entries the ring buffer
// has already overwritten; the caller must fall back to a full snapshot
// instead of a tail replay.
var ErrLogTrimmed = errors.New("cluster: op log trimmed past requested sequence")

// entry is one applied write, at slot seq%cap of its log. key and val
// are copies owned by the log (the ring reuses their backing arrays
// across generations, carving first-touch buffers out of the log's
// arena — hence the scratch tag).
type entry struct {
	key []byte `oramlint:"secret,scratch"`
	val []byte `oramlint:"secret,scratch"`
}

// DefaultLogCap is the per-shard ring capacity: enough tail to cover a
// handoff's final replay window without unbounded memory.
const DefaultLogCap = 8192

// Log is a fixed-capacity append-only op log for one shard, kept as a
// ring buffer: entry seq lives at slot seq%cap until overwritten by
// seq+cap. Append reuses each slot's Key/Val backing arrays, so the
// steady-state apply path does not allocate once the ring has warmed to
// the workload's key/value sizes.
//
// Appends happen on the shard's worker goroutine; Encode is called
// concurrently by the replication sender and handoff, hence the mutex.
type Log struct {
	mu      sync.Mutex
	cap     int
	entries []entry // allocated on first Append (nodes hold a Log per global shard)
	first   uint64  // oldest sequence still resident, 0 when empty
	last    uint64  // newest sequence appended, 0 when empty

	// arena bump-allocates first-touch entry buffers in chunks, so
	// warming the ring costs one allocation per chunk instead of two per
	// entry (8192 entries would otherwise take thousands of appends to
	// amortize). Entries keep their slices across generations; the arena
	// is only consulted when an entry lacks capacity.
	arena []byte `oramlint:"secret,scratch"`
}

// logArenaChunk is the arena growth quantum.
const logArenaChunk = 1 << 16

// alloc carves an n-byte buffer out of the arena (a dedicated
// allocation for oversized requests). Caller holds l.mu.
func (l *Log) alloc(n int) []byte {
	if n > logArenaChunk/4 {
		return make([]byte, 0, n) // oversized: don't burn arena chunks
	}
	if n > len(l.arena) {
		l.arena = make([]byte, logArenaChunk)
	}
	b := l.arena[:0:n]
	l.arena = l.arena[n:]
	return b
}

// NewLog builds an empty log with the given ring capacity (0 means
// DefaultLogCap). The ring itself is allocated on first Append.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultLogCap
	}
	return &Log{cap: capacity}
}

// Append records one applied write. Sequences must arrive in order
// (they are produced by the shard worker, which is single-threaded).
func (l *Log) Append(seq uint64, key string, val []byte) {
	l.mu.Lock()
	if l.entries == nil {
		l.entries = make([]entry, l.cap)
	}
	e := &l.entries[seq%uint64(len(l.entries))]
	if cap(e.key) < len(key) {
		e.key = l.alloc(len(key))
	}
	if cap(e.val) < len(val) {
		e.val = l.alloc(len(val))
	}
	e.key = append(e.key[:0], key...)
	e.val = append(e.val[:0], val...)
	if l.first == 0 {
		l.first = seq
	} else if seq-l.first >= uint64(len(l.entries)) {
		// The ring wrapped: the oldest resident entry is now seq-cap+1.
		l.first = seq + 1 - uint64(len(l.entries))
	}
	l.last = seq
	l.mu.Unlock()
}

// Bounds reports the resident sequence window [first, last]; both are 0
// when the log is empty.
func (l *Log) Bounds() (first, last uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first, l.last
}

// Encode adds entries (from, to] to f in sequence order, straight from
// the ring under the log's lock, until f is full, and returns the newest
// entry added. It fails with ErrLogTrimmed when the ring no longer holds
// entry from+1 or does not yet hold to. from == to adds nothing.
func (l *Log) Encode(f *server.ReplicateFrame, from, to uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from >= to {
		return from, nil
	}
	if l.first == 0 || from+1 < l.first || to > l.last {
		return from, fmt.Errorf("%w: want (%d,%d], have [%d,%d]", ErrLogTrimmed, from, to, l.first, l.last)
	}
	last := from
	for seq := from + 1; seq <= to; seq++ {
		e := &l.entries[seq%uint64(len(l.entries))]
		if !f.Add(seq, e.key, e.val) {
			break
		}
		last = seq
	}
	if last == from {
		return from, fmt.Errorf("cluster: op-log entry %d does not fit a replication frame", from+1)
	}
	return last, nil
}
