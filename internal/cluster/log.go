package cluster

import (
	"errors"
	"fmt"
	"sync"

	"stringoram/internal/server"
)

// ErrLogTrimmed reports an Encode asking for entries the log has
// already dropped; the caller must fall back to a full snapshot instead
// of a tail replay.
var ErrLogTrimmed = errors.New("cluster: op log trimmed past requested sequence")

// DefaultLogCap is the per-shard entry bound: enough tail to cover a
// handoff's final replay window without unbounded memory.
const DefaultLogCap = 8192

// logRec locates one resident entry in its log's byte FIFO: the key
// starts at absolute position pos and the value follows it.
type logRec struct {
	pos        uint64
	klen, vlen uint32
}

// logMinRecs is the record ring's first length; it doubles up to the
// log's cap.
const logMinRecs = 64

// Log is a bounded append-only op log for one shard: it holds the
// newest cap entries at most, and its memory grows with what it holds.
// Two pointer-free buffers keep it. recs has entry seq's record at
// recs[seq%len(recs)], and buf is a byte FIFO with each entry's key and
// value back to back, in sequence order. Positions in buf are absolute
// (buf[0] is position base), so dropping the oldest entry only moves
// first, and compacting only moves base. Once both buffers have grown to
// the workload, Append does not allocate.
//
// Appends happen on the shard's worker goroutine; Encode is called
// concurrently by the replication sender and handoff, hence the mutex.
type Log struct {
	mu    sync.Mutex
	cap   int
	recs  []logRec
	buf   []byte `oramlint:"secret,scratch"`
	base  uint64 // absolute position of buf[0]
	end   uint64 // absolute position one past the newest entry's bytes
	first uint64 // oldest sequence still resident, 0 when empty
	last  uint64 // newest sequence appended, 0 when empty
}

// NewLog builds an empty log that holds at most capacity entries (0
// means DefaultLogCap). Its buffers are allocated as entries arrive.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultLogCap
	}
	return &Log{cap: capacity}
}

// Append records one applied write. Sequences must arrive in order
// (they are produced by the shard worker, which is single-threaded); a
// sequence that does not follow the newest entry starts the window
// afresh, so the log never reports entries it does not hold.
func (l *Log) Append(seq uint64, key string, val []byte) {
	l.mu.Lock()
	if l.first == 0 || seq != l.last+1 {
		l.first = seq
	} else if seq-l.first >= uint64(l.cap) {
		l.first++ // full: drop the oldest entry
	}
	if seq-l.first >= uint64(len(l.recs)) {
		l.growRecs(seq)
	}
	start := l.end // oldest live byte once seq is in
	if l.first < seq {
		start = l.recs[l.first%uint64(len(l.recs))].pos
	}
	n := len(key) + len(val)
	if int(l.end-l.base)+n > len(l.buf) {
		l.makeRoom(start, n)
	}
	p := l.end - l.base
	copy(l.buf[p:], key)
	copy(l.buf[p+uint64(len(key)):], val)
	l.recs[seq%uint64(len(l.recs))] = logRec{pos: l.end, klen: uint32(len(key)), vlen: uint32(len(val))}
	l.end += uint64(n)
	l.last = seq
	l.mu.Unlock()
}

// growRecs doubles the record ring (up to cap) and re-slots the
// resident entries [first, seq). Caller holds l.mu.
func (l *Log) growRecs(seq uint64) {
	recs := make([]logRec, min(max(2*len(l.recs), logMinRecs), l.cap))
	for s := l.first; s < seq; s++ {
		recs[s%uint64(len(recs))] = l.recs[s%uint64(len(l.recs))]
	}
	l.recs = recs
}

// makeRoom frees n bytes at the FIFO's tail. The live bytes [start, end)
// slide to the front of buf when they and the new entry fill at most
// three quarters of it. Otherwise, or when they fill at most a quarter
// of it, they move to a new buf of about 4/3 that need: a full log keeps
// at most a third of its live bytes spare, and a log whose entries
// shrank gives the spare back. Caller holds l.mu.
func (l *Log) makeRoom(start uint64, n int) {
	live := l.buf[start-l.base : l.end-l.base]
	if need := len(live) + n; 4*need > 3*len(l.buf) || 4*need <= len(l.buf) {
		buf := make([]byte, 4*need/3+1)
		copy(buf, live)
		l.buf = buf
	} else {
		copy(l.buf, live)
	}
	l.base = start
}

// footprint reports the bytes the log's buffers take (a logRec is 16).
func (l *Log) footprint() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)*16 + len(l.buf)
}

// Bounds reports the resident sequence window [first, last]; both are 0
// when the log is empty.
func (l *Log) Bounds() (first, last uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first, l.last
}

// Encode adds entries (from, to] to f in sequence order, straight from
// the byte FIFO under the log's lock, until f is full, and returns the
// newest entry added. It fails with ErrLogTrimmed when the log no longer
// holds entry from+1 or does not yet hold to. from == to adds nothing.
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
		r := l.recs[seq%uint64(len(l.recs))]
		p := r.pos - l.base
		k := p + uint64(r.klen)
		if !f.Add(seq, l.buf[p:k], l.buf[k:k+uint64(r.vlen)]) {
			break
		}
		last = seq
	}
	if last == from {
		return from, fmt.Errorf("cluster: op-log entry %d does not fit a replication frame", from+1)
	}
	return last, nil
}
