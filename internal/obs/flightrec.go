package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// EventKind identifies the typed events the flight recorder understands.
// Each kind carries a fixed display name, Perfetto category, and an
// interpretation for the two generic int64 argument slots — keeping
// Event itself a flat, allocation-free value.
type EventKind uint8

const (
	// EvAccess: one ORAM access. Arg0 = stash occupancy after the
	// access, Arg1 = number of tree ops the access emitted.
	EvAccess EventKind = iota
	// EvEarlyReshuffle: a bucket hit its S-count and was reshuffled
	// outside the eviction cadence. Arg0 = tree level, Arg1 = bucket
	// (global index).
	EvEarlyReshuffle
	// EvBackgroundEviction: an access ran background evictions. Arg0 =
	// evictions in this access, Arg1 = run total so far.
	EvBackgroundEviction
	// EvBackgroundDummy: the background evictor issued a dummy read
	// path. Arg0 = its ordinal within the access (from 1), Arg1 = path.
	EvBackgroundDummy
	// EvGreenFetch: Compact Bucket pulled green blocks into the stash in
	// place of dummies during an access. Arg0 = green blocks in this
	// access, Arg1 = run total so far.
	EvGreenFetch
	// EvTxn: a scheduler transaction completed; used as a duration span.
	// Arg0 = transaction tag (sched.Tag numeric value), Arg1 = number of
	// DRAM requests in the transaction.
	EvTxn
	// EvEarlyPRE: Proactive Bank issued a PRE for a future transaction.
	// Arg0 = channel, Arg1 = rank × banks + bank.
	EvEarlyPRE
	// EvEarlyACT: Proactive Bank issued an ACT for a future transaction.
	// Arg0 = channel, Arg1 = rank × banks + bank.
	EvEarlyACT
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvAccess:             "access",
	EvEarlyReshuffle:     "early_reshuffle",
	EvBackgroundEviction: "background_eviction",
	EvBackgroundDummy:    "background_dummy",
	EvGreenFetch:         "green_fetch",
	EvTxn:                "txn",
	EvEarlyPRE:           "early_pre",
	EvEarlyACT:           "early_act",
}

var eventKindCats = [numEventKinds]string{
	EvAccess:             "oram",
	EvEarlyReshuffle:     "oram",
	EvBackgroundEviction: "oram",
	EvBackgroundDummy:    "oram",
	EvGreenFetch:         "oram",
	EvTxn:                "sched",
	EvEarlyPRE:           "sched",
	EvEarlyACT:           "sched",
}

// argNames gives the per-kind labels for Arg0/Arg1 in the trace export.
var eventArgNames = [numEventKinds][2]string{
	EvAccess:             {"stash", "ops"},
	EvEarlyReshuffle:     {"level", "bucket"},
	EvBackgroundEviction: {"count", "total"},
	EvBackgroundDummy:    {"round", "path"},
	EvGreenFetch:         {"count", "total"},
	EvTxn:                {"tag", "requests"},
	EvEarlyPRE:           {"channel", "bank"},
	EvEarlyACT:           {"channel", "bank"},
}

// String returns the kind's display name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder record; the simulator is its one emitter.
// TS and Dur are DRAM cycles, never wall clock (serving-side timings are
// Spans); Dur == 0 renders as an instant, Dur > 0 as a complete span
// beginning at TS. Track separates parallel lanes (bank, tag) into
// distinct Perfetto threads.
type Event struct {
	TS    int64
	Dur   int64
	Kind  EventKind
	Track int32
	Arg0  int64
	Arg1  int64
}

// Recorder is the package's one fixed-capacity ring: a Recorder[Event]
// is a flight recorder, a Recorder[Span] a node's distributed-trace span
// buffer. Emit overwrites the oldest record once full and never
// allocates; a nil *Recorder is a no-op, so components can thread one
// unconditionally.
type Recorder[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	full  bool
	total uint64
}

// NewRecorder returns a recorder retaining up to capacity records.
func NewRecorder[T any](capacity int) *Recorder[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("obs: invalid recorder capacity %d", capacity))
	}
	return &Recorder[T]{buf: make([]T, capacity)}
}

// Emit appends rec, overwriting the oldest record when the ring is full.
// Safe from any goroutine; no-op on a nil recorder.
func (r *Recorder[T]) Emit(rec T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Len reports how many records are currently retained.
func (r *Recorder[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Total reports how many records were ever emitted (retained or evicted).
func (r *Recorder[T]) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot appends the retained records, oldest first, to dst and
// returns it. Passing a reused dst keeps the snapshot allocation-free
// once warmed.
func (r *Recorder[T]) Snapshot(dst []T) []T {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		dst = append(dst, r.buf[r.next:]...)
	}
	return append(dst, r.buf[:r.next]...)
}

// WriteTrace renders a flight-recorder snapshot as Chrome trace-event
// JSON (the {"traceEvents": [...]} object form), loadable in Perfetto
// and chrome://tracing. Timestamps are exported 1:1 as microsecond
// fields, so one trace microsecond equals one DRAM cycle; the export
// metadata names that time domain ("cycles").
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","otherData":{"timeDomain":"cycles"},"traceEvents":[`)
	bw.WriteString(`{"ph":"M","pid":1,"tid":1,"name":"process_name","args":{"name":"stringoram"}}`)
	var args []byte
	for _, ev := range events {
		kind := ev.Kind
		if kind >= numEventKinds {
			kind = 0
		}
		args = appendIntArg(args[:0], eventArgNames[kind][0], ev.Arg0)
		args = appendIntArg(append(args, ','), eventArgNames[kind][1], ev.Arg1)
		bw.WriteByte(',')
		writeTraceEvent(bw, eventKindNames[kind], eventKindCats[kind], 1, ev.Track, ev.TS, ev.Dur, args)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

func appendIntArg(dst []byte, name string, v int64) []byte {
	dst = append(append(append(dst, '"'), name...), '"', ':')
	return strconv.AppendInt(dst, v, 10)
}

// writeTraceEvent is the package's one Chrome trace-event encoder, behind
// both WriteTrace and MergeTraces: a complete ("X") event when dur > 0,
// an instant otherwise. args is the pre-rendered body of the args object.
func writeTraceEvent(w *bufio.Writer, name, cat string, pid int, tid int32, ts, dur int64, args []byte) {
	w.WriteString(`{"name":"`)
	w.WriteString(name)
	w.WriteString(`","cat":"`)
	w.WriteString(cat)
	w.WriteString(`","pid":`)
	w.WriteString(strconv.Itoa(pid))
	w.WriteString(`,"tid":`)
	w.WriteString(strconv.FormatInt(int64(tid), 10))
	w.WriteString(`,"ts":`)
	w.WriteString(strconv.FormatInt(ts, 10))
	if dur > 0 {
		w.WriteString(`,"dur":`)
		w.WriteString(strconv.FormatInt(dur, 10))
		w.WriteString(`,"ph":"X"`)
	} else {
		w.WriteString(`,"ph":"i","s":"t"`)
	}
	w.WriteString(`,"args":{`)
	w.Write(args)
	w.WriteString(`}}`)
}
