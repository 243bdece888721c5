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
	// EvAccess: one ORAM access completed. Arg0 = stash occupancy after
	// the access, Arg1 = number of tree ops the access emitted.
	EvAccess EventKind = iota
	// EvEarlyReshuffle: a bucket hit its S-count and was reshuffled
	// outside the eviction cadence. Arg0 = tree level, Arg1 = bucket
	// index within the level.
	EvEarlyReshuffle
	// EvBackgroundEviction: the background evictor ran a piggybacked
	// eviction. Arg0 = stash occupancy before, Arg1 = after.
	EvBackgroundEviction
	// EvBackgroundDummy: the background evictor issued a dummy read
	// batch. Arg0 = stash occupancy.
	EvBackgroundDummy
	// EvGreenFetch: Compact Bucket pulled a green block into the stash in
	// place of a dummy. Arg0 = tree level, Arg1 = slot.
	EvGreenFetch
	// EvTxn: a scheduler transaction completed; used as a duration span.
	// Arg0 = transaction tag (sched.Tag numeric value), Arg1 = number of
	// DRAM requests in the transaction.
	EvTxn
	// EvEarlyPRE: Proactive Bank issued a PRE for a future transaction.
	// Arg0 = channel, Arg1 = bank.
	EvEarlyPRE
	// EvEarlyACT: Proactive Bank issued an ACT for a future transaction.
	// Arg0 = channel, Arg1 = bank.
	EvEarlyACT
	// EvBatch: the server drained a request batch on one shard; used as
	// a duration span. Arg0 = shard, Arg1 = batch size.
	EvBatch
	// EvReplicate: a primary shipped one op-log entry to its follower;
	// used as a duration span. Arg0 = shard, Arg1 = sequence (mod 2^32).
	EvReplicate
	// EvHandoff: one shard finished migrating to another node; used as a
	// duration span. Arg0 = shard, Arg1 = bytes streamed (mod 2^32).
	EvHandoff
	// EvForward: a client op was relayed node-to-node because this node
	// does not serve the key's shard. Arg0 = shard, Arg1 = remaining TTL.
	EvForward
	// EvPromote: this node took over a shard as primary after a failure.
	// Arg0 = shard, Arg1 = new placement version (mod 2^32).
	EvPromote
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
	EvBatch:              "batch",
	EvReplicate:          "replicate",
	EvHandoff:            "handoff",
	EvForward:            "forward",
	EvPromote:            "promote",
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
	EvBatch:              "server",
	EvReplicate:          "cluster",
	EvHandoff:            "cluster",
	EvForward:            "cluster",
	EvPromote:            "cluster",
}

// argNames gives the per-kind labels for Arg0/Arg1 in the trace export.
var eventArgNames = [numEventKinds][2]string{
	EvAccess:             {"stash", "ops"},
	EvEarlyReshuffle:     {"level", "bucket"},
	EvBackgroundEviction: {"stash_before", "stash_after"},
	EvBackgroundDummy:    {"stash", "round"},
	EvGreenFetch:         {"level", "slot"},
	EvTxn:                {"tag", "requests"},
	EvEarlyPRE:           {"channel", "bank"},
	EvEarlyACT:           {"channel", "bank"},
	EvBatch:              {"shard", "size"},
	EvReplicate:          {"shard", "seq"},
	EvHandoff:            {"shard", "bytes"},
	EvForward:            {"shard", "ttl"},
	EvPromote:            {"shard", "version"},
}

// String returns the kind's display name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder record. TS and Dur are in the time domain
// of the component that emits it (DRAM cycles for simulator recorders —
// never wall clock there); Dur == 0 renders as an instant, Dur > 0 as a complete
// span beginning at TS. Track separates parallel lanes (bank, shard,
// tag) into distinct Perfetto threads.
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
// and chrome://tracing. domain names the time unit of TS/Dur ("cycles",
// "accesses", "wall_us") and is embedded in the export metadata:
// timestamps are exported 1:1 as microsecond fields, so in a cycle-domain
// recording one trace microsecond equals one DRAM cycle.
func WriteTrace(w io.Writer, domain string, events []Event) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"timeDomain\":%q},\"traceEvents\":[", domain)
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
