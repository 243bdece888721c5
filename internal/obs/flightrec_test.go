package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The ring tests run once per record shape the repo stores in a
// Recorder: flight-recorder Events and distributed-trace Spans.

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder[Event]
	r.Emit(Event{TS: 1, Kind: EvAccess})
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("nil recorder must report zero events")
	}
	if got := r.Snapshot(nil); len(got) != 0 {
		t.Fatalf("nil recorder snapshot = %d events, want 0", len(got))
	}
	var spans *Recorder[Span]
	spans.Emit(Span{})
	if spans.Len() != 0 || spans.Total() != 0 || len(spans.Snapshot(nil)) != 0 {
		t.Fatal("nil span recorder must be empty")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace must still be valid JSON: %v", err)
	}
}

func testRingWraparound[T any](t *testing.T, mk func(i int) T, ord func(T) int) {
	r := NewRecorder[T](4)
	for i := 0; i < 3; i++ {
		r.Emit(mk(i))
	}
	if r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("before wrap: Len=%d Total=%d, want 3 3", r.Len(), r.Total())
	}
	for i := 3; i < 10; i++ {
		r.Emit(mk(i))
	}
	if r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("after wrap: Len=%d Total=%d, want 4 10", r.Len(), r.Total())
	}
	recs := r.Snapshot(nil)
	if len(recs) != 4 {
		t.Fatalf("snapshot holds %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if got, want := ord(rec), 6+i; got != want {
			t.Fatalf("snapshot[%d] is record %d, want %d (oldest-first, newest retained)", i, got, want)
		}
	}
	// Snapshot into a reused buffer must not allocate once warmed.
	dst := make([]T, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		dst = r.Snapshot(dst[:0])
	}); n != 0 {
		t.Fatalf("warmed Snapshot allocates %.1f times per op, want 0", n)
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		testRingWraparound(t,
			func(i int) Event { return Event{TS: int64(i), Kind: EvAccess} },
			func(ev Event) int { return int(ev.TS) })
	})
	t.Run("span", func(t *testing.T) {
		testRingWraparound(t,
			func(i int) Span { return Span{ID: uint64(i)} },
			func(s Span) int { return int(s.ID) })
	})
}

func TestRecorderEmitAllocFree(t *testing.T) {
	events := NewRecorder[Event](64)
	ev := Event{TS: 3, Dur: 2, Kind: EvTxn, Track: 1, Arg0: 0, Arg1: 8}
	if n := testing.AllocsPerRun(200, func() {
		events.Emit(ev)
	}); n != 0 {
		t.Fatalf("Emit(Event) allocates %.1f times per op, want 0", n)
	}
	spans := NewRecorder[Span](16)
	if n := testing.AllocsPerRun(200, func() {
		spans.Emit(Span{Hi: 1, Lo: 2, ID: 3, TS: 4, Dur: 5, Kind: SpanServeGet})
	}); n != 0 {
		t.Fatalf("Emit(Span) allocates %.1f times per op, want 0", n)
	}
}

// TestWriteTracePerfettoShape validates the Chrome trace-event export
// shape that Perfetto's JSON importer requires: a top-level traceEvents
// array whose entries each carry name/cat/ph/pid/tid/ts, with "X" events
// carrying dur and instant events carrying a scope "s". This is the
// automated stand-in for "the dump loads in Perfetto".
func TestWriteTracePerfettoShape(t *testing.T) {
	r := NewRecorder[Event](16)
	r.Emit(Event{TS: 100, Kind: EvAccess, Track: 0, Arg0: 12, Arg1: 3})
	r.Emit(Event{TS: 110, Dur: 40, Kind: EvTxn, Track: 2, Arg0: 0, Arg1: 8})
	r.Emit(Event{TS: 150, Kind: EvEarlyPRE, Track: 1, Arg0: 0, Arg1: 5})

	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			TimeDomain string `json:"timeDomain"`
		} `json:"otherData"`
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData.TimeDomain != "cycles" {
		t.Fatalf("timeDomain = %q, want cycles", doc.OtherData.TimeDomain)
	}
	if len(doc.TraceEvents) != 4 { // metadata + 3 events
		t.Fatalf("traceEvents has %d entries, want 4", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta["ph"] != "M" || meta["name"] != "process_name" {
		t.Fatalf("first event must be process_name metadata, got %v", meta)
	}
	for i, ev := range doc.TraceEvents[1:] {
		for _, key := range []string{"name", "cat", "ph", "pid", "tid", "ts", "args"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event %d missing dur: %v", i, ev)
			}
		case "i":
			if ev["s"] != "t" {
				t.Fatalf("instant event %d missing scope: %v", i, ev)
			}
		default:
			t.Fatalf("event %d has unexpected phase %v", i, ev["ph"])
		}
	}
	span := doc.TraceEvents[2]
	if span["name"] != "txn" || span["dur"] != float64(40) || span["ts"] != float64(110) {
		t.Fatalf("txn span exported wrong: %v", span)
	}
	args := doc.TraceEvents[1]["args"].(map[string]any)
	if args["stash"] != float64(12) || args["ops"] != float64(3) {
		t.Fatalf("access args exported wrong: %v", args)
	}
}

func TestEventKindString(t *testing.T) {
	if EvAccess.String() != "access" || EvEarlyACT.String() != "early_act" {
		t.Fatal("EventKind names wrong")
	}
	if EventKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
}
