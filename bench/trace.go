package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stringoram/internal/obs"
)

// The traced run replays one op stream, one operation in flight, at each
// rung of a ladder of public entry points, innermost first, and records a
// span per call. The rungs are replayed one after another, not nested, so
// the span that "caused" a span is the same operation one rung further out:
// (rung, op) is caused by (rung+1, op), and a rung's self time is its
// duration minus the duration of the rung below it.

// spanRecorder keeps spans in a preallocated buffer and stops recording
// when it is full; it is written out when the run ends.
type spanRecorder struct {
	epoch time.Time
	// nested: rung i is caused by rung i+1. Otherwise the rungs are
	// independent lanes.
	nested bool
	rungs  []string // innermost first
	spans  []ladderSpan
	room   []int // spans each rung may still record
}

type ladderSpan struct {
	rung       uint8
	put        bool
	op         uint32
	start, end time.Duration // since epoch
}

// maxSpans bounds the trace file (about 100 bytes a span). Every rung gets
// an equal share, so its first operations are the ones every rung holds.
const maxSpans = 60000

func newSpanRecorder(nested bool, rungs ...string) *spanRecorder {
	r := &spanRecorder{epoch: time.Now(), nested: nested, rungs: rungs, spans: make([]ladderSpan, 0, maxSpans)}
	for range rungs {
		r.room = append(r.room, maxSpans/len(rungs))
	}
	return r
}

// parentRung returns the rung that causes rung, if any.
func (r *spanRecorder) parentRung(rung int) (int, bool) {
	return rung + 1, r.nested && rung+1 < len(r.rungs)
}

func (r *spanRecorder) add(rung, op int, put bool, start, end time.Duration) {
	if r.room[rung] > 0 {
		r.room[rung]--
		r.spans = append(r.spans, ladderSpan{uint8(rung), put, uint32(op), start, end})
	}
}

// spanNode is the part of a span self-time arithmetic needs.
type spanNode struct {
	id, parent uint64 // parent 0: a root
	dur        float64
}

// selfTimes returns, per node, its duration minus the durations of the
// nodes it caused, floored at 0.
func selfTimes(nodes []spanNode) []float64 {
	children := make(map[uint64]float64, len(nodes))
	for _, n := range nodes {
		if n.parent != 0 {
			children[n.parent] += n.dur
		}
	}
	self := make([]float64, len(nodes))
	for i, n := range nodes {
		self[i] = max(n.dur-children[n.id], 0)
	}
	return self
}

// rungSelfUs returns the mean self time in µs of each rung: its mean
// duration minus the mean duration of the rung it caused, both over the
// operations recorded on both. The rungs are separate replays, so the
// subtraction is of means; per operation it would floor noise at 0 and
// read high.
func (r *spanRecorder) rungSelfUs() []float64 {
	durs := make([]map[uint32]float64, len(r.rungs))
	for i := range durs {
		durs[i] = make(map[uint32]float64)
	}
	for _, s := range r.spans {
		durs[s.rung][s.op] = float64(s.end-s.start) / 1e3
	}
	self := make([]float64, len(r.rungs))
	for rung := range r.rungs {
		var own, child, n float64
		for op, d := range durs[rung] {
			c, ok := 0.0, true
			if r.nested && rung > 0 {
				c, ok = durs[rung-1][op]
			}
			if ok {
				own, child, n = own+d, child+c, n+1
			}
		}
		if n > 0 {
			self[rung] = (own - child) / n
		}
	}
	return self
}

// write stores the spans as Chrome trace events (load the file in
// ui.perfetto.dev or chrome://tracing): one lane per rung, the op id and
// the causing rung in args.
func (r *spanRecorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, name := range r.rungs {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, i, name)
	}
	for _, s := range r.spans {
		kind, parent := "get", ""
		if s.put {
			kind = "put"
		}
		if p, ok := r.parentRung(int(s.rung)); ok {
			parent = r.rungs[p]
		}
		fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"kind":%q,"parent":%q}}`,
			r.rungs[s.rung], s.rung, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, kind, parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// programSpans summarises the spans the program itself emitted (PR 10's
// distributed tracing), read through ScrapeSpans / TraceSpans.
type programSpans struct {
	selfUs map[obs.SpanKind]float64 // mean self time per kind
	durUs  map[obs.SpanKind][]float64
	total  int
}

func summarizeProgramSpans(spans []obs.Span) programSpans {
	// Span IDs are unique within a trace, not across traces: number the
	// (trace, span) pairs. Leaf spans carry ID 0 and cause nothing.
	type traceSpan struct{ hi, lo, id uint64 }
	ids := make(map[traceSpan]uint64)
	number := func(s obs.Span, id uint64) uint64 {
		if id == 0 {
			return 0
		}
		k := traceSpan{s.Hi, s.Lo, id}
		if _, ok := ids[k]; !ok {
			ids[k] = uint64(len(ids) + 1)
		}
		return ids[k]
	}
	nodes := make([]spanNode, len(spans))
	for i, s := range spans {
		nodes[i] = spanNode{id: number(s, s.ID), parent: number(s, s.Parent), dur: float64(s.Dur)}
	}
	self := selfTimes(nodes)
	ps := programSpans{
		selfUs: make(map[obs.SpanKind]float64),
		durUs:  make(map[obs.SpanKind][]float64),
		total:  len(spans),
	}
	for i, s := range spans {
		ps.selfUs[s.Kind] += self[i]
		ps.durUs[s.Kind] = append(ps.durUs[s.Kind], float64(s.Dur))
	}
	for k, d := range ps.durUs {
		ps.selfUs[k] /= float64(len(d))
	}
	return ps
}
