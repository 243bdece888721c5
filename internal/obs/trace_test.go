package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceContextValidAndChild(t *testing.T) {
	var zero TraceContext
	if zero.Valid() {
		t.Fatal("zero context must be invalid")
	}
	tc := TraceContext{Hi: 1, Lo: 2, SpanID: 3}
	if !tc.Valid() {
		t.Fatal("nonzero trace ID must be valid")
	}
	c := tc.Child(9)
	if c.Hi != 1 || c.Lo != 2 || c.SpanID != 9 || c.Parent != 3 {
		t.Fatalf("Child = %+v", c)
	}
}

func TestSampledPowerOfTwo(t *testing.T) {
	tc := TraceContext{Hi: 1, Lo: 0x1000} // low 12 bits zero
	if tc.Sampled(0) {
		t.Fatal("rate 0 must disable sampling")
	}
	if !tc.Sampled(1) {
		t.Fatal("rate 1 must keep everything")
	}
	if !tc.Sampled(1 << 12) {
		t.Fatal("rate 4096 must keep Lo with 12 trailing zero bits")
	}
	if tc.Sampled(1 << 13) {
		t.Fatal("rate 8192 must drop Lo with only 12 trailing zero bits")
	}
	if (TraceContext{}).Sampled(1) {
		t.Fatal("invalid context must never sample")
	}
	// Sampling is a pure function of the trace ID: every hop agrees.
	child := tc.Child(77)
	if tc.Sampled(1<<12) != child.Sampled(1<<12) {
		t.Fatal("sampling decision changed across Child")
	}
}

func TestTraceSourceDeterministicAndDistinct(t *testing.T) {
	a, b := NewTraceSource(42), NewTraceSource(42)
	ta, tb := a.NewTrace(), b.NewTrace()
	if ta != tb {
		t.Fatalf("same seed diverged: %+v vs %+v", ta, tb)
	}
	if !ta.Valid() || ta.SpanID == 0 {
		t.Fatalf("root context incomplete: %+v", ta)
	}
	if a.SpanID() == 0 {
		t.Fatal("SpanID returned 0")
	}
	c := NewTraceSource(43).NewTrace()
	if c == ta {
		t.Fatal("different seeds produced identical traces")
	}
	if next := a.NewTrace(); next == ta {
		t.Fatal("successive traces identical")
	}
	// Adjacent seeds (cluster nodes are seeded 100, 101, ...) must not
	// produce shifted copies of the same ID stream: node A's nth span
	// colliding with node B's (n+1)th span breaks cross-node stitching.
	x, y := NewTraceSource(100), NewTraceSource(101)
	yIDs := make(map[uint64]bool)
	for i := 0; i < 16; i++ {
		yIDs[y.SpanID()] = true
	}
	for i := 0; i < 16; i++ {
		if id := x.SpanID(); yIDs[id] {
			t.Fatalf("adjacent seeds collided on span ID %016x", id)
		}
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	in := []Span{
		{Hi: 0xdead, Lo: 0xbeef, ID: 7, Parent: 3, TS: 1234, Dur: 56, Kind: SpanServePut, Track: 2},
		{Hi: 1, Lo: 2, ID: 0, Parent: 7, TS: -9, Dur: 0, Kind: SpanForward, Track: -1},
	}
	var wire []byte
	for _, s := range in {
		wire = AppendSpan(wire, s)
	}
	if len(wire) != 2*SpanWireLen {
		t.Fatalf("encoded %d bytes, want %d", len(wire), 2*SpanWireLen)
	}
	out, err := DecodeSpans(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if _, err := DecodeSpans(wire[:SpanWireLen+1]); err == nil {
		t.Fatal("truncated dump must fail to decode")
	}
}

func TestSpanKindString(t *testing.T) {
	for k := SpanKind(1); k < numSpanKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if SpanKind(0).String() != "unknown" || numSpanKinds.String() != "unknown" {
		t.Fatal("out-of-range kinds must stringify as unknown")
	}
}

func TestMergeTracesAlignsClocks(t *testing.T) {
	// Node A's forward span parents node B's serve span. B's clock is
	// wildly offset; the merge must land the child inside the parent.
	parent := Span{Hi: 1, Lo: 2, ID: 10, Parent: 0, TS: 1000, Dur: 100, Kind: SpanForward, Track: 0}
	child := Span{Hi: 1, Lo: 2, ID: 11, Parent: 10, TS: 500000, Dur: 50, Kind: SpanServePut, Track: 1}
	var buf bytes.Buffer
	err := MergeTraces(&buf, []NodeTrace{
		{Node: "a", Spans: []Span{parent}},
		{Node: "b", Spans: []Span{child}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var sawProcA, sawProcB bool
	var childTS float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			name, _ := ev.Args["name"].(string)
			sawProcA = sawProcA || name == "a"
			sawProcB = sawProcB || name == "b"
		}
		if ev.Name == "serve_put" {
			childTS = ev.TS
		}
	}
	if !sawProcA || !sawProcB {
		t.Fatal("missing process_name metadata for a node")
	}
	// offset(b) = parentTS + (parentDur-childDur)/2 - childTS, so the
	// aligned child start is parentTS + 25.
	if childTS != 1025 {
		t.Fatalf("aligned child ts = %v, want 1025", childTS)
	}
	if !strings.Contains(buf.String(), `"trace":"00000000000000010000000000000002"`) {
		t.Fatal("span args missing hex trace ID")
	}
}

func TestMergeTracesEmptyIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := MergeTraces(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty merge not valid JSON: %v", err)
	}
}
