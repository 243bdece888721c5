package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Distributed tracing primitives: a flat, allocation-free trace context
// propagated request-to-request across cluster hops, the span record a
// node's Recorder[Span] ring holds, and a merger that stitches per-node
// span sets into one Perfetto view with per-node wall clocks aligned.
//
// Like the rest of this package, nothing here reads a clock or draws
// randomness: callers supply timestamps (each node stamps spans in its
// own local microsecond domain) and seed the span-ID source. Sampling
// is a pure function of the trace ID, so every node along a request's
// path independently reaches the same keep/drop decision.

// TraceContext identifies one distributed request: a 128-bit trace ID
// (Hi/Lo), the current span, and that span's parent. It travels by
// value — through request structs, wire frames, and apply hooks — so
// attaching it to a hot path allocates nothing. The zero value means
// "untraced" and every consumer treats it as a no-op.
type TraceContext struct {
	Hi, Lo uint64 // 128-bit trace ID (Lo also drives sampling)
	SpanID uint64 // the span covering the current hop
	Parent uint64 // SpanID's parent (0 at the root)
}

// Valid reports whether the context carries a real trace ID.
func (tc TraceContext) Valid() bool { return tc.Hi|tc.Lo != 0 }

// Sampled applies the power-of-two head sampler: a trace is kept iff
// the low rate-1 bits of its ID are zero, so rate=1 keeps everything,
// rate=1024 keeps ~1/1024, and rate=0 disables tracing entirely.
// Because the decision is a pure function of the trace ID, every node a
// request crosses samples it identically — a kept trace is kept whole.
func (tc TraceContext) Sampled(rate uint64) bool {
	if rate == 0 || !tc.Valid() {
		return false
	}
	return tc.Lo&(rate-1) == 0
}

// Child derives the context for a downstream hop: same trace, the given
// span ID, parented on the current span.
func (tc TraceContext) Child(spanID uint64) TraceContext {
	return TraceContext{Hi: tc.Hi, Lo: tc.Lo, SpanID: spanID, Parent: tc.SpanID}
}

// TraceSource mints trace and span IDs from an atomic counter mixed
// through SplitMix64 — deterministic per seed (this package never draws
// global randomness), decorrelated across nodes when each seeds with
// its own identity hash, and allocation-free.
type TraceSource struct {
	seed uint64
	ctr  atomic.Uint64
}

// NewTraceSource returns a source whose IDs are a pure function of seed
// and the number of IDs minted so far. The seed is mixed before use:
// IDs come from splitmix64(seed+ctr), so two raw seeds that differ by a
// small delta (adjacent node seeds like 100 and 101) would otherwise
// mint shifted copies of the same ID stream and collide cluster-wide.
func NewTraceSource(seed uint64) *TraceSource {
	return &TraceSource{seed: splitmix64(seed ^ 0x9e3779b97f4a7c15)}
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SpanID mints one nonzero span ID.
func (s *TraceSource) SpanID() uint64 {
	id := splitmix64(s.seed + s.ctr.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// NewTrace mints a root context: fresh 128-bit trace ID, fresh root
// span, no parent. The low word doubles as the sampling key.
func (s *TraceSource) NewTrace() TraceContext {
	n := s.ctr.Add(3)
	tc := TraceContext{
		Hi:     splitmix64(s.seed + n - 2),
		Lo:     splitmix64(s.seed + n - 1),
		SpanID: splitmix64(s.seed + n),
	}
	if !tc.Valid() {
		tc.Lo = 1
	}
	if tc.SpanID == 0 {
		tc.SpanID = 1
	}
	return tc
}

// SpanKind identifies the hop a span covers. Kinds mirror the request's
// path through the cluster: client op at the router, serve at a shard
// worker, and the two cross-node hops.
type SpanKind uint8

const (
	// SpanClientGet/Put: the router-side root span covering the whole
	// operation including retries and failover.
	SpanClientGet SpanKind = iota + 1
	SpanClientPut
	// SpanServeGet/Put/Apply: one shard worker serving the request,
	// enqueue to response.
	SpanServeGet
	SpanServePut
	SpanServeApply
	// SpanForward: one node relaying a client op toward the owner.
	SpanForward
	// SpanReplicate: a primary shipping one op-log entry to its
	// follower and waiting for the ack.
	SpanReplicate
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	SpanClientGet:  "client_get",
	SpanClientPut:  "client_put",
	SpanServeGet:   "serve_get",
	SpanServePut:   "serve_put",
	SpanServeApply: "serve_apply",
	SpanForward:    "forward",
	SpanReplicate:  "replicate",
}

// String returns the kind's display name.
func (k SpanKind) String() string {
	if k > 0 && k < numSpanKinds {
		return spanKindNames[k]
	}
	return "unknown"
}

// Span is one completed hop of a traced request: fixed-size, no
// pointers, emitted into a Recorder[Span] ring without allocating. TS and
// Dur are microseconds in the emitting node's local domain (each node
// measures from its own epoch); MergeTraces aligns the domains.
type Span struct {
	Hi, Lo uint64 // trace ID
	ID     uint64 // this span (0 for leaf spans that parent nothing)
	Parent uint64 // parent span ID (0 at the root)
	TS     int64  // start, local µs
	Dur    int64  // duration, µs
	Kind   SpanKind
	Track  int32 // lane within the node (shard index; -1 for node-level)
}

// --- span wire codec ---

// SpanWireLen is the fixed encoded size of one Span.
const SpanWireLen = 8*6 + 1 + 4

// AppendSpan encodes s onto dst (big-endian, fixed layout).
func AppendSpan(dst []byte, s Span) []byte {
	dst = binary.BigEndian.AppendUint64(dst, s.Hi)
	dst = binary.BigEndian.AppendUint64(dst, s.Lo)
	dst = binary.BigEndian.AppendUint64(dst, s.ID)
	dst = binary.BigEndian.AppendUint64(dst, s.Parent)
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.TS))
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.Dur))
	dst = append(dst, byte(s.Kind))
	return binary.BigEndian.AppendUint32(dst, uint32(s.Track))
}

// DecodeSpans parses a concatenation of AppendSpan encodings.
func DecodeSpans(p []byte) ([]Span, error) {
	if len(p)%SpanWireLen != 0 {
		return nil, fmt.Errorf("obs: span dump length %d not a multiple of %d", len(p), SpanWireLen)
	}
	out := make([]Span, 0, len(p)/SpanWireLen)
	for len(p) > 0 {
		out = append(out, Span{
			Hi:     binary.BigEndian.Uint64(p),
			Lo:     binary.BigEndian.Uint64(p[8:]),
			ID:     binary.BigEndian.Uint64(p[16:]),
			Parent: binary.BigEndian.Uint64(p[24:]),
			TS:     int64(binary.BigEndian.Uint64(p[32:])),
			Dur:    int64(binary.BigEndian.Uint64(p[40:])),
			Kind:   SpanKind(p[48]),
			Track:  int32(binary.BigEndian.Uint32(p[49:])),
		})
		p = p[SpanWireLen:]
	}
	return out, nil
}

// --- multi-node merge ---

// NodeTrace is one node's span snapshot, named for display.
type NodeTrace struct {
	Node  string
	Spans []Span
}

// spanKey identifies a span across node boundaries.
type spanKey struct {
	hi, lo, id uint64
}

// MergeTraces stitches per-node span sets into one Perfetto trace: each
// node becomes a process (track group) and each span a complete event
// on its shard lane, with trace/span/parent IDs in the args so Perfetto
// queries can follow a request across nodes.
//
// Every node stamps spans in its own local microsecond domain (µs since
// that node's start), so the domains must be aligned before they share
// one timeline. For every cross-node parent-child pair (a forward or
// replicate span on one node whose child serve span lives on another)
// the child is assumed to sit midway inside its parent — the classic
// symmetric-latency assumption — giving one offset estimate per pair;
// offsets are averaged per node pair and propagated breadth-first from
// the first node, so any node reachable through traced traffic lands on
// the common timeline. Unreachable nodes keep offset 0.
func MergeTraces(w io.Writer, nodes []NodeTrace) error {
	offsets := alignOffsets(nodes)
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","otherData":{"timeDomain":"aligned_us"},"traceEvents":[`)
	var args []byte
	for i, nt := range nodes {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`, i+1, nt.Node)
		for _, s := range nt.Spans {
			args = appendHex64(append(args[:0], `"trace":"`...), s.Hi)
			args = appendHex64(args, s.Lo)
			args = appendHex64(append(args, `","span":"`...), s.ID)
			args = appendHex64(append(args, `","parent":"`...), s.Parent)
			args = append(args, '"')
			bw.WriteByte(',')
			// Zero-width spans are invisible in Perfetto: render at least 1µs.
			writeTraceEvent(bw, s.Kind.String(), "trace", i+1, s.Track, s.TS+offsets[i], max(s.Dur, 1), args)
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// appendHex64 appends v as 16 zero-padded hex digits.
func appendHex64(dst []byte, v uint64) []byte {
	const hexdigits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexdigits[(v>>uint(shift))&0xf])
	}
	return dst
}

// alignOffsets estimates one clock offset per node (µs to add to that
// node's timestamps) from cross-node parent-child span pairs.
func alignOffsets(nodes []NodeTrace) []int64 {
	offsets := make([]int64, len(nodes))
	if len(nodes) < 2 {
		return offsets
	}
	// Index spans with real IDs; the node that retained the span last
	// wins on (pathological) duplicates.
	idx := make(map[spanKey]int, 64)    // key -> node
	spans := make(map[spanKey]Span, 64) // key -> span
	for ni, nt := range nodes {
		for _, s := range nt.Spans {
			if s.ID == 0 {
				continue
			}
			k := spanKey{s.Hi, s.Lo, s.ID}
			idx[k] = ni
			spans[k] = s
		}
	}
	// One estimate per cross-node parent-child pair: the child is
	// centered inside its parent, so
	//   childTS + off[child] = parentTS + off[parent] + (parentDur-childDur)/2.
	type edge struct {
		sum   int64
		count int64
	}
	edges := make(map[[2]int]*edge)
	link := func(a, b int, delta int64) {
		k := [2]int{a, b}
		e := edges[k]
		if e == nil {
			e = &edge{}
			edges[k] = e
		}
		e.sum += delta
		e.count++
	}
	for ni, nt := range nodes {
		for _, s := range nt.Spans {
			if s.Parent == 0 {
				continue
			}
			pk := spanKey{s.Hi, s.Lo, s.Parent}
			pn, ok := idx[pk]
			if !ok || pn == ni {
				continue
			}
			p := spans[pk]
			// off[ni] - off[pn] = parentTS + (parentDur-childDur)/2 - childTS
			link(pn, ni, p.TS+(p.Dur-s.Dur)/2-s.TS)
		}
	}
	// Propagate offsets breadth-first from node 0 (offset 0). Averaged
	// per-pair deltas make the walk robust to one noisy pair.
	done := make([]bool, len(nodes))
	done[0] = true
	queue := []int{0}
	// Deterministic neighbor order for reproducible exports.
	keys := make([][2]int, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, k := range keys {
			e := edges[k]
			var next int
			var delta int64
			switch {
			case k[0] == cur:
				next, delta = k[1], e.sum/e.count
			case k[1] == cur:
				next, delta = k[0], -(e.sum / e.count)
			default:
				continue
			}
			if done[next] {
				continue
			}
			offsets[next] = offsets[cur] + delta
			done[next] = true
			queue = append(queue, next)
		}
	}
	return offsets
}
