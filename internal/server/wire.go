package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"stringoram/internal/obs"
)

// Wire protocol: length-prefixed binary frames over a byte stream.
//
//	frame    := len:uint32 payload:[len]byte          (big-endian)
//	request  := op:uint8 seq:uint64 timeoutMs:uint32
//	            keyLen:uint16 key:[keyLen]byte
//	            valLen:uint32 val:[valLen]byte
//	response := status:uint8 seq:uint64
//	            bodyLen:uint32 body:[bodyLen]byte
//
// seq is a client-chosen correlation id echoed verbatim, so responses
// may be pipelined and arrive out of order. timeoutMs 0 applies the
// server's default deadline. The response body carries the value (get)
// or an error message (statusErr/statusBad).

// wireProtoVersion is the protocol generation carried in the hello
// handshake. Version 2 added the handshake itself plus the cluster
// frames (replicate, handoff, placement, promote, forward); version 3
// accepts traced and scrape frames on every connection. Peers whose
// versions differ refuse the connection with ErrProtocolMismatch
// instead of risking undefined framing behavior, so this exact match is
// the only compatibility gate: nothing is negotiated after hello.
const wireProtoVersion = 3

// wireOp is the request opcode.
type wireOp uint8

const (
	wireGet  wireOp = 1
	wirePut  wireOp = 2
	wirePing wireOp = 4
	// wireHello is the connection handshake: Key carries the dialer's
	// node ID (empty for anonymous clients), Val its 4-byte protocol
	// version. The OK response body is version + the server's node ID.
	wireHello wireOp = 5
	// wireReplicate streams one op-log entry primary->follower: Key is
	// the written key, Val is pver:8 shard:4 seq:8 value.
	wireReplicate wireOp = 6
	// wireHandoff carries one chunk of a shard snapshot during live
	// handoff: Val is shard:4 flags:1 data (flags bit0 = first chunk,
	// bit1 = last chunk; the receiver installs the shard on last).
	wireHandoff wireOp = 7
	// wirePlacement fetches (empty Val) or pushes (Val = JSON) the
	// cluster placement table.
	wirePlacement wireOp = 8
	// wirePromote asks a follower to take over a shard whose primary
	// failed: Val is pver:8 shard:4, where pver is the placement
	// version the requester observed the failure under.
	wirePromote wireOp = 9
	// wireForward is a client op relayed node-to-node when the first
	// node does not serve the key's shard: Key is the key, Val is
	// op:1 ttl:1 value.
	wireForward wireOp = 10
	// wireTraced wraps another request frame with a distributed trace
	// context: Val is traceHi:8 traceLo:8 spanID:8 innerOp:1 innerVal
	// (Key and the timeout ride in the outer frame).
	wireTraced wireOp = 12
	// wireScrape fetches node telemetry: Val is mode:1, where mode 0
	// returns the Prometheus text exposition and mode 1 a binary span
	// dump (obs.Span wire encoding). Used by cluster federation.
	wireScrape wireOp = 13
)

// wireScrape modes.
const (
	scrapeMetrics byte = 0
	scrapeSpans   byte = 1
)

// wireStatus is the response status code.
type wireStatus uint8

const (
	statusOK       wireStatus = 0
	statusNotFound wireStatus = 1
	statusBacklog  wireStatus = 2
	statusDeadline wireStatus = 3
	statusClosed   wireStatus = 4
	statusBad      wireStatus = 5
	statusErr      wireStatus = 6
	// statusWrongShard: the key's shard is not served by this node
	// (refresh placement and retry elsewhere).
	statusWrongShard wireStatus = 7
	// statusStale: the frame carried a placement version older than the
	// receiver's (fencing for deposed primaries).
	statusStale wireStatus = 8
	// statusFull: the shard's ORAM key capacity is exhausted (terminal
	// for this key until something is evicted; not a routing problem).
	statusFull wireStatus = 10
	// statusProto: handshake rejection — protocol version mismatch or
	// self-dial. The server closes the connection after sending it.
	statusProto wireStatus = 9
)

// maxFrame bounds a frame payload; larger frames poison the connection
// (a corrupt length prefix must not trigger a giant allocation).
const maxFrame = 1 << 20

// request header sizes.
const (
	reqFixedLen  = 1 + 8 + 4 + 2 + 4 // op seq timeout keyLen valLen
	respFixedLen = 1 + 8 + 4         // status seq bodyLen
)

// wireRequest is one decoded request frame. Val aliases the decoded
// payload buffer, which the TCP read loop reuses for the next frame:
// whatever outlives the frame copies Val out first (a Get/Put into its
// request, a goroutine-served frame into a pooled buffer).
type wireRequest struct {
	Op            wireOp
	Seq           uint64
	TimeoutMillis uint32
	Key           string
	Val           []byte
}

// wireResponse is one decoded response frame.
type wireResponse struct {
	Status wireStatus
	Seq    uint64
	Body   []byte
}

// appendRequest appends r as a complete frame to dst.
func appendRequest(dst []byte, r wireRequest) ([]byte, error) {
	if len(r.Key) > MaxKeyLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadKey, len(r.Key))
	}
	payload := reqFixedLen + len(r.Key) + len(r.Val)
	if payload > maxFrame {
		return nil, fmt.Errorf("server: request frame %d bytes exceeds max %d", payload, maxFrame)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(payload))
	dst = append(dst, byte(r.Op))
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = binary.BigEndian.AppendUint32(dst, r.TimeoutMillis)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Val)))
	dst = append(dst, r.Val...)
	return dst, nil
}

// decodeRequest parses one request payload.
func decodeRequest(p []byte) (wireRequest, error) {
	var r wireRequest
	if len(p) < reqFixedLen {
		return r, fmt.Errorf("server: request frame too short (%d bytes)", len(p))
	}
	r.Op = wireOp(p[0])
	r.Seq = binary.BigEndian.Uint64(p[1:])
	r.TimeoutMillis = binary.BigEndian.Uint32(p[9:])
	keyLen := int(binary.BigEndian.Uint16(p[13:]))
	rest := p[15:]
	if len(rest) < keyLen+4 {
		return r, fmt.Errorf("server: request frame truncated in key")
	}
	r.Key = string(rest[:keyLen])
	rest = rest[keyLen:]
	valLen := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) != valLen {
		return r, fmt.Errorf("server: request frame value length %d, %d bytes remain", valLen, len(rest))
	}
	if valLen > 0 {
		r.Val = rest // aliases p; see wireRequest
	}
	return r, nil
}

// appendResponse appends r as a complete frame to dst.
func appendResponse(dst []byte, r wireResponse) []byte {
	payload := respFixedLen + len(r.Body)
	dst = binary.BigEndian.AppendUint32(dst, uint32(payload))
	dst = append(dst, byte(r.Status))
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Body)))
	dst = append(dst, r.Body...)
	return dst
}

// decodeResponse parses one response payload.
func decodeResponse(p []byte) (wireResponse, error) {
	var r wireResponse
	if len(p) < respFixedLen {
		return r, fmt.Errorf("server: response frame too short (%d bytes)", len(p))
	}
	r.Status = wireStatus(p[0])
	r.Seq = binary.BigEndian.Uint64(p[1:])
	bodyLen := int(binary.BigEndian.Uint32(p[9:]))
	rest := p[13:]
	if len(rest) != bodyLen {
		return r, fmt.Errorf("server: response frame body length %d, %d bytes remain", bodyLen, len(rest))
	}
	if bodyLen > 0 {
		r.Body = append([]byte(nil), rest...)
	}
	return r, nil
}

// --- cluster frame payload encodings ---
//
// Cluster frames ride inside the ordinary request frame: the sub-coded
// fields below live in the request's Val (and the written key, where
// present, in Key), so the framing, pooling, and pipelining machinery
// is shared with client traffic.

// replicate Val layout: pver:8 shard:4 seq:8 value.
const replicateHdrLen = 8 + 4 + 8

// appendReplicateVal encodes a replicate payload into dst (reused by
// the primary across entries, so steady-state replication does not
// allocate).
func appendReplicateVal(dst []byte, pver uint64, shard int, seq uint64, val []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, pver)
	dst = binary.BigEndian.AppendUint32(dst, uint32(shard))
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return append(dst, val...)
}

// decodeReplicateVal parses a replicate payload; val aliases p.
func decodeReplicateVal(p []byte) (pver uint64, shard int, seq uint64, val []byte, err error) {
	if len(p) < replicateHdrLen {
		return 0, 0, 0, nil, fmt.Errorf("server: replicate frame too short (%d bytes)", len(p))
	}
	pver = binary.BigEndian.Uint64(p)
	shard = int(binary.BigEndian.Uint32(p[8:]))
	seq = binary.BigEndian.Uint64(p[12:])
	return pver, shard, seq, p[replicateHdrLen:], nil
}

// handoff Val layout: shard:4 flags:1 data.
const (
	handoffHdrLen = 4 + 1
	handoffFirst  = 1 << 0
	handoffLast   = 1 << 1
)

// appendHandoffVal encodes one handoff chunk payload.
func appendHandoffVal(dst []byte, shard int, flags byte, data []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(shard))
	dst = append(dst, flags)
	return append(dst, data...)
}

// decodeHandoffVal parses a handoff chunk payload; data aliases p.
func decodeHandoffVal(p []byte) (shard int, flags byte, data []byte, err error) {
	if len(p) < handoffHdrLen {
		return 0, 0, nil, fmt.Errorf("server: handoff frame too short (%d bytes)", len(p))
	}
	return int(binary.BigEndian.Uint32(p)), p[4], p[handoffHdrLen:], nil
}

// promote Val layout: pver:8 shard:4.
const promoteLen = 8 + 4

// appendPromoteVal encodes a promote payload.
func appendPromoteVal(dst []byte, pver uint64, shard int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, pver)
	return binary.BigEndian.AppendUint32(dst, uint32(shard))
}

// decodePromoteVal parses a promote payload.
func decodePromoteVal(p []byte) (pver uint64, shard int, err error) {
	if len(p) != promoteLen {
		return 0, 0, fmt.Errorf("server: promote frame length %d, want %d", len(p), promoteLen)
	}
	return binary.BigEndian.Uint64(p), int(binary.BigEndian.Uint32(p[8:])), nil
}

// forward Val layout: op:1 ttl:1 value.
const forwardHdrLen = 2

// appendForwardVal encodes a forward payload wrapping a Get (val nil)
// or Put (val = value to write).
func appendForwardVal(dst []byte, op wireOp, ttl int, val []byte) []byte {
	dst = append(dst, byte(op), byte(ttl))
	return append(dst, val...)
}

// decodeForwardVal parses a forward payload; val aliases p.
func decodeForwardVal(p []byte) (op wireOp, ttl int, val []byte, err error) {
	if len(p) < forwardHdrLen {
		return 0, 0, nil, fmt.Errorf("server: forward frame too short (%d bytes)", len(p))
	}
	return wireOp(p[0]), int(p[1]), p[forwardHdrLen:], nil
}

// traced Val layout: traceHi:8 traceLo:8 spanID:8 innerOp:1 innerVal.
// Only the identifiers cross the wire — span timestamps stay in each
// node's local ring; obs.MergeTraces re-aligns the clocks offline.
const tracedHdrLen = 8 + 8 + 8 + 1

// appendTracedVal wraps an inner request payload with a trace context.
func appendTracedVal(dst []byte, tc obs.TraceContext, op wireOp, val []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, tc.Hi)
	dst = binary.BigEndian.AppendUint64(dst, tc.Lo)
	dst = binary.BigEndian.AppendUint64(dst, tc.SpanID)
	dst = append(dst, byte(op))
	return append(dst, val...)
}

// decodeTracedVal parses a traced wrapper; val aliases p. The decoded
// context's SpanID is the sender's span — the receiver parents its own
// spans on it.
func decodeTracedVal(p []byte) (tc obs.TraceContext, op wireOp, val []byte, err error) {
	if len(p) < tracedHdrLen {
		return tc, 0, nil, fmt.Errorf("server: traced frame too short (%d bytes)", len(p))
	}
	tc.Hi = binary.BigEndian.Uint64(p)
	tc.Lo = binary.BigEndian.Uint64(p[8:])
	tc.SpanID = binary.BigEndian.Uint64(p[16:])
	return tc, wireOp(p[24]), p[tracedHdrLen:], nil
}

// hello Val layout: version:4. The OK response body mirrors it:
// version:4 followed by the server's node ID bytes.
const helloLen = 4

// appendHelloVal encodes the dialer's protocol version.
func appendHelloVal(dst []byte, version uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, version)
}

// decodeHelloVal parses a hello payload.
func decodeHelloVal(p []byte) (version uint32, err error) {
	if len(p) != helloLen {
		return 0, fmt.Errorf("server: hello frame length %d, want %d", len(p), helloLen)
	}
	return binary.BigEndian.Uint32(p), nil
}

// decodeHelloBody parses the hello response body.
func decodeHelloBody(p []byte) (version uint32, nodeID string, err error) {
	if len(p) < helloLen {
		return 0, "", fmt.Errorf("server: hello response length %d, want >=%d", len(p), helloLen)
	}
	return binary.BigEndian.Uint32(p), string(p[helloLen:]), nil
}

// readFrameInto reads one length-prefixed payload from br, reusing
// buf's backing array when it is large enough. The length prefix is
// peeked out of br's buffer: a local header array handed to io.ReadFull
// would escape, costing an allocation per frame.
func readFrameInto(br *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	br.Discard(4)
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("server: frame length %d out of range (1..%d)", n, maxFrame)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
