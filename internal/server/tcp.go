package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stringoram/internal/obs"
)

// ErrProtocolMismatch reports a hello handshake against a peer speaking
// a different wire protocol generation.
var ErrProtocolMismatch = errors.New("server: wire protocol version mismatch")

// ErrSelfDial reports a cluster node dialing its own listener (a
// placement or peer-list misconfiguration).
var ErrSelfDial = errors.New("server: node dialed itself")

// ErrRemote marks a response the server delivered but this client has
// no more specific sentinel for. Its presence proves the peer is alive
// and answering — failover logic must not treat it as a dead node.
var ErrRemote = errors.New("server: remote error")

// forwardTTL bounds node-to-node hops for a forwarded client op; the
// chain get→forward→forward dies here rather than looping while two
// nodes disagree about placement.
const forwardTTL = 3

// ClusterBackend is what a TCPServer needs from the cluster layer to
// serve the cluster frame types. All methods are receiver-side: they
// run on the node that got the frame. Implementations must be safe for
// concurrent use (the TCP server dispatches requests concurrently).
type ClusterBackend interface {
	// Replicate applies one op-log entry shipped by a primary. It must
	// reject entries carrying a placement version older than the node's
	// with ErrStalePlacement (fencing for deposed primaries). tc is the
	// write's distributed trace context (zero when untraced).
	Replicate(tc obs.TraceContext, pver uint64, shard int, seq uint64, key string, val []byte) error
	// HandoffChunk ingests one chunk of a shard snapshot stream; the
	// implementation installs the shard when last is set.
	HandoffChunk(shard int, first, last bool, data []byte) error
	// PlacementJSON returns the node's current placement table as JSON.
	PlacementJSON() ([]byte, error)
	// AdoptPlacement installs a pushed placement table if it is newer
	// than the node's.
	AdoptPlacement(data []byte) error
	// Promote asks this node to take over shard as primary, where pver
	// is the placement version the requester observed the failure under.
	Promote(pver uint64, shard int) error
	// ForwardGet relays a get one hop toward the shard's owner with the
	// given remaining TTL.
	ForwardGet(tc obs.TraceContext, key string, ttl int, timeoutMillis uint32) (val []byte, found bool, err error)
	// ForwardPut relays a put one hop toward the shard's owner.
	ForwardPut(tc obs.TraceContext, key string, val []byte, ttl int, timeoutMillis uint32) error
}

// TCPServer exposes a Server over the length-prefixed wire protocol.
// Each connection's read loop admits Get and Put frames straight onto
// the shard queues, and the shard workers encode their answers into the
// connection's output buffer, which one writer goroutine flushes; frames
// whose serving blocks run on a goroutine of their own. Responses are
// correlated by sequence number and may come back out of order, so
// clients may pipeline freely; the shard queues, and a bound on each
// connection's unanswered requests, provide the backpressure.
type TCPServer struct {
	srv *Server

	// nodeID and cluster are fixed before Serve (see AttachCluster) and
	// read without locking afterwards.
	nodeID  string
	cluster ClusterBackend

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*tcpConn
	closed bool
	connWG sync.WaitGroup
}

// NewTCPServer wraps srv; call Serve to start accepting.
func NewTCPServer(srv *Server) *TCPServer {
	return &TCPServer{srv: srv, conns: make(map[net.Conn]*tcpConn)}
}

// AttachCluster registers the cluster layer serving replicate, handoff,
// placement, promote, and forward frames, and the node ID announced in
// hello handshakes. Must be called before Serve.
func (t *TCPServer) AttachCluster(cb ClusterBackend, nodeID string) {
	t.cluster = cb
	t.nodeID = nodeID
}

// Serve accepts connections on ln until Shutdown. It returns nil after
// a Shutdown-initiated stop, or the accept error otherwise.
func (t *TCPServer) Serve(ln net.Listener) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	t.ln = ln
	t.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return nil
		}
		h := &tcpConn{t: t, conn: conn, wake: make(chan struct{}, 1), room: make(chan struct{}, 1)}
		t.conns[conn] = h
		t.connWG.Add(1)
		t.mu.Unlock()
		go h.handle()
	}
}

// Shutdown stops accepting, closes idle connections (a pipelined peer
// blocked between frames would otherwise pin the server forever), and
// waits for connections with requests in flight to finish: a request
// counts as in flight until its response bytes are written, so every
// request admitted before Shutdown gets its real response. When ctx
// expires first, lingering connections are force-closed and ctx.Err()
// is returned.
func (t *TCPServer) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	t.closed = true
	ln := t.ln
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		t.connWG.Wait()
		close(done)
	}()
	// Sweep idle connections until the active ones drain. The sweep is
	// racy by design: a request arriving just as its connection is judged
	// idle gets a reset instead of a response — clients treat that as a
	// retryable connection error, same as any mid-shutdown arrival.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	t.closeIdle()
	for {
		select {
		case <-done:
			return nil
		case <-tick.C:
			t.closeIdle()
		case <-ctx.Done():
			t.mu.Lock()
			for c := range t.conns {
				c.Close()
			}
			t.mu.Unlock()
			<-done
			return ctx.Err()
		}
	}
}

// closeIdle closes every connection with no request in flight.
func (t *TCPServer) closeIdle() {
	t.mu.Lock()
	for c, h := range t.conns {
		if h.inflight.Load() == 0 {
			c.Close()
		}
	}
	t.mu.Unlock()
}

// framePool recycles the payload buffers of frames served on their own
// goroutine and the client's staged composite payloads. Entries are
// *[]byte so Put does not allocate; the slice inside keeps its grown
// capacity.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxConnInflight bounds the requests one connection may have read and
// not yet answered on the wire. At the bound the read loop stops
// reading, so a client that pipelines without reading its answers is
// pushed back by TCP flow control instead of growing the server. It is
// far above any caller's pipeline depth, so no well-behaved client
// meets it.
const maxConnInflight = 1024

// maxKeptBuf caps the connection buffers kept between uses: one large
// frame (a handoff chunk, a span scrape) must not pin its size for the
// connection's lifetime.
const maxKeptBuf = 64 << 10

// tcpConn is one connection's serving state. Its read loop is the only
// reader; responses are encoded into out — by the shard workers for Get
// and Put, by the read loop for frames it answers inline, by a goroutine
// for frames whose serving blocks — and one writer goroutine swaps out
// for its spare buffer and issues one conn.Write per wake.
type tcpConn struct {
	t    *TCPServer
	conn net.Conn

	// inflight counts requests read and not yet written back: it rises
	// when the read loop takes a frame and falls only after the writer
	// has written the response, so Shutdown's idle test cannot close a
	// connection under a computed-but-unwritten response.
	inflight atomic.Int64
	readDone atomic.Bool // the read loop has exited

	mu     sync.Mutex
	out    []byte // encoded responses the writer has not taken yet
	queued int64  // responses in out

	wake chan struct{} // cap 1: out holds responses (or readDone flipped)
	room chan struct{} // cap 1: the writer retired responses
}

// handle serves the connection until its read loop ends, then waits for
// every response it owes to be written before closing it.
func (h *tcpConn) handle() {
	t := h.t
	defer t.connWG.Done()
	written := make(chan struct{})
	go h.writeLoop(written)
	h.readLoop()
	h.readDone.Store(true)
	h.kick()
	<-written
	t.mu.Lock()
	delete(t.conns, h.conn)
	t.mu.Unlock()
	h.conn.Close()
}

// readLoop decodes frames until the connection fails or a frame demands
// it close, routing each as it arrives; buffered frames are routed
// without blocking, and the loop stops reading while maxConnInflight
// requests are unanswered.
func (h *tcpConn) readLoop() {
	br := bufio.NewReader(h.conn)
	var buf []byte // reused: whatever outlives a frame copies out of it
	for {
		for h.inflight.Load() >= maxConnInflight {
			<-h.room
		}
		payload, err := readFrameInto(br, buf[:0])
		if err != nil {
			return
		}
		if buf = payload; cap(buf) > maxKeptBuf {
			buf = nil
		}
		h.inflight.Add(1)
		req, err := decodeRequest(payload)
		if err != nil {
			h.reply(wireResponse{Status: statusBad, Seq: req.Seq, Body: []byte(err.Error())})
			return
		}
		if !h.route(req) {
			return
		}
	}
}

// route serves one frame by the cheapest means that cannot stall the
// read loop or a shard worker. Hello and ping are answered inline
// (a rejected hello must close the connection before any further frame
// is interpreted under mismatched assumptions — route reports false);
// Get and Put, traced or not, are admitted for a shard worker to answer;
// everything else blocks on I/O or on another shard and runs on its own
// goroutine. A traced frame is unwrapped here, once, and only ops that
// accept a context may be wrapped; anything else is rejected rather than
// silently dropping the trace.
func (h *tcpConn) route(req wireRequest) bool {
	t := h.t
	var tc obs.TraceContext
	if req.Op == wireTraced {
		var err error
		if tc, req.Op, req.Val, err = decodeTracedVal(req.Val); err != nil {
			h.reply(wireResponse{Status: statusBad, Seq: req.Seq, Body: []byte(err.Error())})
			return true
		}
		if req.Op != wireGet && req.Op != wirePut && req.Op != wireReplicate && req.Op != wireForward {
			h.reply(wireResponse{Status: statusBad, Seq: req.Seq, Body: []byte(fmt.Sprintf("op %d cannot carry a trace context", req.Op))})
			return true
		}
	}
	switch req.Op {
	case wireHello:
		resp, ok := t.hello(req)
		h.reply(resp)
		return ok
	case wirePing:
		h.reply(wireResponse{Status: statusOK, Seq: req.Seq})
	case wireGet, wirePut:
		h.submit(tc, req)
	default:
		pp := framePool.Get().(*[]byte)
		*pp = append((*pp)[:0], req.Val...)
		req.Val = *pp
		go h.serveReq(tc, req, pp)
	}
	return true
}

// submit admits a Get or Put for a shard worker to answer into this
// connection, with the admission rules of Server.Get/Put: the same
// validation, default deadline, and immediate ErrBacklog, ErrWrongShard
// or ErrClosed — answered here, or forwarded (see deliver).
func (h *tcpConn) submit(tc obs.TraceContext, w wireRequest) {
	var deadline time.Time
	if w.TimeoutMillis > 0 {
		deadline = time.Now().Add(time.Duration(w.TimeoutMillis) * time.Millisecond)
	}
	kind := opGet
	if w.Op == wirePut {
		kind = opPut
	}
	s := h.t.srv
	req, err := s.admit(tc, kind, w.Key, w.Val, deadline)
	if err != nil {
		h.reply(errResponse(w.Seq, err))
		return
	}
	req.conn, req.wseq, req.wtc, req.timeoutMs = h, w.Seq, tc, w.TimeoutMillis
	req.buf = append(req.buf[:0], w.Val...)
	req.val = req.buf
	if err := s.enqueue(ShardOf(w.Key, s.cfg.TotalShards), req); err != nil {
		h.deliver(req, result{err: err})
	}
}

// deliver answers a request submit admitted, taking ownership of it. It
// runs on the shard worker (or the read loop, when admission failed), so
// it never blocks: the answer is encoded into the output buffer, except
// that a cluster node relays a wrong-shard answer — whether the routing
// table or the shard's worker gave it — by a forward on a goroutine of
// its own, since the hop waits on another node.
func (h *tcpConn) deliver(r *request, res result) {
	if res.err != nil && h.t.cluster != nil && errors.Is(res.err, ErrWrongShard) {
		go h.forward(r)
		return
	}
	h.reply(wireResult(r.op, r.wseq, res))
	releaseRequest(r)
}

// forward relays a wrong-shard Get or Put one hop toward the shard's
// owner and answers it; it owns r.
func (h *tcpConn) forward(r *request) {
	res := h.t.forwardOnce(r.wtc, r.op, r.key, r.val, forwardTTL, r.timeoutMs)
	h.reply(wireResult(r.op, r.wseq, res))
	releaseRequest(r)
}

// serveReq serves one blocking frame on its own goroutine, with the trace
// context route unwrapped from it; pp holds the frame's value and goes
// back to the pool once the response is built (no response aliases it).
func (h *tcpConn) serveReq(tc obs.TraceContext, req wireRequest, pp *[]byte) {
	resp := h.t.dispatch(tc, req)
	framePool.Put(pp)
	h.reply(resp)
}

// reply encodes one response into the output buffer and wakes the
// writer. The mutex is held only for the append: nobody writes to the
// socket under it.
func (h *tcpConn) reply(r wireResponse) {
	h.mu.Lock()
	h.out = appendResponse(h.out, r)
	h.queued++
	h.mu.Unlock()
	h.kick()
}

// kick wakes the writer without blocking; a wake already pending covers
// this one.
func (h *tcpConn) kick() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// writeLoop is the connection's one writer: each wake takes everything
// encoded so far in one conn.Write, then retires those responses from
// inflight. A failed write closes the connection, which ends the read
// loop, and the writer keeps retiring what is still owed. It exits once
// the read loop is done and nothing is left in flight, and closes
// written.
func (h *tcpConn) writeLoop(written chan<- struct{}) {
	defer close(written)
	var spare []byte
	for range h.wake {
		h.mu.Lock()
		buf, n := h.out, h.queued
		h.out, h.queued = spare[:0], 0
		h.mu.Unlock()
		if len(buf) > 0 {
			if _, err := h.conn.Write(buf); err != nil {
				h.conn.Close()
			}
		}
		if spare = buf; cap(spare) > maxKeptBuf {
			spare = nil
		}
		if h.inflight.Add(-n) == 0 && h.readDone.Load() {
			return
		}
		select {
		case h.room <- struct{}{}:
		default:
		}
	}
}

// hello answers a handshake frame. ok is false when the connection must
// be closed (version mismatch); the response has already been queued.
func (t *TCPServer) hello(r wireRequest) (resp wireResponse, ok bool) {
	ver, err := decodeHelloVal(r.Val)
	if err != nil {
		return wireResponse{Status: statusProto, Seq: r.Seq, Body: []byte(err.Error())}, false
	}
	if ver != wireProtoVersion {
		msg := fmt.Sprintf("peer speaks protocol v%d, this node v%d", ver, wireProtoVersion)
		return wireResponse{Status: statusProto, Seq: r.Seq, Body: []byte(msg)}, false
	}
	body := appendHelloVal(nil, wireProtoVersion)
	body = append(body, t.nodeID...)
	return wireResponse{Status: statusOK, Seq: r.Seq, Body: body}, true
}

// dispatch executes one frame the read loop handed to a goroutine (see
// tcpConn.route for the frames it answers itself); tc is the context of
// a traced replicate or forward, zero otherwise.
func (t *TCPServer) dispatch(tc obs.TraceContext, r wireRequest) wireResponse {
	var deadline time.Time
	if r.TimeoutMillis > 0 {
		deadline = time.Now().Add(time.Duration(r.TimeoutMillis) * time.Millisecond)
	}
	switch r.Op {
	case wireReplicate:
		return t.serveReplicate(tc, r)
	case wireHandoff:
		return t.serveHandoff(r)
	case wirePlacement:
		return t.servePlacement(r)
	case wirePromote:
		return t.servePromote(r)
	case wireForward:
		return t.serveForward(tc, r, deadline)
	case wireScrape:
		return t.serveScrape(r)
	default:
		return wireResponse{Status: statusBad, Seq: r.Seq, Body: []byte(fmt.Sprintf("unknown op %d", r.Op))}
	}
}

// serveScrape answers a telemetry fetch: the node's Prometheus
// exposition or its span ring, as cluster federation inputs.
func (t *TCPServer) serveScrape(r wireRequest) wireResponse {
	if len(r.Val) != 1 {
		return wireResponse{Status: statusBad, Seq: r.Seq, Body: []byte("scrape frame wants mode:1")}
	}
	switch r.Val[0] {
	case scrapeMetrics:
		var buf bytes.Buffer
		if err := t.srv.Obs().WritePrometheus(&buf); err != nil {
			return errResponse(r.Seq, err)
		}
		return wireResponse{Status: statusOK, Seq: r.Seq, Body: buf.Bytes()}
	case scrapeSpans:
		spans := t.srv.Tracer().Snapshot(nil)
		body := make([]byte, 0, len(spans)*obs.SpanWireLen)
		for _, s := range spans {
			body = obs.AppendSpan(body, s)
		}
		return wireResponse{Status: statusOK, Seq: r.Seq, Body: body}
	default:
		return wireResponse{Status: statusBad, Seq: r.Seq, Body: []byte(fmt.Sprintf("unknown scrape mode %d", r.Val[0]))}
	}
}

// wireResult encodes a Get's or Put's result as its wire response.
func wireResult(op opKind, seq uint64, res result) wireResponse {
	switch {
	case res.err != nil:
		return errResponse(seq, res.err)
	case op == opGet && !res.found:
		return wireResponse{Status: statusNotFound, Seq: seq}
	}
	return wireResponse{Status: statusOK, Seq: seq, Body: res.val}
}

// forwardOnce relays a Get or Put one hop toward the shard's owner, ttl
// being the hops left before this one.
func (t *TCPServer) forwardOnce(tc obs.TraceContext, op opKind, key string, val []byte, ttl int, timeoutMillis uint32) (res result) {
	if op == opGet {
		res.val, res.found, res.err = t.cluster.ForwardGet(tc, key, ttl-1, timeoutMillis)
	} else {
		res.err = t.cluster.ForwardPut(tc, key, val, ttl-1, timeoutMillis)
	}
	return res
}

// clusterOnly rejects cluster frames on a node with no cluster layer.
func (t *TCPServer) clusterOnly(seq uint64) (wireResponse, bool) {
	if t.cluster == nil {
		return wireResponse{Status: statusBad, Seq: seq, Body: []byte("not a cluster node")}, false
	}
	return wireResponse{}, true
}

func (t *TCPServer) serveReplicate(tc obs.TraceContext, r wireRequest) wireResponse {
	if resp, ok := t.clusterOnly(r.Seq); !ok {
		return resp
	}
	pver, shard, seq, val, err := decodeReplicateVal(r.Val)
	if err != nil {
		return wireResponse{Status: statusBad, Seq: r.Seq, Body: []byte(err.Error())}
	}
	if err := t.cluster.Replicate(tc, pver, shard, seq, r.Key, val); err != nil {
		return errResponse(r.Seq, err)
	}
	return wireResponse{Status: statusOK, Seq: r.Seq}
}

func (t *TCPServer) serveHandoff(r wireRequest) wireResponse {
	if resp, ok := t.clusterOnly(r.Seq); !ok {
		return resp
	}
	shard, flags, data, err := decodeHandoffVal(r.Val)
	if err != nil {
		return wireResponse{Status: statusBad, Seq: r.Seq, Body: []byte(err.Error())}
	}
	if err := t.cluster.HandoffChunk(shard, flags&handoffFirst != 0, flags&handoffLast != 0, data); err != nil {
		return errResponse(r.Seq, err)
	}
	return wireResponse{Status: statusOK, Seq: r.Seq}
}

func (t *TCPServer) servePlacement(r wireRequest) wireResponse {
	if resp, ok := t.clusterOnly(r.Seq); !ok {
		return resp
	}
	if len(r.Val) == 0 {
		body, err := t.cluster.PlacementJSON()
		if err != nil {
			return errResponse(r.Seq, err)
		}
		return wireResponse{Status: statusOK, Seq: r.Seq, Body: body}
	}
	if err := t.cluster.AdoptPlacement(r.Val); err != nil {
		return errResponse(r.Seq, err)
	}
	return wireResponse{Status: statusOK, Seq: r.Seq}
}

func (t *TCPServer) servePromote(r wireRequest) wireResponse {
	if resp, ok := t.clusterOnly(r.Seq); !ok {
		return resp
	}
	pver, shard, err := decodePromoteVal(r.Val)
	if err != nil {
		return wireResponse{Status: statusBad, Seq: r.Seq, Body: []byte(err.Error())}
	}
	if err := t.cluster.Promote(pver, shard); err != nil {
		return errResponse(r.Seq, err)
	}
	return wireResponse{Status: statusOK, Seq: r.Seq}
}

// serveForward answers a forwarded Get or Put locally, forwarding one
// more hop when this node does not serve the key's shard either.
func (t *TCPServer) serveForward(tc obs.TraceContext, r wireRequest, deadline time.Time) wireResponse {
	wop, ttl, val, err := decodeForwardVal(r.Val)
	if err != nil {
		return wireResponse{Status: statusBad, Seq: r.Seq, Body: []byte(err.Error())}
	}
	var op opKind
	var res result
	switch wop {
	case wireGet:
		op = opGet
		res.val, res.found, res.err = t.srv.GetCtx(tc, r.Key, deadline)
	case wirePut:
		op = opPut
		res.err = t.srv.PutCtx(tc, r.Key, val, deadline)
	default:
		return wireResponse{Status: statusBad, Seq: r.Seq, Body: []byte(fmt.Sprintf("forward of op %d not allowed", wop))}
	}
	if errors.Is(res.err, ErrWrongShard) && t.cluster != nil && ttl > 0 {
		res = t.forwardOnce(tc, op, r.Key, val, ttl, r.TimeoutMillis)
	}
	return wireResult(op, r.Seq, res)
}

// errResponse maps a serving error to its wire status.
func errResponse(seq uint64, err error) wireResponse {
	status := statusErr
	switch {
	case errors.Is(err, ErrBacklog):
		status = statusBacklog
	case errors.Is(err, ErrDeadline):
		status = statusDeadline
	case errors.Is(err, ErrClosed):
		status = statusClosed
	case errors.Is(err, ErrBadKey), errors.Is(err, ErrValueTooLarge):
		status = statusBad
	case errors.Is(err, ErrWrongShard):
		status = statusWrongShard
	case errors.Is(err, ErrStalePlacement):
		status = statusStale
	case errors.Is(err, ErrFull):
		status = statusFull
	}
	return wireResponse{Status: status, Seq: seq, Body: []byte(err.Error())}
}

// Client is a stdlib-only client for the wire protocol. It is safe for
// concurrent use; requests are pipelined over one connection and
// correlated by sequence number.
type Client struct {
	// Timeout, when positive, is sent with every request and enforced
	// by the server as a per-request deadline.
	Timeout time.Duration

	conn net.Conn
	wmu  sync.Mutex // serializes frame writes; guards wbuf
	wbuf []byte     // reused request-frame scratch

	mu      sync.Mutex // guards seq, pending, err
	seq     uint64
	pending map[uint64]chan wireResponse
	err     error

	serverNodeID string // learned in the hello handshake
}

// Dial connects to a TCPServer and performs the protocol handshake.
func Dial(addr string) (*Client, error) {
	return DialNode(addr, "")
}

// DialNode connects as a cluster node: nodeID is announced in the
// handshake, and the connection is refused with ErrSelfDial when the
// peer turns out to be the dialer itself. An empty nodeID dials as an
// anonymous client (no self-dial check).
func DialNode(addr, nodeID string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	// The deadline covers the handshake only: it is cleared once hello
	// has returned, and requests are bounded by Client.Timeout instead.
	if err := conn.SetDeadline(time.Now().Add(dialTimeout)); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{conn: conn, pending: make(map[uint64]chan wireResponse)}
	go c.readLoop()
	if err := c.hello(nodeID); err != nil {
		c.Close()
		return nil, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// dialTimeout bounds the TCP connect and, separately, the hello
// handshake of one Dial. A peer that accepts and never answers would
// otherwise park its dialer forever — and with it whatever the dialer
// was doing that for (a router operation, a shard worker's replication).
const dialTimeout = 3 * time.Second

// hello runs the version + node-ID handshake.
func (c *Client) hello(nodeID string) error {
	var ver [helloLen]byte
	resp, err := c.roundTrip(wireHello, nodeID, appendHelloVal(ver[:0], wireProtoVersion))
	if err != nil {
		return err
	}
	if resp.Status != statusOK {
		// Pre-handshake servers answer statusBad ("unknown op"); treat
		// any rejection as a protocol mismatch.
		if resp.Status == statusProto || resp.Status == statusBad {
			return fmt.Errorf("%s: %w", string(resp.Body), ErrProtocolMismatch)
		}
		return respError(resp)
	}
	sver, serverID, err := decodeHelloBody(resp.Body)
	if err != nil {
		return fmt.Errorf("%v: %w", err, ErrProtocolMismatch)
	}
	if sver != wireProtoVersion {
		return fmt.Errorf("peer speaks protocol v%d, this client v%d: %w", sver, wireProtoVersion, ErrProtocolMismatch)
	}
	if nodeID != "" && serverID == nodeID {
		return fmt.Errorf("%s dialed %s: %w", nodeID, serverID, ErrSelfDial)
	}
	c.serverNodeID = serverID
	return nil
}

// ServerNodeID reports the node ID the peer announced in the handshake
// (empty for non-cluster servers).
func (c *Client) ServerNodeID() string { return c.serverNodeID }

// EnableTracing does nothing and reports (true, nil): every peer that
// passes hello's version check accepts traced frames, so a valid
// TraceContext is always sent. The method survives only so bench/,
// which may change only in a benchmark PR, keeps compiling; that PR
// removes it.
func (c *Client) EnableTracing() (bool, error) { return true, nil }

// readLoop routes response frames to their waiters; on connection error
// it fails every pending and future request with that error.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	var buf []byte // reused; decodeResponse copies the body out
	for {
		payload, err := readFrameInto(br, buf[:0])
		buf = payload
		if err != nil {
			c.fail(fmt.Errorf("server client: connection lost: %w", err))
			return
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// fail poisons the client: all pending waiters are released with err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for seq, ch := range c.pending {
		delete(c.pending, seq)
		close(ch)
	}
	c.mu.Unlock()
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(errors.New("server client: closed"))
	return err
}

// respChanPool recycles roundTrip wait channels. A channel is returned
// only after a value was received from it (or while it was provably
// unreachable: removed from pending before any send could happen), so a
// pooled channel is always empty and open. Channels closed by fail are
// dropped on the floor instead.
var respChanPool = sync.Pool{New: func() any { return make(chan wireResponse, 1) }}

// roundTrip sends one request and waits for its response.
func (c *Client) roundTrip(op wireOp, key string, val []byte) (wireResponse, error) {
	ch := respChanPool.Get().(chan wireResponse)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		respChanPool.Put(ch)
		return wireResponse{}, err
	}
	c.seq++
	seq := c.seq
	c.pending[seq] = ch
	c.mu.Unlock()

	var timeoutMs uint32
	if c.Timeout > 0 {
		// The wire carries whole milliseconds and 0 means "apply the
		// server's default deadline", so a sub-millisecond timeout rounds
		// up to 1 instead of silently becoming that default.
		timeoutMs = uint32(min(max(c.Timeout/time.Millisecond, 1), math.MaxUint32))
	}
	c.wmu.Lock()
	frame, err := appendRequest(c.wbuf[:0], wireRequest{Op: op, Seq: seq, TimeoutMillis: timeoutMs, Key: key, Val: val})
	if err == nil {
		c.wbuf = frame
		_, err = c.conn.Write(frame)
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		_, mine := c.pending[seq]
		delete(c.pending, seq)
		c.mu.Unlock()
		if mine {
			// Still registered, so no send or close could have targeted
			// the channel; it is empty, open, and exclusively ours.
			respChanPool.Put(ch)
		}
		return wireResponse{}, err
	}
	resp, ok := <-ch
	if !ok {
		// fail closed the channel; it is poisoned, never pooled again.
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return wireResponse{}, err
	}
	respChanPool.Put(ch)
	return resp, nil
}

// roundTripCtx is roundTrip with an optional trace context: a valid
// context rides a wireTraced wrapper (staged in a pooled buffer — no
// per-request allocation); otherwise the plain frame is sent. Hello's
// exact version match guarantees the peer understands the wrapper.
func (c *Client) roundTripCtx(tc obs.TraceContext, op wireOp, key string, val []byte) (wireResponse, error) {
	if !tc.Valid() {
		return c.roundTrip(op, key, val)
	}
	fp := framePool.Get().(*[]byte)
	*fp = appendTracedVal((*fp)[:0], tc, op, val)
	resp, err := c.roundTrip(wireTraced, key, *fp)
	framePool.Put(fp)
	return resp, err
}

// respError maps a non-OK response to the typed serving errors, so
// Retryable works identically on both sides of the wire. Statuses with
// no specific sentinel wrap ErrRemote: the server answered, so failover
// logic can tell an application error from a dead connection.
func respError(resp wireResponse) error {
	if resp.Status == statusOK || resp.Status == statusNotFound {
		return nil // before msg: a Get's body is its value, not a message
	}
	msg := string(resp.Body)
	switch resp.Status {
	case statusBacklog:
		return fmt.Errorf("%s: %w", msg, ErrBacklog)
	case statusDeadline:
		return fmt.Errorf("%s: %w", msg, ErrDeadline)
	case statusClosed:
		return fmt.Errorf("%s: %w", msg, ErrClosed)
	case statusWrongShard:
		return fmt.Errorf("%s: %w", msg, ErrWrongShard)
	case statusStale:
		return fmt.Errorf("%s: %w", msg, ErrStalePlacement)
	case statusProto:
		return fmt.Errorf("%s: %w", msg, ErrProtocolMismatch)
	case statusFull:
		return fmt.Errorf("%s: %w", msg, ErrFull)
	default:
		return fmt.Errorf("server client: %s: %w", msg, ErrRemote)
	}
}

// Get fetches a value; found is false for keys never written.
func (c *Client) Get(key string) (val []byte, found bool, err error) {
	return c.GetCtx(obs.TraceContext{}, key)
}

// GetCtx is Get carrying a distributed trace context.
func (c *Client) GetCtx(tc obs.TraceContext, key string) (val []byte, found bool, err error) {
	resp, err := c.roundTripCtx(tc, wireGet, key, nil)
	if err != nil {
		return nil, false, err
	}
	if err := respError(resp); err != nil {
		return nil, false, err
	}
	if resp.Status == statusNotFound {
		return nil, false, nil
	}
	return resp.Body, true, nil
}

// Put stores a value.
func (c *Client) Put(key string, val []byte) error {
	return c.PutCtx(obs.TraceContext{}, key, val)
}

// PutCtx is Put carrying a distributed trace context.
func (c *Client) PutCtx(tc obs.TraceContext, key string, val []byte) error {
	resp, err := c.roundTripCtx(tc, wirePut, key, val)
	if err != nil {
		return err
	}
	return respError(resp)
}

// Ping round-trips an empty frame (liveness check).
func (c *Client) Ping() error {
	resp, err := c.roundTrip(wirePing, "", nil)
	if err != nil {
		return err
	}
	return respError(resp)
}

// --- cluster frame senders ---
//
// Composite payloads are staged in framePool buffers (appendRequest
// copies them into the write buffer under wmu), so a warmed replication
// link sends without per-entry allocations.

// Replicate ships one op-log entry to a follower and waits for its ack.
func (c *Client) Replicate(pver uint64, shard int, seq uint64, key string, val []byte) error {
	return c.ReplicateCtx(obs.TraceContext{}, pver, shard, seq, key, val)
}

// ReplicateCtx is Replicate carrying the write's trace context, so the
// follower's apply span joins the primary's trace.
func (c *Client) ReplicateCtx(tc obs.TraceContext, pver uint64, shard int, seq uint64, key string, val []byte) error {
	fp := framePool.Get().(*[]byte)
	*fp = appendReplicateVal((*fp)[:0], pver, shard, seq, val)
	resp, err := c.roundTripCtx(tc, wireReplicate, key, *fp)
	framePool.Put(fp)
	if err != nil {
		return err
	}
	return respError(resp)
}

// HandoffChunk ships one chunk of a shard snapshot stream.
func (c *Client) HandoffChunk(shard int, first, last bool, data []byte) error {
	var flags byte
	if first {
		flags |= handoffFirst
	}
	if last {
		flags |= handoffLast
	}
	fp := framePool.Get().(*[]byte)
	*fp = appendHandoffVal((*fp)[:0], shard, flags, data)
	resp, err := c.roundTrip(wireHandoff, "", *fp)
	framePool.Put(fp)
	if err != nil {
		return err
	}
	return respError(resp)
}

// FetchPlacement retrieves the peer's placement table as JSON.
func (c *Client) FetchPlacement() ([]byte, error) {
	resp, err := c.roundTrip(wirePlacement, "", nil)
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// PushPlacement offers the peer a placement table; peers adopt it only
// if it is newer than their own.
func (c *Client) PushPlacement(data []byte) error {
	resp, err := c.roundTrip(wirePlacement, "", data)
	if err != nil {
		return err
	}
	return respError(resp)
}

// Promote asks the peer to take over shard as primary at placement
// version pver.
func (c *Client) Promote(pver uint64, shard int) error {
	var buf [promoteLen]byte
	resp, err := c.roundTrip(wirePromote, "", appendPromoteVal(buf[:0], pver, shard))
	if err != nil {
		return err
	}
	return respError(resp)
}

// ForwardGet relays a get to the peer with the given remaining TTL.
func (c *Client) ForwardGet(key string, ttl int) (val []byte, found bool, err error) {
	return c.ForwardGetCtx(obs.TraceContext{}, key, ttl)
}

// ForwardGetCtx is ForwardGet carrying a distributed trace context.
func (c *Client) ForwardGetCtx(tc obs.TraceContext, key string, ttl int) (val []byte, found bool, err error) {
	var buf [forwardHdrLen]byte
	resp, err := c.roundTripCtx(tc, wireForward, key, appendForwardVal(buf[:0], wireGet, ttl, nil))
	if err != nil {
		return nil, false, err
	}
	if err := respError(resp); err != nil {
		return nil, false, err
	}
	if resp.Status == statusNotFound {
		return nil, false, nil
	}
	return resp.Body, true, nil
}

// ForwardPut relays a put to the peer with the given remaining TTL.
func (c *Client) ForwardPut(key string, val []byte, ttl int) error {
	return c.ForwardPutCtx(obs.TraceContext{}, key, val, ttl)
}

// ForwardPutCtx is ForwardPut carrying a distributed trace context.
func (c *Client) ForwardPutCtx(tc obs.TraceContext, key string, val []byte, ttl int) error {
	fp := framePool.Get().(*[]byte)
	*fp = appendForwardVal((*fp)[:0], wirePut, ttl, val)
	resp, err := c.roundTripCtx(tc, wireForward, key, *fp)
	framePool.Put(fp)
	if err != nil {
		return err
	}
	return respError(resp)
}

// ScrapeMetrics fetches the peer's Prometheus text exposition (the
// cluster federation input).
func (c *Client) ScrapeMetrics() ([]byte, error) {
	resp, err := c.roundTrip(wireScrape, "", []byte{scrapeMetrics})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// ScrapeSpans fetches the peer's distributed-trace span ring.
func (c *Client) ScrapeSpans() ([]obs.Span, error) {
	resp, err := c.roundTrip(wireScrape, "", []byte{scrapeSpans})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	return obs.DecodeSpans(resp.Body)
}
