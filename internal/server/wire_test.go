package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stringoram/internal/obs"
)

func TestWireRequestRoundTrip(t *testing.T) {
	cases := []wireRequest{
		{Op: wireGet, Seq: 1, Key: "alpha"},
		{Op: wirePut, Seq: 1 << 60, TimeoutMillis: 250, Key: "k", Val: []byte("value")},
		{Op: wirePing, Seq: 0},
		{Op: wireScrape, Seq: 7, Val: []byte{scrapeSpans}},
		{Op: wirePut, Seq: 2, Key: strings.Repeat("x", MaxKeyLen), Val: bytes.Repeat([]byte{0xff}, 62)},
	}
	for _, want := range cases {
		frame, err := appendRequest(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := readFrameInto(bufio.NewReader(bytes.NewReader(frame)), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
	if _, err := appendRequest(nil, wireRequest{Op: wireGet, Key: strings.Repeat("x", MaxKeyLen+1)}); err == nil {
		t.Fatal("oversized key encoded")
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	cases := []wireResponse{
		{Status: statusOK, Seq: 3, Body: []byte("payload")},
		{Status: statusNotFound, Seq: 9},
		{Status: statusBacklog, Seq: 1, Body: []byte("shard 2: queue full")},
	}
	for _, want := range cases {
		payload, err := readFrameInto(bufio.NewReader(bytes.NewReader(appendResponse(nil, want))), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestWireDecodeCorrupt(t *testing.T) {
	// Truncations and bad lengths must error, never panic or over-read.
	good, err := appendRequest(nil, wireRequest{Op: wirePut, Seq: 5, Key: "kk", Val: []byte("vv")})
	if err != nil {
		t.Fatal(err)
	}
	payload := good[4:]
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeRequest(payload[:cut]); err == nil {
			t.Fatalf("truncated request payload (%d bytes) decoded", cut)
		}
	}
	for cut := 0; cut < respFixedLen; cut++ {
		if _, err := decodeResponse(make([]byte, cut)); err == nil {
			t.Fatalf("truncated response payload (%d bytes) decoded", cut)
		}
	}
	// Zero and oversized frame lengths are rejected by the reader.
	var zero [4]byte
	if _, err := readFrameInto(bufio.NewReader(bytes.NewReader(zero[:])), nil); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := readFrameInto(bufio.NewReader(bytes.NewReader(huge)), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestWireReplicateFrame round-trips a multi-entry replicate frame,
// holds a full frame, traced wrapper included, within maxFrame, and
// rejects every truncation and a frame with no entries before anything
// would be applied.
func TestWireReplicateFrame(t *testing.T) {
	type entry struct {
		seq      uint64
		key, val string
	}
	want := []entry{{7, "a", "one"}, {8, strings.Repeat("k", MaxKeyLen), ""}, {9, "c", strings.Repeat("v", 62)}}
	var f ReplicateFrame
	f.Reset(42, 3)
	for _, e := range want {
		if !f.Add(e.seq, []byte(e.key), []byte(e.val)) {
			t.Fatalf("entry %d refused by a nearly empty frame", e.seq)
		}
	}
	if f.Len() != len(want) {
		t.Fatalf("frame holds %d entries, want %d", f.Len(), len(want))
	}
	pver, shard, es, err := decodeReplicateVal(f.buf)
	if err != nil || pver != 42 || shard != 3 || es.count != len(want) {
		t.Fatalf("decode = pver %d shard %d, %d entries, err %v", pver, shard, es.count, err)
	}
	rest := es.data
	for _, e := range want {
		var (
			seq      uint64
			key, val []byte
		)
		if seq, key, val, rest, err = nextReplicateEntry(rest); err != nil || seq != e.seq || string(key) != e.key || string(val) != e.val {
			t.Fatalf("entry = %d %q %q, %v; want %+v", seq, key, val, err, e)
		}
	}
	for cut := 0; cut < len(f.buf); cut++ {
		if _, _, _, err := decodeReplicateVal(f.buf[:cut]); err == nil {
			t.Fatalf("truncated replicate payload (%d bytes) decoded", cut)
		}
	}
	f.Reset(1, 0)
	if _, _, _, err := decodeReplicateVal(f.buf); err == nil {
		t.Fatal("replicate frame with no entries decoded")
	}

	// Fill a frame to its bound; the traced request around it fits.
	val := make([]byte, 60<<10)
	for seq := uint64(1); f.Add(seq, []byte("k"), val); seq++ {
	}
	if f.Len() == 0 {
		t.Fatal("empty frame refused an entry")
	}
	tc := obs.TraceContext{Hi: 1, Lo: 2, SpanID: 3}
	if _, err := appendRequest(nil, wireRequest{Op: wireTraced, Val: appendTracedVal(nil, tc, wireReplicate, f.buf)}); err != nil {
		t.Fatalf("full traced replicate frame: %v", err)
	}
}

// startTCP brings up a full server + TCP front end on a loopback port.
func startTCP(t *testing.T, cfg Config) (*Server, *TCPServer, string) {
	t.Helper()
	srv := mustNew(t, cfg)
	return serveTCP(t, srv, NewTCPServer(srv), listen(t))
}

// listen opens a loopback listener, skipping the test where there is none.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	return ln
}

// serveTCP serves an already-built server + front end on ln (startTCP's
// tail for callers that need AttachCluster, other pre-Serve setup, or a
// wrapped listener) and shuts both down at cleanup.
func serveTCP(t *testing.T, srv *Server, tcp *TCPServer, ln net.Listener) (*Server, *TCPServer, string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- tcp.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tcp.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		srv.Close()
	})
	return srv, tcp, ln.Addr().String()
}

func TestTCPEndToEnd(t *testing.T) {
	srv, _, addr := startTCP(t, testConfig())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, found, err := c.Get("nope"); err != nil || found {
		t.Fatalf("Get(nope) = found=%v err=%v", found, err)
	}
	if err := c.Put("wire-key", []byte("wire-value")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get("wire-key")
	if err != nil || !found || string(v) != "wire-value" {
		t.Fatalf("Get = %q found=%v err=%v", v, found, err)
	}
	if m := srv.Metrics(); m.Puts != 1 || m.Gets != 2 {
		t.Fatalf("metrics after wire traffic: puts=%d gets=%d, want 1/2", m.Puts, m.Gets)
	}
	body, err := c.ScrapeMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(body); err != nil || !bytes.Contains(body, []byte(`server_requests_total{`)) {
		t.Fatalf("scrape over wire: %v\n%s", err, body)
	}
}

// TestTCPConcurrentClients drives the wire path from many concurrent
// client connections; every acknowledged write must be readable.
func TestTCPConcurrentClients(t *testing.T) {
	_, _, addr := startTCP(t, testConfig())

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("tcp-%d-%d", c, i)
				val := fmt.Sprintf("val-%d-%d", c, i)
				for {
					err := cl.Put(key, []byte(val))
					if err == nil {
						break
					}
					if !Retryable(err) {
						errs <- fmt.Errorf("put %s: %w", key, err)
						return
					}
				}
				got, found, err := cl.Get(key)
				if err != nil || !found || string(got) != val {
					errs <- fmt.Errorf("get %s = %q found=%v err=%v", key, got, found, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPShutdownRejectsNewConns(t *testing.T) {
	srv, tcp, addr := startTCP(t, testConfig())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tcp.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr); err == nil {
		// Accept may race the listener close; a successful dial must at
		// least fail on first use.
		c2, _ := Dial(addr)
		if c2 != nil {
			if err := c2.Ping(); err == nil {
				t.Fatal("connection served after shutdown")
			}
			c2.Close()
		}
	}
	// The in-process server still works until Close.
	if _, found, err := srv.Get("k"); err != nil || !found {
		t.Fatalf("in-process get after TCP shutdown: found=%v err=%v", found, err)
	}
}

func TestClientErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		status wireStatus
		target error
	}{
		{statusBacklog, ErrBacklog},
		{statusDeadline, ErrDeadline},
		{statusClosed, ErrClosed},
	} {
		err := respError(wireResponse{Status: tc.status, Body: []byte("ctx")})
		if !errors.Is(err, tc.target) {
			t.Errorf("status %d: %v does not unwrap to %v", tc.status, err, tc.target)
		}
	}
	if respError(wireResponse{Status: statusOK}) != nil || respError(wireResponse{Status: statusNotFound}) != nil {
		t.Error("OK/NotFound mapped to an error")
	}
	if !Retryable(respError(wireResponse{Status: statusBacklog})) {
		t.Error("wire backlog error must stay retryable")
	}
}

// TestClientSubMillisecondTimeout: the wire carries whole milliseconds
// and 0 means "server default", so a 500µs client timeout must travel as
// 1 ms (and expire against a stalled shard) instead of truncating to 0
// and silently taking the server's default — here none, i.e. no deadline
// at all. Timeout = 0 must still send 0 and ride out the same stall.
func TestClientSubMillisecondTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.onBatch = func(shard, n int) { time.Sleep(20 * time.Millisecond) }
	_, _, addr := startTCP(t, cfg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Timeout = 500 * time.Microsecond
	if err := c.Put("k", []byte("v")); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Put with a 500µs timeout against a 20ms stall: %v, want ErrDeadline", err)
	}
	c.Timeout = 0
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put with no timeout: %v (Timeout 0 must send 0, the server default)", err)
	}
}

// TestDialBoundsSilentPeer: a peer that accepts the connection and never
// answers the hello must fail the dial within dialTimeout, not park the
// dialer forever.
func TestDialBoundsSilentPeer(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			held <- conn // keep it open and silent
		}
	}()
	defer func() {
		select {
		case conn := <-held:
			conn.Close()
		default:
		}
	}()

	start := time.Now()
	c, err := Dial(ln.Addr().String())
	if err == nil {
		c.Close()
		t.Fatal("Dial succeeded against a peer that never answered the hello")
	}
	if took := time.Since(start); took < dialTimeout || took > dialTimeout+2*time.Second {
		t.Fatalf("Dial failed after %v (%v), want about dialTimeout = %v", took, err, dialTimeout)
	}
}
