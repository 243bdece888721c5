package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"stringoram/internal/invariant"
)

// rawConn drives the wire protocol by hand, so a test controls exactly
// what is pipelined and when — if ever — responses are read.
type rawConn struct {
	t  *testing.T
	c  *net.TCPConn
	br *bufio.Reader
}

// dialRaw connects and completes the hello handshake.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rc := &rawConn{t: t, c: c.(*net.TCPConn), br: bufio.NewReader(c)}
	rc.roundTrip(wireRequest{Op: wireHello, Val: appendHelloVal(nil, wireProtoVersion)})
	return rc
}

// frame appends req to dst as a request frame.
func (rc *rawConn) frame(dst []byte, req wireRequest) []byte {
	rc.t.Helper()
	out, err := appendRequest(dst, req)
	if err != nil {
		rc.t.Fatal(err)
	}
	return out
}

func (rc *rawConn) read() wireResponse {
	rc.t.Helper()
	payload, err := readFrameInto(rc.br, nil)
	if err != nil {
		rc.t.Fatal(err)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return resp
}

// roundTrip sends one frame and reads one response, which must be OK.
func (rc *rawConn) roundTrip(req wireRequest) wireResponse {
	rc.t.Helper()
	if _, err := rc.c.Write(rc.frame(nil, req)); err != nil {
		rc.t.Fatal(err)
	}
	resp := rc.read()
	if resp.Status != statusOK {
		rc.t.Fatalf("op %d answered status %d: %s", req.Op, resp.Status, resp.Body)
	}
	return resp
}

// serverSide returns the TCP server's state for the connection rc.
func serverSide(t *testing.T, tcp *TCPServer, rc *rawConn) *tcpConn {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		tcp.mu.Lock()
		for sc, h := range tcp.conns {
			if sc.RemoteAddr().String() == rc.c.LocalAddr().String() {
				tcp.mu.Unlock()
				return h
			}
		}
		tcp.mu.Unlock()
	}
	t.Fatal("server never registered the connection")
	return nil
}

// TestTCPBurstSpawnsNoGoroutines: Get and Put, traced or not, and Ping
// cost no goroutine per request. A 1000-deep pipelined burst on one
// connection is held in the shard queues by stalled workers, then
// drained; the live goroutine count, sampled throughout, stays within a
// small constant of the idle connection's.
func TestTCPBurstSpawnsNoGoroutines(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			const burst = 1000
			var held atomic.Int64 // requests in batches the workers are stalled on
			release := make(chan struct{})
			cfg := testConfig()
			cfg.QueueDepth = burst
			cfg.TraceSample = 1
			cfg.onBatch = func(shard, n int) {
				held.Add(int64(n))
				<-release
			}
			srv, _, addr := startTCP(t, cfg)
			rc := dialRaw(t, addr)
			tc := sampledTC(1)
			var frames []byte
			keyed := 0
			for i := 0; i < burst; i++ {
				req := wireRequest{Seq: uint64(i + 1), Key: fmt.Sprintf("burst-%d", i%40)}
				switch i % 3 {
				case 0:
					req.Op = wireGet
				case 1:
					req.Op, req.Val = wirePut, []byte("v")
				default:
					req.Op = wirePing
				}
				if req.Op != wirePing {
					keyed++
					if traced {
						req.Op, req.Val = wireTraced, appendTracedVal(nil, tc, req.Op, req.Val)
					}
				}
				frames = rc.frame(frames, req)
			}

			base := runtime.NumGoroutine()
			peak := base
			sample := func() { peak = max(peak, runtime.NumGoroutine()) }
			if _, err := rc.c.Write(frames); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				sample()
				queued := int(held.Load())
				for _, d := range srv.Metrics().QueueDepths {
					queued += d
				}
				if queued == keyed {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d requests admitted", queued, keyed)
				}
			}
			close(release)
			seen := make(map[uint64]bool, burst)
			for i := 0; i < burst; i++ {
				resp := rc.read()
				if resp.Status != statusOK && resp.Status != statusNotFound {
					t.Fatalf("seq %d answered status %d: %s", resp.Seq, resp.Status, resp.Body)
				}
				if seen[resp.Seq] {
					t.Fatalf("seq %d answered twice", resp.Seq)
				}
				seen[resp.Seq] = true
				if i%25 == 0 {
					sample()
				}
			}
			if peak-base > 8 {
				t.Fatalf("live goroutines rose from %d to %d during a %d-deep burst, want a constant", base, peak, burst)
			}
			if traced && srv.Tracer().Len() == 0 {
				t.Fatal("traced burst recorded no serve spans")
			}
		})
	}
}

// slowWriteListener delays every Write on the connections it accepts.
type slowWriteListener struct {
	net.Listener
	delay time.Duration
}

func (l slowWriteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowWriteConn{c, l.delay}, nil
}

type slowWriteConn struct {
	net.Conn
	delay time.Duration
}

func (c slowWriteConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// TestTCPShutdownDeliversComputedResponses: a graceful Shutdown must not
// close a connection under a response the server computed but has not
// written. With every server Write delayed 20 ms, each Put the shard
// workers applied before Shutdown began must reach its client as an ack,
// not a connection reset.
func TestTCPShutdownDeliversComputedResponses(t *testing.T) {
	srv := mustNew(t, testConfig())
	tcp := NewTCPServer(srv)
	_, _, addr := serveTCP(t, srv, tcp, slowWriteListener{listen(t), 20 * time.Millisecond})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const puts = 8
	errs := make(chan error, puts)
	for i := 0; i < puts; i++ {
		go func(i int) { errs <- c.Put(fmt.Sprintf("shutdown-%d", i), []byte("v")) }(i)
	}
	for srv.Metrics().Puts < puts {
		time.Sleep(50 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tcp.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < puts; i++ {
		if err := <-errs; err != nil {
			t.Errorf("Put applied before Shutdown did not get its response: %v", err)
		}
	}
}

// gatedListener holds every Write on the connections it accepts until
// gate closes (or the connection does): a peer that is not reading,
// whatever the kernel would have buffered for it.
type gatedListener struct {
	net.Listener
	gate <-chan struct{}
}

func (l gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, gate: l.gate, closed: make(chan struct{})}, nil
}

type gatedConn struct {
	net.Conn
	gate   <-chan struct{}
	once   sync.Once
	closed chan struct{}
}

func (c *gatedConn) Write(p []byte) (int, error) {
	select {
	case <-c.gate:
		return c.Conn.Write(p)
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

func (c *gatedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestTCPUnreadPipelineIsBounded: a client that pipelines 20k Gets and
// reads nothing must not grow the server without bound. The read loop
// stops at maxConnInflight unanswered requests and TCP flow control holds
// the rest in the client: the server's goroutines and buffered response
// bytes stay bounded, and once the client reads, every answer arrives. A
// connection stuck like this still yields to a Shutdown whose context
// has expired.
func TestTCPUnreadPipelineIsBounded(t *testing.T) {
	const n = 20000
	cfg := testConfig()
	cfg.QueueDepth = maxConnInflight
	srv := mustNew(t, cfg)
	val := bytes.Repeat([]byte{'x'}, srv.MaxValueLen())
	if err := srv.Put("stuffed", val); err != nil {
		t.Fatal(err)
	}
	// stuff pipelines n Gets on a fresh connection to a front end whose
	// writes wait for gate, and returns once the server stops reading it.
	stuff := func(gate <-chan struct{}) (*TCPServer, *rawConn, *tcpConn, int, <-chan error) {
		tcp := NewTCPServer(srv)
		_, _, addr := serveTCP(t, srv, tcp, gatedListener{listen(t), gate})
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		rc := &rawConn{t: t, c: c.(*net.TCPConn), br: bufio.NewReader(c)}
		h := serverSide(t, tcp, rc)
		var frames []byte
		for i := 1; i <= n; i++ {
			frames = rc.frame(frames, wireRequest{Op: wireGet, Seq: uint64(i), Key: "stuffed"})
		}
		base := runtime.NumGoroutine()
		wrote := make(chan error, 1)
		go func() {
			_, err := rc.c.Write(frames)
			wrote <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); h.inflight.Load() < maxConnInflight; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("server has %d requests unanswered, never reached the bound %d", h.inflight.Load(), maxConnInflight)
			}
		}
		return tcp, rc, h, base, wrote
	}

	gate := make(chan struct{})
	_, rc, h, base, wrote := stuff(gate)
	time.Sleep(50 * time.Millisecond) // give an unbounded server time to show it
	if got := h.inflight.Load(); got != maxConnInflight {
		t.Fatalf("%d requests unanswered, want exactly the bound %d", got, maxConnInflight)
	}
	if g := runtime.NumGoroutine(); g-base > 8 {
		t.Fatalf("goroutines %d -> %d while the client is not reading", base, g)
	}
	h.mu.Lock()
	buffered := len(h.out)
	h.mu.Unlock()
	if limit := maxConnInflight * (4 + respFixedLen + srv.MaxValueLen()); buffered > limit {
		t.Fatalf("%d response bytes buffered, want <= %d", buffered, limit)
	}
	close(gate)
	seen := make([]bool, n+1)
	for i := 0; i < n; i++ {
		resp := rc.read()
		if resp.Status != statusOK || !bytes.Equal(resp.Body, val) || seen[resp.Seq] {
			t.Fatalf("answer %d: seq %d status %d (seen before: %v)", i, resp.Seq, resp.Status, seen[resp.Seq])
		}
		seen[resp.Seq] = true
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}

	tcp, rc, _, _, _ := stuff(make(chan struct{})) // a client that never reads
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stopped := make(chan error, 1)
	go func() { stopped <- tcp.Shutdown(ctx) }()
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Shutdown with an expired context = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown with an expired context did not force-close a connection that stopped reading")
	}
	rc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := rc.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection not closed by a forced Shutdown: read = %v", err)
	}
}

// TestTCPStressSharedClient is TestStress over the wire: 64 goroutines
// share 2 Clients against 4 shards with 64-deep queues, retrying
// retryable errors. Every acknowledged write must be readable afterwards,
// and the server must count exactly the acknowledged Puts.
func TestTCPStressSharedClient(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 64
	srv, _, addr := startTCP(t, cfg)
	var clients [2]*Client
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	const (
		workers = 64
		opsEach = 40
	)
	last := make([]map[string]string, workers) // per worker: key -> last acked value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			last[w] = make(map[string]string)
			for i := 0; i < opsEach; i++ {
				// Each worker owns its keys, so its last ack per key is the
				// exact expected state; the key space spans every shard.
				key := fmt.Sprintf("c%02d-k%02d", w, i%8)
				val := fmt.Sprintf("v-%d-%d", w, i)
				for {
					err := c.Put(key, []byte(val))
					if err == nil {
						last[w][key] = val
						break
					}
					if !Retryable(err) {
						t.Errorf("worker %d: put %s: %v", w, key, err)
						return
					}
				}
				if i%3 == 0 {
					for {
						_, _, err := c.Get(key)
						if err == nil {
							break
						}
						if !Retryable(err) {
							t.Errorf("worker %d: get %s: %v", w, key, err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w, keys := range last {
		for key, want := range keys {
			got, found, err := clients[w%len(clients)].Get(key)
			if err != nil || !found || string(got) != want {
				t.Fatalf("key %s: got %q found=%v err=%v, want %q", key, got, found, err, want)
			}
		}
	}
	if m := srv.Metrics(); m.Puts != workers*opsEach {
		t.Fatalf("server counted %d Puts, clients were acked %d", m.Puts, workers*opsEach)
	}
}

// TestTCPTracedWrapRejections: the read loop unwraps a traced frame once
// and rejects, with statusBad and the connection left up, a malformed
// wrapper and any inner op that cannot carry a context (hello included:
// a wrapped hello is not a handshake).
func TestTCPTracedWrapRejections(t *testing.T) {
	_, _, addr := startTCP(t, testConfig())
	rc := dialRaw(t, addr)
	tc := sampledTC(1)
	expectBad := func(req wireRequest, want string) {
		t.Helper()
		if _, err := rc.c.Write(rc.frame(nil, req)); err != nil {
			t.Fatal(err)
		}
		resp := rc.read()
		if resp.Status != statusBad || !bytes.Contains(resp.Body, []byte(want)) {
			t.Fatalf("answered status %d %q, want statusBad containing %q", resp.Status, resp.Body, want)
		}
		rc.roundTrip(wireRequest{Op: wirePing, Seq: req.Seq + 1})
	}
	expectBad(wireRequest{Op: wireTraced, Seq: 10, Val: []byte{1, 2, 3}}, "")
	for i, op := range []wireOp{wirePing, wireHello, wireScrape, wireTraced} {
		val := appendTracedVal(nil, tc, op, nil)
		expectBad(wireRequest{Op: wireTraced, Seq: uint64(20 + 2*i), Val: val}, "cannot carry a trace context")
	}
	rc.roundTrip(wireRequest{Op: wireTraced, Seq: 40, Key: "k", Val: appendTracedVal(nil, tc, wirePut, []byte("v"))})
}

// TestAllocBoundLoopbackClient pins what a warmed loopback Client op
// allocates, both ends together: a Put one object (the server's copy of
// the key), a Get two (that, and the value handed to the caller), a Ping
// none. AllocsPerRun counts every goroutine, so the bounds carry the
// same half-allocation slack as the other serving guards.
func TestAllocBoundLoopbackClient(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("invariant assertions and the race detector's pools allocate; the bound binds on the default build")
	}
	_, _, addr := startTCP(t, testConfig())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key, val := "alloc-key", []byte("alloc-value-0123456789-0123456789")
	for i := 0; i < 2000; i++ {
		if err := c.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []struct {
		name  string
		bound float64
		f     func() error
	}{
		{"Put", 1, func() error { return c.Put(key, val) }},
		{"Get", 2, func() error { _, _, err := c.Get(key); return err }},
		{"Ping", 0, c.Ping},
	} {
		if n := testing.AllocsPerRun(1000, func() {
			if err := op.f(); err != nil {
				t.Fatal(err)
			}
		}); n > op.bound+0.5 {
			t.Errorf("warmed loopback %s allocates %.2f/op, want <= %v", op.name, n, op.bound)
		}
	}
}

// flakyListener fails its first fails Accepts with EMFILE, what a
// connection burst past the descriptor limit gives, then accepts for real.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(), Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestTCPServeRetriesTemporaryAcceptError: an accept error that reports
// itself temporary must not stop the server. After two EMFILE failures
// Serve keeps accepting, a client connects and round-trips, and Serve
// returns nil at Shutdown (serveTCP's cleanup checks that).
func TestTCPServeRetriesTemporaryAcceptError(t *testing.T) {
	ln := &flakyListener{Listener: listen(t)}
	ln.fails.Store(2)
	srv := mustNew(t, testConfig())
	_, _, addr := serveTCP(t, srv, NewTCPServer(srv), ln)
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial after temporary accept errors: %v", err)
	}
	defer c.Close()
	if err := c.Put("emfile", []byte("survived")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := c.Get("emfile"); err != nil || !found || string(v) != "survived" {
		t.Fatalf("Get = %q found=%v err=%v", v, found, err)
	}
	if ln.fails.Load() >= 0 {
		t.Fatal("the listener's injected errors were never returned")
	}
}

// countingConn counts the Writes made on it.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestClientCombinesConcurrentRequests: requests that become ready
// together leave in shared writes. 32 goroutines pipelining 300 Gets
// each through one Client make at most one conn.Write per two requests
// at GOMAXPROCS 1, 2 and 4; a lone caller is never held back to wait
// for company, so it makes exactly one Write per request.
func TestClientCombinesConcurrentRequests(t *testing.T) {
	_, _, addr := startTCP(t, testConfig())
	for _, procs := range []int{1, 2, 4} {
		for _, callers := range []int{1, 32} {
			t.Run(fmt.Sprintf("procs=%d/callers=%d", procs, callers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				cc := &countingConn{Conn: raw}
				c, err := newClient(cc, "")
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				cc.writes.Store(0) // the handshake's
				const each = 300
				var wg sync.WaitGroup
				for g := 0; g < callers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < each; i++ {
							if _, _, err := c.Get(fmt.Sprintf("combine-%d", (g+i)%64)); err != nil {
								t.Error(err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				perReq := float64(cc.writes.Load()) / float64(callers*each)
				t.Logf("%.3f conn.Writes per request", perReq)
				if callers == 1 && perReq != 1 {
					t.Fatalf("a lone caller made %.3f Writes per request, want exactly 1", perReq)
				}
				if callers > 1 && perReq > 0.5 {
					t.Fatalf("%d concurrent callers made %.3f Writes per request, want <= 0.5", callers, perReq)
				}
			})
		}
	}
}

// failingConn passes Writes through until armed. An armed Write counts
// itself, announces itself on entered, waits for release, and fails.
type failingConn struct {
	net.Conn
	armed   atomic.Bool
	writes  atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (c *failingConn) Write(p []byte) (int, error) {
	if !c.armed.Load() {
		return c.Conn.Write(p)
	}
	c.writes.Add(1)
	c.entered <- struct{}{}
	<-c.release
	return 0, errors.New("injected write failure")
}

// TestClientFailedFlushFailsEveryCaller: a flusher writes other callers'
// frames, so its failed write must fail them all. One Get blocks in a
// Write that then fails, with 8 more Gets buffered behind it: all 9
// return an error within a second, the next Get fails with the client's
// error without touching the connection (a stream cut mid-frame is never
// written again), and no reply channel closed by the failure is pooled.
func TestClientFailedFlushFailsEveryCaller(t *testing.T) {
	const k = 8
	_, _, addr := startTCP(t, testConfig())
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// entered holds one signal per caller, so a stray later Write (which
	// the writes count catches) cannot block the test.
	fc := &failingConn{Conn: raw, entered: make(chan struct{}, k+2), release: make(chan struct{})}
	c, err := newClient(fc, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc.armed.Store(true)
	errs := make(chan error, k+1)
	get := func() {
		_, _, err := c.Get("k")
		errs <- err
	}
	go get()
	<-fc.entered
	for i := 0; i < k; i++ {
		go get()
	}
	frame, err := appendRequest(nil, wireRequest{Op: wireGet, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.wmu.Lock()
		buffered := len(c.wbuf)
		c.wmu.Unlock()
		if buffered == k*len(frame) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes buffered behind the blocked flusher, want %d frames of %d", buffered, k, len(frame))
		}
	}
	close(fc.release)
	timeout := time.After(time.Second)
	for i := 0; i <= k; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a Get succeeded although its frame was lost with the failed write")
			}
		case <-timeout:
			t.Fatalf("%d of %d calls returned within 1 s of the failed write", i, k+1)
		}
	}
	c.mu.Lock()
	cerr := c.err
	c.mu.Unlock()
	if _, _, err := c.Get("k"); cerr == nil || !errors.Is(err, cerr) {
		t.Fatalf("Get after the failure = %v, want the client's error %v", err, cerr)
	}
	if n := fc.writes.Load(); n != 1 {
		t.Fatalf("%d Writes after arming, want only the one that failed", n)
	}
	for i := 0; i < 4*k; i++ {
		select {
		case v, ok := <-respChanPool.Get().(chan wireResponse):
			t.Fatalf("pooled reply channel not empty and open: %+v ok=%v", v, ok)
		default:
		}
	}
}
