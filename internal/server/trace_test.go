package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"stringoram/internal/invariant"
	"stringoram/internal/obs"
)

// sampledTC returns a trace context the rate-r head sampler keeps.
func sampledTC(r uint64) obs.TraceContext {
	src := obs.NewTraceSource(0xdead)
	for {
		tc := src.NewTrace()
		if tc.Sampled(r) {
			return tc
		}
	}
}

// TestMixedVersionHandshake pins hello's exact version match as the one
// compatibility gate, from both ends. A dialer speaking the previous
// protocol is refused with statusProto and disconnected before any
// later frame is read; a server speaking it makes Dial fail with
// ErrProtocolMismatch. Between matched peers a frame carrying a trace
// context is accepted straight after hello, with nothing negotiated.
func TestMixedVersionHandshake(t *testing.T) {
	cfg := testConfig()
	cfg.TraceSample = 1
	srv, _, addr := startTCP(t, cfg)
	tc := sampledTC(1)

	// An old dialer: hello, then a traced Put pipelined behind it.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frames, _ := appendRequest(nil, wireRequest{Op: wireHello, Seq: 1, Val: appendHelloVal(nil, wireProtoVersion-1)})
	frames, _ = appendRequest(frames, wireRequest{Op: wirePut, Seq: 2, Trace: tc, Key: "k", Val: []byte("v")})
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	payload, err := readFrameInto(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := decodeResponse(payload); resp.Status != statusProto {
		t.Fatalf("old-version hello answered status %d %q, want statusProto", resp.Status, resp.Body)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrameInto(br, nil); err == nil {
		t.Fatal("server answered a frame pipelined behind a refused hello")
	}
	if n := srv.Tracer().Len(); n != 0 {
		t.Fatalf("a refused connection minted %d spans", n)
	}

	// An old server: it accepts the hello but announces the previous
	// version in its answer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		p, err := readFrameInto(bufio.NewReader(c), nil)
		if err != nil {
			return
		}
		req, _ := decodeRequest(p)
		c.Write(appendResponse(nil, wireResponse{Status: statusOK, Seq: req.Seq, Body: appendHelloVal(nil, wireProtoVersion-1)}))
		io.Copy(io.Discard, c)
	}()
	if c, err := Dial(ln.Addr().String()); !errors.Is(err, ErrProtocolMismatch) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("Dial against an old server: err = %v, want ErrProtocolMismatch", err)
	}

	// Matched peers: the first traced frame after hello is served and
	// joins the client's trace.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PutCtx(tc, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	spans := srv.Tracer().Snapshot(nil)
	if len(spans) != 1 || spans[0].Kind != obs.SpanServePut || spans[0].Hi != tc.Hi || spans[0].Lo != tc.Lo || spans[0].Parent != tc.SpanID {
		t.Fatalf("traced Put after hello left spans %+v, want one serve_put parented on %x", spans, tc.SpanID)
	}
}

// fakeCluster is an in-memory ClusterBackend recording the hop counts
// the TCP front end hands to the forward path.
type fakeCluster struct {
	mu       sync.Mutex
	data     map[string][]byte
	lastHops uint8
	gets     int
	puts     int
}

func newFakeCluster() *fakeCluster { return &fakeCluster{data: make(map[string][]byte)} }

// relays reports the forward calls so far and the last one's hops.
func (f *fakeCluster) relays() (gets, puts int, lastHops uint8) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets, f.puts, f.lastHops
}

func (f *fakeCluster) Replicate(tc obs.TraceContext, pver uint64, shard int, entries ReplicatedEntries) error {
	return nil
}
func (f *fakeCluster) HandoffChunk(shard int, first, last bool, data []byte) error { return nil }
func (f *fakeCluster) PlacementJSON() ([]byte, error)                              { return []byte("{}"), nil }
func (f *fakeCluster) AdoptPlacement(data []byte) error                            { return nil }
func (f *fakeCluster) Promote(pver uint64, shard int) error                        { return nil }

func (f *fakeCluster) ForwardGet(tc obs.TraceContext, key string, hops uint8, timeoutMillis uint32) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	f.lastHops = hops
	v, ok := f.data[key]
	return v, ok, nil
}

func (f *fakeCluster) ForwardPut(tc obs.TraceContext, key string, val []byte, hops uint8, timeoutMillis uint32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.lastHops = hops
	f.data[key] = append([]byte(nil), val...)
	return nil
}

// TestForwardTTLExhaustion pins the forward hop budget: a Get or Put
// frame for a foreign shard arriving with forwardTTL hops must surface
// the typed ErrWrongShard instead of relaying (the loop-breaker when
// nodes disagree about placement), one hop fewer relays exactly once
// with the count raised by one, and a plain client op relays with 1.
func TestForwardTTLExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.TotalShards = 2 * cfg.Shards // host only the bottom half of the shard space
	fake := newFakeCluster()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcp := NewTCPServer(srv)
	tcp.AttachCluster(fake, "node-fake")
	_, _, addr := serveTCP(t, srv, tcp, listen(t))

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A key this server does not host.
	var foreign string
	for i := 0; ; i++ {
		foreign = fmt.Sprintf("foreign-%d", i)
		if ShardOf(foreign, cfg.TotalShards) >= cfg.Shards {
			break
		}
	}

	var none obs.TraceContext
	if _, _, err := c.ForwardGet(none, foreign, forwardTTL, 0); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("exhausted forward get err = %v, want ErrWrongShard", err)
	}
	if err := c.ForwardPut(none, foreign, []byte("v"), forwardTTL, 0); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("exhausted forward put err = %v, want ErrWrongShard", err)
	}
	if gets, puts, _ := fake.relays(); gets != 0 || puts != 0 {
		t.Fatalf("exhausted forwards still reached the cluster layer (gets=%d puts=%d)", gets, puts)
	}

	if err := c.ForwardPut(none, foreign, []byte("relayed"), forwardTTL-1, 0); err != nil {
		t.Fatalf("forward put one hop short: %v", err)
	}
	if _, puts, hops := fake.relays(); puts != 1 || hops != forwardTTL {
		t.Fatalf("put one hop short: puts=%d lastHops=%d, want 1 relay with %d hops", puts, hops, forwardTTL)
	}
	got, found, err := c.ForwardGet(none, foreign, forwardTTL-1, 0)
	if err != nil || !found || string(got) != "relayed" {
		t.Fatalf("forward get one hop short = %q found=%v err=%v", got, found, err)
	}
	if gets, _, hops := fake.relays(); gets != 1 || hops != forwardTTL {
		t.Fatalf("get one hop short: gets=%d lastHops=%d, want 1 relay with %d hops", gets, hops, forwardTTL)
	}

	// A plain client op for the foreign shard relays as the first hop.
	if _, _, err := c.Get(foreign); err != nil {
		t.Fatal(err)
	}
	if gets, _, hops := fake.relays(); gets != 2 || hops != 1 {
		t.Fatalf("client get: gets=%d lastHops=%d, want a relay with 1 hop", gets, hops)
	}
}

// TestTracedServeProducesServeSpan drives a sampled request through a
// shard and checks its serve span lands in the tracer, parented on the
// wire context, while an unsampled request mints nothing.
func TestTracedServeProducesServeSpan(t *testing.T) {
	cfg := testConfig()
	cfg.TraceSample = 4
	srv, _, addr := startTCP(t, cfg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tc := sampledTC(cfg.TraceSample)
	if err := c.PutCtx(tc, "staged", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// An unsampled context must not mint anything.
	unsampled := obs.TraceContext{Hi: 0xf00, Lo: 0x1, SpanID: 9}
	if unsampled.Sampled(cfg.TraceSample) {
		t.Fatal("test context unexpectedly sampled")
	}
	if err := c.PutCtx(unsampled, "staged", []byte("v2")); err != nil {
		t.Fatal(err)
	}

	spans := srv.Tracer().Snapshot(nil)
	var serve obs.Span
	served := 0
	for _, s := range spans {
		if s.Hi != tc.Hi || s.Lo != tc.Lo {
			t.Fatalf("span %+v from the unsampled request reached the tracer", s)
		}
		if s.Kind == obs.SpanServePut {
			serve = s
			served++
		}
	}
	if served != 1 {
		t.Fatalf("want exactly 1 serve_put span, got %d (spans: %+v)", served, spans)
	}
	if serve.Parent != tc.SpanID {
		t.Fatalf("serve span parent %x, want the wire context's span %x", serve.Parent, tc.SpanID)
	}
}

// allocsPerOp is testing.AllocsPerRun without its floor: the mean number
// of heap allocations per call of f over runs calls, after one warm-up
// call, counted on every goroutine at GOMAXPROCS 1.
func allocsPerOp(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestAllocFreeTracedUnsampled pins the zero-cost contract of tracing:
// with tracing configured and a valid-but-unsampled context attached,
// the warmed serving path allocates no more than the untraced one — the
// sampler's drop decision must keep the whole span machinery untouched —
// and on the default build a Put allocates nothing at all.
//
// Under -race, sync.Pool drops one Put in four, so every pooled request
// path allocates a fraction of a request per op (0.5–0.9 measured).
// testing.AllocsPerRun floors its mean, which turned that fraction into
// a whole-allocation gap between two identical paths about once in 300
// runs. So the means here are unfloored and taken over 1000 calls, the
// traced-minus-untraced bound is +0.5 in both builds, and only the
// absolute Put bound (0.5) is waived under -race.
func TestAllocFreeTracedUnsampled(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; the zero-alloc guarantee binds on the default build")
	}
	cfg := testConfig()
	cfg.TraceSample = 1024
	cfg.MaxBatch = 1
	s := mustNew(t, cfg)
	defer s.Close()

	// Valid trace ID whose low bits fail the 1/1024 sampler.
	tc := obs.TraceContext{Hi: 0xabcdef, Lo: 0x3, SpanID: 0x11}
	if tc.Sampled(cfg.TraceSample) {
		t.Fatal("test context unexpectedly sampled")
	}
	key, val := "alloc-key", []byte("alloc-value-123")
	for i := 0; i < 8192; i++ {
		if err := s.PutCtx(tc, key, val, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 1000
	measure := func(f func() error) float64 {
		return allocsPerOp(runs, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
	}
	putTraced := measure(func() error { return s.PutCtx(tc, key, val, time.Time{}) })
	putPlain := measure(func() error { return s.Put(key, val) })
	if !raceEnabled && putTraced > 0.5 {
		t.Fatalf("traced-but-unsampled Put allocates %.2f/op, want ~0", putTraced)
	}
	if putTraced > putPlain+0.5 {
		t.Fatalf("traced-but-unsampled Put allocates %.2f/op vs %.2f untraced", putTraced, putPlain)
	}
	// Get's budget is the one value copy its API returns — identical to
	// the untraced path's; tracing must add nothing on top.
	getTraced := measure(func() error { _, _, err := s.GetCtx(tc, key, time.Time{}); return err })
	getPlain := measure(func() error { _, _, err := s.Get(key); return err })
	if getTraced > getPlain+0.5 {
		t.Fatalf("traced-but-unsampled Get allocates %.2f/op vs %.2f untraced", getTraced, getPlain)
	}
	if n := s.Tracer().Len(); n != 0 {
		t.Fatalf("unsampled traffic minted %d spans", n)
	}
}
