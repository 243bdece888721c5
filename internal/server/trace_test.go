package server

import (
	"errors"
	"fmt"
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

// TestMixedVersionHandshake pins the capability-negotiation downgrade
// path: against a pre-capability peer (emulated by SetLegacyWire) the
// client must fall back to untraced operation without dropping the
// connection, no trace header may reach the peer, and capability-gated
// frames must keep their typed-error mapping. Flipping the emulation
// off mid-connection then upgrades the same link.
func TestMixedVersionHandshake(t *testing.T) {
	cfg := testConfig()
	cfg.TraceSample = 1 // the server would sample everything — if it ever saw a context
	srv, tcp, addr := startTCP(t, cfg)
	tcp.SetLegacyWire(true)

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("hello against legacy peer: %v", err)
	}
	defer c.Close()

	on, err := c.EnableTracing()
	if err != nil {
		t.Fatalf("EnableTracing against legacy peer: %v", err)
	}
	if on || c.TracingEnabled() {
		t.Fatal("tracing negotiated against a pre-capability peer")
	}

	// Capability-gated frames answer statusBad; the client maps that to
	// the ErrRemote sentinel (peer alive, no specific error), never to a
	// connection error.
	if _, err := c.ScrapeMetrics(); !errors.Is(err, ErrRemote) {
		t.Fatalf("legacy scrape err = %v, want ErrRemote", err)
	}
	if _, err := c.ScrapeSpans(); !errors.Is(err, ErrRemote) {
		t.Fatalf("legacy span scrape err = %v, want ErrRemote", err)
	}

	// Traffic carrying a context still works — sent as plain v2 frames,
	// so the context stays local and the server never mints a span.
	tc := sampledTC(1)
	if err := c.PutCtx(tc, "mixed-key", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.GetCtx(tc, "mixed-key")
	if err != nil || !found || string(got) != "v1" {
		t.Fatalf("GetCtx over legacy link = %q found=%v err=%v", got, found, err)
	}
	if n := srv.Tracer().Len(); n != 0 {
		t.Fatalf("legacy link leaked %d spans to the server tracer", n)
	}

	// Upgrade the peer in place: the same connection negotiates tracing
	// and traced frames start producing serve spans.
	tcp.SetLegacyWire(false)
	on, err = c.EnableTracing()
	if err != nil || !on {
		t.Fatalf("EnableTracing after upgrade = %v, %v, want true", on, err)
	}
	if err := c.PutCtx(tc, "mixed-key", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	spans := srv.Tracer().Snapshot(nil)
	if len(spans) == 0 {
		t.Fatal("upgraded link produced no spans")
	}
	for _, s := range spans {
		if s.Hi != tc.Hi || s.Lo != tc.Lo {
			t.Fatalf("span %+v carries a foreign trace ID, want %x%x", s, tc.Hi, tc.Lo)
		}
		if s.Parent == 0 && s.Kind != obs.SpanClientGet && s.Kind != obs.SpanClientPut {
			t.Fatalf("server span %+v has no parent; serve spans must join the client's trace", s)
		}
	}
}

// fakeCluster is an in-memory ClusterBackend recording the TTLs the
// TCP front end hands to the forward path.
type fakeCluster struct {
	mu      sync.Mutex
	data    map[string][]byte
	lastTTL int
	gets    int
	puts    int
}

func newFakeCluster() *fakeCluster { return &fakeCluster{data: make(map[string][]byte)} }

func (f *fakeCluster) Replicate(tc obs.TraceContext, pver uint64, shard int, seq uint64, key string, val []byte) error {
	return nil
}
func (f *fakeCluster) HandoffChunk(shard int, first, last bool, data []byte) error { return nil }
func (f *fakeCluster) PlacementJSON() ([]byte, error)                              { return []byte("{}"), nil }
func (f *fakeCluster) AdoptPlacement(data []byte) error                            { return nil }
func (f *fakeCluster) Promote(pver uint64, shard int) error                        { return nil }

func (f *fakeCluster) ForwardGet(tc obs.TraceContext, key string, ttl int, timeoutMillis uint32) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	f.lastTTL = ttl
	v, ok := f.data[key]
	return v, ok, nil
}

func (f *fakeCluster) ForwardPut(tc obs.TraceContext, key string, val []byte, ttl int, timeoutMillis uint32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.lastTTL = ttl
	f.data[key] = append([]byte(nil), val...)
	return nil
}

// TestForwardTTLExhaustion pins the forward hop budget: a wireForward
// frame arriving with TTL 0 for a foreign shard must surface the typed
// ErrWrongShard instead of relaying (the loop-breaker when nodes
// disagree about placement), while TTL 1 relays exactly once with a
// decremented budget.
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

	if _, _, err := c.ForwardGet(foreign, 0); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("TTL-0 forward get err = %v, want ErrWrongShard", err)
	}
	if err := c.ForwardPut(foreign, []byte("v"), 0); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("TTL-0 forward put err = %v, want ErrWrongShard", err)
	}
	if fake.gets != 0 || fake.puts != 0 {
		t.Fatalf("exhausted forwards still reached the cluster layer (gets=%d puts=%d)", fake.gets, fake.puts)
	}

	if err := c.ForwardPut(foreign, []byte("relayed"), 1); err != nil {
		t.Fatalf("TTL-1 forward put: %v", err)
	}
	if fake.puts != 1 || fake.lastTTL != 0 {
		t.Fatalf("TTL-1 put: puts=%d lastTTL=%d, want 1 relay with TTL 0", fake.puts, fake.lastTTL)
	}
	got, found, err := c.ForwardGet(foreign, 1)
	if err != nil || !found || string(got) != "relayed" {
		t.Fatalf("TTL-1 forward get = %q found=%v err=%v", got, found, err)
	}
	if fake.gets != 1 || fake.lastTTL != 0 {
		t.Fatalf("TTL-1 get: gets=%d lastTTL=%d, want 1 relay with TTL 0", fake.gets, fake.lastTTL)
	}

	// A plain client op for the foreign shard enters the relay with the
	// full budget minus the local hop.
	if _, _, err := c.Get(foreign); err != nil {
		t.Fatal(err)
	}
	if fake.lastTTL != forwardTTL-1 {
		t.Fatalf("client get relayed with TTL %d, want %d", fake.lastTTL, forwardTTL-1)
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
	if on, err := c.EnableTracing(); err != nil || !on {
		t.Fatalf("EnableTracing = %v, %v", on, err)
	}

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

// TestAllocFreeTracedUnsampled pins the tentpole's zero-cost contract:
// with tracing configured and a valid-but-unsampled context attached,
// the warmed serving path allocates nothing — the sampler's drop
// decision must keep the whole span machinery untouched.
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
	// The shard worker runs on its own goroutine, so AllocsPerRun sees
	// the global rate; fractional bounds absorb scheduler noise while
	// still catching any real per-op allocation.
	putAllocs := testing.AllocsPerRun(200, func() {
		if err := s.PutCtx(tc, key, val, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
	if putAllocs > 0.5 {
		t.Fatalf("traced-but-unsampled Put allocates %.2f/op, want ~0", putAllocs)
	}
	// Get's budget is the one value copy its API returns — identical to
	// the untraced path's; tracing must add nothing on top.
	getAllocs := testing.AllocsPerRun(200, func() {
		if _, _, err := s.GetCtx(tc, key, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
	baseline := testing.AllocsPerRun(200, func() {
		if _, _, err := s.Get(key); err != nil {
			t.Fatal(err)
		}
	})
	if getAllocs > baseline+0.5 {
		t.Fatalf("traced-but-unsampled Get allocates %.2f/op vs %.2f untraced", getAllocs, baseline)
	}
	if n := s.Tracer().Len(); n != 0 {
		t.Fatalf("unsampled traffic minted %d spans", n)
	}
}
