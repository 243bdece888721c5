package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"stringoram/internal/obs"
	"stringoram/internal/server"
)

// testServerConfig returns a small, fast per-node server config; a
// levels-L ORAM holds 2^(L-1) keys per shard.
func testServerConfig(seed uint64, levels int) server.Config {
	return server.Config{
		ORAM:       server.DefaultORAM(levels),
		Seed:       seed,
		QueueDepth: 128,
		MaxBatch:   16,
	}
}

// testCluster is a fully wired in-process cluster.
type testCluster struct {
	t         *testing.T
	placement *Placement
	nodes     []*Node
	done      []chan error
	dead      []bool
}

// startCluster brings up nodeCount nodes serving shardCount global
// shards with round-robin primaries and followers.
func startCluster(t *testing.T, nodeCount, shardCount int) *testCluster {
	t.Helper()
	return startClusterLevels(t, nodeCount, shardCount, 8)
}

// startClusterLevels is startCluster with an explicit per-shard ORAM
// depth, for workloads writing more than 128 distinct keys per shard.
func startClusterLevels(t *testing.T, nodeCount, shardCount, levels int) *testCluster {
	t.Helper()
	return startClusterWith(t, nodeCount, shardCount, levels, nil)
}

// startClusterWith is the fully general harness entry: mutate (may be
// nil) adjusts each node's server config before the node starts, e.g.
// to arm tracing.
func startClusterWith(t *testing.T, nodeCount, shardCount, levels int, mutate func(*server.Config)) *testCluster {
	t.Helper()
	lns := make([]net.Listener, nodeCount)
	infos := make([]NodeInfo, nodeCount)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		lns[i] = ln
		infos[i] = NodeInfo{ID: fmt.Sprintf("node-%d", i), Addr: ln.Addr().String()}
	}
	p, err := Static(shardCount, infos)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{t: t, placement: p, nodes: make([]*Node, nodeCount),
		done: make([]chan error, nodeCount), dead: make([]bool, nodeCount)}
	for i := range tc.nodes {
		cfg := testServerConfig(100+uint64(i), levels)
		if mutate != nil {
			mutate(&cfg)
		}
		n, err := NewNode(NodeConfig{
			ID:        infos[i].ID,
			Placement: p,
			Server:    cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes[i] = n
		tc.done[i] = make(chan error, 1)
		go func(n *Node, ln net.Listener, done chan error) {
			done <- n.Serve(ln)
		}(n, lns[i], tc.done[i])
	}
	t.Cleanup(tc.stopAll)
	return tc
}

func (tc *testCluster) stopAll() {
	for i, n := range tc.nodes {
		if tc.dead[i] {
			continue
		}
		n.Close()
		select {
		case err := <-tc.done[i]:
			// ErrClosed means Close won the race before the Serve
			// goroutine was scheduled — a clean stop either way.
			if err != nil && !errors.Is(err, server.ErrClosed) {
				tc.t.Errorf("node %d Serve: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			tc.t.Errorf("node %d did not stop", i)
		}
		tc.dead[i] = true
	}
}

// kill fail-stops node i (no drain, no snapshot).
func (tc *testCluster) kill(i int) {
	tc.nodes[i].Kill()
	select {
	case <-tc.done[i]:
	case <-time.After(10 * time.Second):
		tc.t.Errorf("killed node %d did not stop serving", i)
	}
	tc.dead[i] = true
}

func (tc *testCluster) router() *Router {
	tc.t.Helper()
	r, err := DialCluster(tc.placement.Nodes[0].Addr)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.t.Cleanup(func() { r.Close() })
	return r
}

func TestClusterPutGetAcrossNodes(t *testing.T) {
	tc := startCluster(t, 3, 6)
	r := tc.router()
	const n = 40
	for i := 0; i < n; i++ {
		key, val := fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)
		if err := r.Put(key, []byte(val)); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
	}
	for i := 0; i < n; i++ {
		key, want := fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)
		got, found, err := r.Get(key)
		if err != nil || !found || string(got) != want {
			t.Fatalf("Get(%s) = %q found=%v err=%v, want %q", key, got, found, err, want)
		}
	}
	// Every shard saw its writes replicated to the follower.
	for i, n := range tc.nodes {
		m := n.Server().Metrics()
		if m.Applies == 0 {
			t.Errorf("node %d applied no replicated entries", i)
		}
	}
}

func TestClusterForwardThroughWrongNode(t *testing.T) {
	tc := startCluster(t, 3, 6)
	// A plain client pinned to one node: ops for foreign shards must be
	// forwarded server-side rather than rejected.
	c, err := server.Dial(tc.placement.Nodes[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	retry := server.RetryPolicy{MaxAttempts: 20}
	for i := 0; i < 30; i++ {
		key, val := fmt.Sprintf("fwd-%d", i), fmt.Sprintf("v-%d", i)
		if err := c.PutRetry(key, []byte(val), retry); err != nil {
			t.Fatalf("Put(%s) via node-0: %v", key, err)
		}
		got, found, err := c.GetRetry(key, retry)
		if err != nil || !found || string(got) != val {
			t.Fatalf("Get(%s) via node-0 = %q found=%v err=%v", key, got, found, err)
		}
	}
	// At least one key must have landed on a shard node-0 does not
	// serve; the metrics counter proves the forward path ran.
	if got := tc.nodes[0].m.forwardGets.Value() + tc.nodes[0].m.forwardPuts.Value(); got == 0 {
		t.Fatal("node-0 forwarded no ops, want > 0")
	}
}

// TestClusterFollowerAnswerForwards: a client op for a shard its node
// hosts only as a follower passes that node's routing table (the shard
// is hosted) and is refused by the shard's own worker (not serving).
// That answer, not the table, must trigger the server-side forward to
// the primary.
func TestClusterFollowerAnswerForwards(t *testing.T) {
	tc := startCluster(t, 3, 6)
	n1 := tc.nodes[1]
	follows := tc.placement.FollowersOwnedBy(n1.ID())
	if len(follows) == 0 {
		t.Fatal("node-1 follows no shard")
	}
	shard := follows[0]
	if !slices.Contains(n1.Server().HostedShards(), shard) {
		t.Fatalf("node-1 does not host its follower shard %d", shard)
	}
	var key string
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("follower-%d", i); server.ShardOf(k, tc.placement.Shards) == shard {
			key = k
		}
	}
	c, err := server.Dial(tc.placement.Nodes[1].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	refused := n1.Server().Metrics().Failed // the follower's worker counts its ErrWrongShard answers
	retry := server.RetryPolicy{MaxAttempts: 20}
	if err := c.PutRetry(key, []byte("via-follower"), retry); err != nil {
		t.Fatalf("Put through the follower: %v", err)
	}
	got, found, err := c.GetRetry(key, retry)
	if err != nil || !found || string(got) != "via-follower" {
		t.Fatalf("Get through the follower = %q found=%v err=%v", got, found, err)
	}
	if n := n1.Server().Metrics().Failed - refused; n < 2 {
		t.Fatalf("follower worker refused %d ops, want the Put and the Get", n)
	}
	if gets, puts := n1.m.forwardGets.Value(), n1.m.forwardPuts.Value(); gets < 1 || puts < 1 {
		t.Fatalf("node-1 forwarded %d gets and %d puts, want both ops relayed", gets, puts)
	}
}

// TestForwardKeepsClientDeadline: a relayed op reaches the shard's owner
// under the client's timeout, not the node link's. node-0 only follows
// the one shard, whose primary is a fake peer recording the frames it
// gets; a Get sent to node-0 by a client with a 50 ms Timeout must
// arrive there as a first-hop Get frame carrying 50 ms.
func TestForwardKeepsClientDeadline(t *testing.T) {
	frames := make(chan []byte, 1)
	n := startNode0(t, fakeFollower(t, nil, frames), false, testServerConfig(13, 8), 0)
	p := n.Placement()
	c, err := server.Dial(p.Nodes[p.NodeIndex("node-0")].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 50 * time.Millisecond
	if _, _, err := c.Get("k"); err != nil {
		t.Fatalf("Get through the follower: %v", err)
	}
	// Request payload: op:1 seq:8 timeout:4 trace:24 hops:1 ...
	frame := <-frames
	if ms := binary.BigEndian.Uint32(frame[9:]); ms != 50 {
		t.Fatalf("relayed Get reached the owner carrying %d ms, want the client's 50", ms)
	}
	if op, hops := frame[0], frame[37]; op != 1 || hops != 1 {
		t.Fatalf("owner got op %d after %d hops, want a Get (op 1) after 1 hop", op, hops)
	}
}

func TestClusterSelfDialRejected(t *testing.T) {
	tc := startCluster(t, 2, 4)
	_, err := server.DialNode(tc.placement.Nodes[0].Addr, "node-0")
	if !errors.Is(err, server.ErrSelfDial) {
		t.Fatalf("self-dial err = %v, want ErrSelfDial", err)
	}
}

func TestReplicateFencesStaleEpoch(t *testing.T) {
	tc := startCluster(t, 2, 2)
	// Shard 0: primary node-0, follower node-1. Bump shard 0's epoch on
	// node-1; a replicate stamped with the old epoch must be fenced off.
	n1 := tc.nodes[1]
	np := tc.placement.Clone()
	np.Epochs[0]++
	data, err := EncodePlacement(np)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.AdoptPlacement(data); err != nil {
		t.Fatal(err)
	}
	c, err := server.DialNode(tc.placement.Nodes[1].Addr, "test-harness")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Node-1 follows shard 0 in the 2-node static layout.
	var f server.ReplicateFrame
	f.Reset(tc.placement.Epochs[0], 0)
	f.Add(1, []byte("k"), []byte("v"))
	if err := c.Replicate(obs.TraceContext{}, &f); !errors.Is(err, server.ErrStalePlacement) {
		t.Fatalf("stale replicate err = %v, want ErrStalePlacement", err)
	}
	f.Reset(np.Epochs[0], 0)
	f.Add(1, []byte("k"), []byte("v"))
	if err := c.Replicate(obs.TraceContext{}, &f); err != nil {
		t.Fatalf("current-epoch replicate: %v", err)
	}
	// The bump is per shard: shard 1 (primary node-1... but node-0's
	// follower view) keeps its original epoch, so a same-table push back
	// to node-1 must be a no-op merge, not a wholesale downgrade.
	if err := n1.AdoptPlacement(mustEncode(t, tc.placement)); err != nil {
		t.Fatal(err)
	}
	if got := n1.Placement().EpochOf(0); got != np.Epochs[0] {
		t.Fatalf("merge rolled shard 0 epoch back to %d, want %d", got, np.Epochs[0])
	}
}

func mustEncode(t *testing.T, p *Placement) []byte {
	t.Helper()
	data, err := EncodePlacement(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClusterKillOneNodeChaos is the failover acceptance gate: 64
// concurrent clients hammer a 3-node cluster, one node fail-stops
// mid-load, followers are promoted, and every acknowledged write must
// be readable afterwards — zero lost acks. Duplicated acks cannot
// happen structurally (each Put is acked at most once by the router),
// so the check is ack => durable.
func TestClusterKillOneNodeChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real concurrency")
	}
	// 64×40 distinct keys over 6 shards needs ~430 slots per shard:
	// levels-11 ORAM (1024 keys/shard) keeps capacity out of the picture.
	tc := startClusterLevels(t, 3, 6, 11)

	const (
		workers = 64
		opsEach = 40
	)
	type ack struct{ key, val string }
	acked := make([][]ack, workers)
	var wg, dialed sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		dialed.Add(1)
		go func(w int) {
			defer wg.Done()
			r, err := DialCluster(tc.placement.Nodes[w%3].Addr)
			dialed.Done()
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer r.Close()
			r.Retry = server.RetryPolicy{MaxAttempts: 40, MaxDelay: 100 * time.Millisecond}
			<-start
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				val := fmt.Sprintf("w%d-v%d", w, i)
				if err := r.Put(key, []byte(val)); err == nil {
					acked[w] = append(acked[w], ack{key, val})
				}
				// Unacked puts are allowed to be lost; the assertion
				// below covers only acknowledged writes.
			}
		}(w)
	}
	// Every router bootstraps from a live node first: on a loaded box a
	// late dial would otherwise race the kill below and fail the test
	// for a reason it is not about.
	dialed.Wait()
	close(start)
	// Let the load ramp, then fail-stop one node.
	time.Sleep(100 * time.Millisecond)
	tc.kill(1)
	wg.Wait()

	for i, n := range tc.nodes {
		if tc.dead[i] {
			continue
		}
		data, _ := EncodePlacement(n.Placement())
		t.Logf("node %d placement: %s", i, data)
	}

	// Survivors must serve every shard (node-1's primaries via promoted
	// followers) and every acked write must read back exactly.
	r := tc.router()
	r.Retry = server.RetryPolicy{MaxAttempts: 40, MaxDelay: 100 * time.Millisecond}
	var total int
	for w := range acked {
		for _, a := range acked[w] {
			got, found, err := r.Get(a.key)
			if err != nil || !found || string(got) != a.val {
				t.Fatalf("lost acked write %s: got %q found=%v err=%v", a.key, got, found, err)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no writes were acknowledged; the chaos run exercised nothing")
	}
	t.Logf("verified %d acked writes after killing node-1", total)
}

// TestClusterLiveHandoff migrates a shard between nodes while writers
// hammer the cluster, then requires the full key-space read-back to
// match a single-node oracle fed the same logical writes bit-for-bit.
func TestClusterLiveHandoff(t *testing.T) {
	tc := startCluster(t, 3, 6)

	const (
		writers = 8
		keys    = 30
	)
	// Writers use disjoint key ranges, so the final state is
	// deterministic regardless of interleaving with the migration.
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r, err := DialCluster(tc.placement.Nodes[w%3].Addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer r.Close()
			r.Retry = server.RetryPolicy{MaxAttempts: 60, MaxDelay: 100 * time.Millisecond}
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("h%d-k%d", w, i)
				val := fmt.Sprintf("h%d-v%d", w, i)
				if err := r.Put(key, []byte(val)); err != nil {
					errs[w] = fmt.Errorf("put %s: %w", key, err)
					return
				}
			}
		}(w)
	}

	// Migrate shard 0 from node-0 to node-2 mid-load. Node-2 is not
	// shard 0's follower, so this exercises snapshot streaming, tail
	// replay, seal, barrier, and flip.
	time.Sleep(20 * time.Millisecond)
	if err := tc.nodes[0].Handoff(0, "node-2"); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	p := tc.nodes[2].Placement()
	if prim, err := p.PrimaryOf(0); err != nil || prim.ID != "node-2" {
		t.Fatalf("after handoff shard 0 primary = %v err=%v, want node-2", prim, err)
	}

	// Oracle: a single-node server with the same shard modulus fed the
	// same logical writes.
	oracle, err := server.New(server.Config{
		Shards:     6,
		ORAM:       server.DefaultORAM(8),
		Seed:       999,
		QueueDepth: 128,
		MaxBatch:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < keys; i++ {
			if err := oracle.Put(fmt.Sprintf("h%d-k%d", w, i), []byte(fmt.Sprintf("h%d-v%d", w, i))); err != nil {
				t.Fatal(err)
			}
		}
	}

	r := tc.router()
	r.Retry = server.RetryPolicy{MaxAttempts: 60, MaxDelay: 100 * time.Millisecond}
	for w := 0; w < writers; w++ {
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("h%d-k%d", w, i)
			want, wantFound, err := oracle.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			got, found, err := r.Get(key)
			if err != nil || found != wantFound || string(got) != string(want) {
				t.Fatalf("post-handoff Get(%s) = %q found=%v err=%v, oracle %q found=%v",
					key, got, found, err, want, wantFound)
			}
		}
	}
}

// TestClusterSpansOneClock: spans are the serving layer's one wall-clock
// record, and each node stamps every span it emits — shard workers'
// serve spans and the cluster layer's forward and replicate hops alike
// — in one clock: microseconds since the embedded server started. The
// scenario forwards, replicates, hands a shard off, kills a node and
// promotes its followers, all traced; every span a live node recorded
// lies inside that node's uptime.
func TestClusterSpansOneClock(t *testing.T) {
	tc := startClusterWith(t, 3, 6, 8, func(cfg *server.Config) { cfg.TraceSample = 1 })
	// A plain client pinned to node-0 makes it forward; every acked put
	// replicates.
	c, err := server.Dial(tc.placement.Nodes[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src := obs.NewTraceSource(0xc10c)
	for i := 0; i < 30; i++ {
		if err := c.PutCtx(src.NewTrace(), fmt.Sprintf("clk-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.nodes[0].Handoff(0, "node-2"); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	// Fail-stop node-1; the router's failover promotes its followers.
	tc.kill(1)
	r := tc.router()
	r.Retry = server.RetryPolicy{MaxAttempts: 40, MaxDelay: 100 * time.Millisecond}
	r.EnableTracing(7, 1)
	for i := 0; i < 30; i++ {
		if err := r.Put(fmt.Sprintf("clk-%d", i), []byte("w")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Get(fmt.Sprintf("clk-%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(map[obs.SpanKind]bool)
	var promotions uint64
	for i, n := range tc.nodes {
		if tc.dead[i] {
			continue
		}
		promotions += n.m.promotions.Value()
		spans := n.srv.Tracer().Snapshot(nil)
		uptime := n.srv.NowMicros()
		for _, s := range spans {
			seen[s.Kind] = true
			if s.TS < 0 || s.Dur < 0 || s.TS+s.Dur > uptime {
				t.Fatalf("node %d: %v span covers [%d, %d]µs, outside the node's uptime [0, %d]µs",
					i, s.Kind, s.TS, s.TS+s.Dur, uptime)
			}
		}
	}
	for _, k := range []obs.SpanKind{obs.SpanServeGet, obs.SpanServePut, obs.SpanServeApply, obs.SpanReplicate, obs.SpanForward} {
		if !seen[k] {
			t.Errorf("no %v span recorded; the scenario no longer covers it", k)
		}
	}
	if tc.nodes[0].m.handoffs.Value() == 0 || promotions == 0 {
		t.Errorf("handoffs %d, promotions %d: the scenario no longer covers both", tc.nodes[0].m.handoffs.Value(), promotions)
	}
}

func TestHandoffRejectsBadTarget(t *testing.T) {
	tc := startCluster(t, 2, 2)
	if err := tc.nodes[0].Handoff(0, "node-0"); err == nil {
		t.Fatal("handoff to self succeeded")
	}
	if err := tc.nodes[0].Handoff(0, "nope"); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("handoff to unknown target err = %v, want ErrBadPlacement", err)
	}
	// Shard 1's primary is node-1; node-0 must refuse to hand it off.
	if err := tc.nodes[0].Handoff(1, "node-1"); err == nil {
		t.Fatal("handoff of foreign shard succeeded")
	}
}

// silentAfterHello listens on loopback as a peer that completes the
// hello handshake, echoing the dialer's protocol version, and then reads
// and discards every later frame without ever answering one.
func silentAfterHello(t *testing.T) NodeInfo {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				// Request frame: len:4 op:1 seq:8 timeout:4 trace:24
				// hops:1 keyLen:2 key valLen:4 val, where val is hello's
				// version:4.
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					return
				}
				req := make([]byte, binary.BigEndian.Uint32(hdr[:]))
				if _, err := io.ReadFull(conn, req); err != nil || len(req) < 4 {
					return
				}
				version := req[len(req)-4:]
				// Response frame: len:4 status:1 seq:8 bodyLen:4 body,
				// where body is version:4 plus the node ID.
				body := append(append([]byte(nil), version...), "silent"...)
				resp := binary.BigEndian.AppendUint32(nil, uint32(1+8+4+len(body)))
				resp = append(resp, 0) // statusOK
				resp = append(resp, req[1:9]...)
				resp = binary.BigEndian.AppendUint32(resp, uint32(len(body)))
				conn.Write(append(resp, body...))
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return NodeInfo{ID: "silent", Addr: ln.Addr().String()}
}

// TestDialSilentAfterHello: a peer that answers hello and then never
// answers again must not park a dial. Router.dial (with tracing on) and
// Node.dialPeer both return within the handshake's 3 s bound — a
// node dials from a shard's replication sender, so a parked dial there
// stalls every write of that shard.
func TestDialSilentAfterHello(t *testing.T) {
	const bound = 3 * time.Second // the server package's dialTimeout
	peer := silentAfterHello(t)
	tc := startCluster(t, 1, 1)
	r := newRouter(tc.placement)
	r.EnableTracing(1, 1)
	defer r.Close()
	for _, d := range []struct {
		name string
		dial func(NodeInfo) (*server.Client, error)
	}{
		{"Router.dial", r.dial},
		{"Node.dialPeer", tc.nodes[0].dialPeer},
	} {
		done := make(chan error, 1)
		go func() {
			c, err := d.dial(peer)
			if c != nil {
				c.Close()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
		case <-time.After(bound):
			t.Fatalf("%s toward a peer silent after hello did not return within %v", d.name, bound)
		}
	}
}

// TestRouterHealthyGetDuringHangingDial: a node that accepts connections
// and never answers the handshake must delay only the operations bound
// for it. The router used to dial while holding its one mutex, so a
// single black-holed peer wedged every Get and Put — including those for
// healthy nodes.
func TestRouterHealthyGetDuringHangingDial(t *testing.T) {
	tc := startCluster(t, 1, 2) // node-0 hosts both shards
	ghost, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	accepted := make(chan net.Conn, 16)
	go func() {
		for {
			conn, err := ghost.Accept()
			if err != nil {
				return
			}
			accepted <- conn // held open and silent
		}
	}()
	// The router's view: shard 0 on node-0, shard 1 on the silent ghost.
	p, err := Static(2, []NodeInfo{tc.placement.Nodes[0], {ID: "ghost", Addr: ghost.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(p)
	r.Retry = server.RetryPolicy{MaxAttempts: 1}
	defer r.Close()

	var healthyKey, ghostKey string
	for i := 0; healthyKey == "" || ghostKey == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		if prim, _ := p.PrimaryOf(server.ShardOf(k, 2)); prim.ID == "ghost" {
			ghostKey = k
		} else {
			healthyKey = k
		}
	}

	ghostDone := make(chan struct{})
	go func() {
		defer close(ghostDone)
		r.Get(ghostKey) // parks in the ghost's handshake; any error is fine
	}()
	held := <-accepted // the ghost dial is now hanging

	healthy := make(chan error, 1)
	go func() {
		_, _, err := r.Get(healthyKey)
		healthy <- err
	}()
	select {
	case err := <-healthy:
		if err != nil {
			t.Fatalf("Get on the healthy node: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get on the healthy node blocked behind another node's hanging dial")
	}

	// Release the ghost's dialers so the parked Get ends with the test.
	ghost.Close()
	held.Close()
	for {
		select {
		case conn := <-accepted:
			conn.Close()
		case <-ghostDone:
			return
		}
	}
}

// TestHandoffChunkRejectsUnknownShard: a handoff chunk for a shard
// outside the placement is refused with ErrWrongShard before anything
// is buffered, as Replicate and Promote refuse theirs.
func TestHandoffChunkRejectsUnknownShard(t *testing.T) {
	p, err := Static(2, []NodeInfo{{ID: "node-0", Addr: "127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeConfig{ID: "node-0", Placement: p, Server: testServerConfig(5, 8)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, shard := range []int{99, -5, 2} {
		if err := n.HandoffChunk(shard, true, false, []byte("chunk")); !errors.Is(err, server.ErrWrongShard) {
			t.Fatalf("first chunk for shard %d: err = %v, want ErrWrongShard", shard, err)
		}
	}
	n.hmu.Lock()
	buffered := len(n.hbuf)
	n.hmu.Unlock()
	if buffered != 0 {
		t.Fatalf("refused chunks left %d handoff buffers", buffered)
	}
}
