package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stringoram/internal/invariant"
	"stringoram/internal/obs"
	"stringoram/internal/server"
)

// startPrimaryOf brings up node-0 as the primary of one shard whose
// follower is peer, and returns it serving on loopback.
func startPrimaryOf(t *testing.T, peer NodeInfo, cfg server.Config, logCap int) *Node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	p, err := Static(1, []NodeInfo{{ID: "node-0", Addr: ln.Addr().String()}, peer})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeConfig{ID: "node-0", Placement: p, Server: cfg, LogCap: logCap})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- n.Serve(ln) }()
	t.Cleanup(func() {
		n.Close()
		<-done
	})
	return n
}

// TestReplicationSilentFollowerDemoted: a follower that completes hello
// and then never answers must not wedge its primary's shard. The
// replication frame's deadline (the server package's 3 s dialTimeout)
// expires, the primary drops the link and demotes the follower, the Put
// fails retryably within the bound, and the next Put succeeds
// follower-less.
func TestReplicationSilentFollowerDemoted(t *testing.T) {
	const bound = 3*time.Second + 2*time.Second // frame deadline plus slack
	peer := silentAfterHello(t)
	n := startPrimaryOf(t, peer, testServerConfig(7, 8), 0)

	put := func(val string) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- n.Server().Put("k", []byte(val)) }()
		select {
		case err := <-done:
			return err
		case <-time.After(bound):
			t.Fatalf("Put toward a follower silent after hello did not return within %v", bound)
			return nil
		}
	}
	if err := put("v1"); !server.Retryable(err) {
		t.Fatalf("Put with a silent follower: err = %v, want a retryable error", err)
	}
	if f := n.Placement().Follower[0]; f != -1 {
		t.Fatalf("silent follower not demoted: shard 0 follower index %d", f)
	}
	if err := put("v2"); err != nil {
		t.Fatalf("Put after the demotion: %v", err)
	}
	if got, found, err := n.Server().Get("k"); err != nil || !found || string(got) != "v2" {
		t.Fatalf("Get after the demotion = %q found=%v err=%v, want v2", got, found, err)
	}
}

// fakeFollower listens on loopback as a follower that answers hello,
// echoing the dialer's protocol version, and acks every later frame.
// Before each ack it reports the frame on frames (when non-nil) and
// waits for gate to yield (when non-nil). It reuses its buffers, so a
// warmed link allocates nothing on its side.
func fakeFollower(t *testing.T, gate <-chan struct{}, frames chan<- struct{}) NodeInfo {
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
				// Request frame: len:4 op:1 seq:8 timeout:4 keyLen:2 key
				// valLen:4 val. Response frame: len:4 status:1 seq:8
				// bodyLen:4 body.
				br := bufio.NewReader(conn)
				buf := make([]byte, 64<<10)
				var out []byte
				for hello := true; ; hello = false {
					if _, err := io.ReadFull(br, buf[:4]); err != nil {
						return
					}
					n := int(binary.BigEndian.Uint32(buf[:4]))
					if cap(buf) < n {
						buf = make([]byte, n)
					}
					req := buf[:n]
					if _, err := io.ReadFull(br, req); err != nil || n < 9 {
						return
					}
					var body []byte
					if hello {
						body = append(append([]byte(nil), req[n-4:]...), "fake"...)
					} else {
						if frames != nil {
							frames <- struct{}{}
						}
						if gate != nil {
							<-gate
						}
					}
					out = binary.BigEndian.AppendUint32(out[:0], uint32(1+8+4+len(body)))
					out = append(out, 0) // statusOK
					out = append(out, req[1:9]...)
					out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
					if _, err := conn.Write(append(out, body...)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return NodeInfo{ID: "fake", Addr: ln.Addr().String()}
}

// gaugeValue scrapes n's exposition for one series.
func gaugeValue(t *testing.T, n *Node, series string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Server().Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("series %s not exported", series)
	return 0
}

// TestReplicationLagMeasuresOldestUnacked: with the follower stalled and
// writes handed off 10 ms apart, cluster_replication_lag_us reads the
// age of the oldest unacked write, not that of the newest; once the
// follower answers, every write is acked in order and the lag closes.
func TestReplicationLagMeasuresOldestUnacked(t *testing.T) {
	gate := make(chan struct{})
	frames := make(chan struct{}, 16)
	n := startPrimaryOf(t, fakeFollower(t, gate, frames), testServerConfig(9, 8), 0)

	const writes = 3
	errs := make(chan error, writes)
	var firstShipped time.Time
	for i := 0; i < writes; i++ {
		go func(i int) { errs <- n.Server().Put(fmt.Sprintf("lag-%d", i), []byte("v")) }(i)
		if i == 0 {
			<-frames // the first write is in flight, so its hand-off is behind us
			firstShipped = time.Now()
		}
		time.Sleep(10 * time.Millisecond)
	}
	age := time.Since(firstShipped)
	lagUs := gaugeValue(t, n, `cluster_replication_lag_us{shard="0"}`)
	if lagUs < float64(age.Microseconds()) {
		t.Fatalf("lag gauge %.0f µs, below the oldest unacked write's age of at least %v", lagUs, age)
	}
	if e := gaugeValue(t, n, `cluster_replication_lag_entries{shard="0"}`); e != writes {
		t.Fatalf("lag gauge counts %.0f unacked entries, want %d", e, writes)
	}
	close(gate)
	for i := 0; i < writes; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Put after the follower answered: %v", err)
		}
	}
	if lagUs := gaugeValue(t, n, `cluster_replication_lag_us{shard="0"}`); lagUs != 0 {
		t.Fatalf("lag gauge %.0f µs after every write was acked, want 0", lagUs)
	}
}

// TestAllocFreeReplicatedPut extends the zero-alloc apply path across
// replication: warmed Puts from concurrent callers, so that frames carry
// several entries, allocate at most 0.5 times per op on the primary —
// hand-off, frame encoding, the round trip and the in-order release
// included. The follower is a fake that allocates nothing, so the count
// is the primary's. Under -race only the frame count is checked.
func TestAllocFreeReplicatedPut(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; the zero-alloc guarantee binds on the default build")
	}
	n := startPrimaryOf(t, fakeFollower(t, nil, nil), testServerConfig(11, 8), 256)
	const (
		callers = 8
		rounds  = 2000
	)
	val := []byte("alloc-value-123")
	run := func(perCaller int) {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(key string) {
				defer wg.Done()
				for i := 0; i < perCaller; i++ {
					if err := n.Server().Put(key, val); err != nil {
						t.Error(err)
						return
					}
				}
			}(fmt.Sprintf("alloc-key-%d", c))
		}
		wg.Wait()
	}
	run(1024) // warm the op log, the pools and every release buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(rounds)
	runtime.ReadMemStats(&after)
	// The callers' goroutines cost a few allocations of their own.
	perOp := float64(after.Mallocs-before.Mallocs-3*callers) / float64(callers*rounds)
	if !raceEnabled && perOp > 0.5 {
		t.Fatalf("warmed replicated Put allocates %.2f/op, want ~0", perOp)
	}
	if frames, entries := n.m.replFrames.Value(), n.m.replicated.Value(); frames == 0 || entries < frames {
		t.Fatalf("%d entries over %d frames", entries, frames)
	}
}

// TestClusterPipelinedReplicationHistory checks the in-order release
// rule across a failover. Every key has one writer putting increasing
// versions, readers Get concurrently, and one node — a primary of two
// shards and the follower of two more — is killed while frames are in
// flight. Every acked version must read back after the failover; no Get
// may return a version that is later unreadable, so a Get issued after
// another returned must see that version or a newer one; and a Get
// issued after a Put's ack must see that version or a newer one.
func TestClusterPipelinedReplicationHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("history test needs real concurrency")
	}
	tc := startClusterLevels(t, 3, 6, 11)
	// Node-1's frames to its followers dwell a millisecond on the way,
	// so the kill below finds its frames in flight.
	delayLinks(t, tc.nodes[1], time.Millisecond)
	const (
		writers  = 16
		keysEach = 4
		readers  = 8
	)
	keys := make([]string, writers*keysEach)
	for i := range keys {
		keys[i] = fmt.Sprintf("hist-%d-%d", i/keysEach, i%keysEach)
	}
	// acked[i] is the newest version of keys[i] whose Put returned nil;
	// seen[i] the newest any Get returned.
	acked := make([]atomic.Uint64, len(keys))
	seen := make([]atomic.Uint64, len(keys))
	version := func(i int, val []byte, found bool) (uint64, error) {
		if !found {
			return 0, nil
		}
		key, v, ok := strings.Cut(string(val), "#")
		ver, err := strconv.ParseUint(v, 10, 64)
		if !ok || err != nil || key != keys[i] {
			return 0, fmt.Errorf("Get(%s) returned %q, not a version of it", keys[i], val)
		}
		return ver, nil
	}
	var (
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failure error
	)
	fail := func(err error) {
		failMu.Lock()
		if failure == nil {
			failure = err
		}
		failMu.Unlock()
	}
	stop := make(chan struct{})
	dial := func(w int) *Router {
		r, err := DialCluster(tc.placement.Nodes[w%3].Addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		r.Retry = server.RetryPolicy{MaxAttempts: 40, MaxDelay: 100 * time.Millisecond}
		return r
	}
	for w := 0; w < writers; w++ {
		r := dial(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer r.Close()
			for v := uint64(1); ; v++ {
				for i := w * keysEach; i < (w+1)*keysEach; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := r.Put(keys[i], []byte(fmt.Sprintf("%s#%d", keys[i], v))); err == nil {
						acked[i].Store(v)
					}
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		r := dial(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer r.Close()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.IntN(len(keys))
				ackFloor, seenFloor := acked[i].Load(), seen[i].Load()
				val, found, err := r.Get(keys[i])
				if err != nil {
					continue // a failed read promises nothing
				}
				ver, err := version(i, val, found)
				if err != nil {
					fail(err)
					return
				}
				if ver < ackFloor {
					fail(fmt.Errorf("Get(%s) issued after version %d was acked returned version %d", keys[i], ackFloor, ver))
					return
				}
				if ver < seenFloor {
					fail(fmt.Errorf("Get(%s) returned version %d, then a later Get returned version %d: the first was not durable", keys[i], seenFloor, ver))
					return
				}
				for cur := seen[i].Load(); ver > cur && !seen[i].CompareAndSwap(cur, ver); cur = seen[i].Load() {
				}
			}
		}(g)
	}
	time.Sleep(150 * time.Millisecond)
	tc.kill(1)
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failure != nil {
		t.Fatal(failure)
	}

	r := tc.router()
	r.Retry = server.RetryPolicy{MaxAttempts: 40, MaxDelay: 100 * time.Millisecond}
	var total uint64
	for i, key := range keys {
		val, found, err := r.Get(key)
		if err != nil {
			t.Fatalf("final Get(%s): %v", key, err)
		}
		ver, err := version(i, val, found)
		if err != nil {
			t.Fatal(err)
		}
		if a := acked[i].Load(); ver < a {
			t.Fatalf("lost acked write: %s reads version %d after the failover, version %d was acked", key, ver, a)
		}
		if s := seen[i].Load(); ver < s {
			t.Fatalf("%s reads version %d after the failover, but a Get returned version %d before it", key, ver, s)
		}
		total += acked[i].Load()
	}
	if total == 0 {
		t.Fatal("no write was acknowledged; the history exercised nothing")
	}
	t.Logf("checked %d keys, %d acked versions", len(keys), total)
}

// TestPromoteWaitsForReplicatedFrame: a follower promoted while it is
// still applying a replication frame that passed the old epoch's fence
// finishes the frame before it serves a write. Otherwise the promoted
// shard's first write takes a sequence number the frame's tail also
// carries, and the tail's stale value of the key lands after it.
func TestPromoteWaitsForReplicatedFrame(t *testing.T) {
	tc := startCluster(t, 2, 2)
	n1 := tc.nodes[1] // shard 0's follower in the 2-node static layout
	var key string
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("promote-%d", i); server.ShardOf(k, tc.placement.Shards) == 0 {
			key = k
		}
	}
	c, err := server.DialNode(tc.placement.Nodes[1].Addr, "test-harness")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One frame long enough to queue behind the shard's 128-slot queue
	// for a while, every entry a stale write of key.
	var f server.ReplicateFrame
	f.Reset(tc.placement.Epochs[0], 0)
	for seq := uint64(1); seq <= 2000; seq++ {
		f.Add(seq, []byte(key), []byte("stale"))
	}
	replicated := make(chan error, 1)
	go func() { replicated <- c.Replicate(obs.TraceContext{}, &f) }()
	for {
		seq, err := n1.Server().Barrier(0)
		if err != nil && !server.Retryable(err) {
			t.Fatal(err)
		}
		if seq > 0 || err != nil {
			break // the frame is being applied (and fills the queue)
		}
		time.Sleep(50 * time.Microsecond)
	}
	if err := n1.Promote(tc.placement.Epochs[0], 0); err != nil {
		t.Fatal(err)
	}
	for {
		err := n1.Server().Put(key, []byte("fresh"))
		if err == nil {
			break
		}
		if !server.Retryable(err) {
			t.Fatal(err)
		}
	}
	if err := <-replicated; err != nil {
		t.Fatalf("frame that passed the fence: %v", err)
	}
	if got, found, err := n1.Server().Get(key); err != nil || !found || string(got) != "fresh" {
		t.Fatalf("Get after the promoted shard's write = %q found=%v err=%v, want fresh", got, found, err)
	}
}

// delayLinks reroutes n's outgoing peer links through a loopback relay
// that holds every chunk n sends for delay before passing it on, and
// drops what it holds once n is killed. Answers flow back undelayed.
// Call before traffic starts.
func delayLinks(t *testing.T, n *Node, delay time.Duration) {
	t.Helper()
	n.links = newLinks(func(peer NodeInfo) (*server.Client, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() {
			defer ln.Close()
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", peer.Addr)
			if err != nil {
				in.Close()
				return
			}
			go func() {
				io.Copy(in, out)
				in.Close()
			}()
			buf := make([]byte, 64<<10)
			for {
				k, err := in.Read(buf)
				if err != nil {
					out.Close()
					return
				}
				time.Sleep(delay)
				if n.killed.Load() {
					out.Close() // a crashed sender's unsent bytes die with it
					return
				}
				if _, err := out.Write(buf[:k]); err != nil {
					in.Close()
					return
				}
			}
		}()
		return server.DialNode(ln.Addr().String(), n.id)
	})
}
