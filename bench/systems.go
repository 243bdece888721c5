package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"stringoram"
	"stringoram/internal/config"
	"stringoram/internal/oram"
	"stringoram/internal/server"
)

// benchKey seals every store in the benchmark; it is an input, not a secret.
var benchKey = []byte("bench-aes128-key")

// kvValueLen is the value size of the key-value workloads (a 64-byte
// block holds at most 62).
const kvValueLen = 48

// kvParams sizes one key-value system. Server fields not named here
// (Pipeline, Workers, MaxBatch, QueueDepth) stay at their zero value, so a
// change of default is measured.
type kvParams struct {
	nodes       int // 1: a plain server; 3: a cluster behind routers
	shards      int // per node for 1 node, global for a cluster
	levels      int
	keys        int
	pipeline    int    // Config.Pipeline, for the pipeline ratio only
	traceSample uint64 // Config.TraceSample, for the traced pass only
}

// system is a running key-value system with its load-generator connections.
type system struct {
	params    kvParams
	names     []string
	targets   []target // one per connection
	clients   []*stringoram.ServerClient
	routers   []*stringoram.ClusterRouter
	srv       *stringoram.Server        // 1 node
	nodes     []*stringoram.ClusterNode // cluster
	placement *stringoram.ClusterPlacement
	addrs     []string
	conns     connCounters
	stop      []func()
}

// connections is how many client connections a workload opens: one per
// processor, so the load generator and the system share the box as a
// co-located client would.
func connections() int { return runtime.NumCPU() }

func keyNames(seed uint64, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("k%x-%06d", seed, i)
	}
	return names
}

func serverConfig(p kvParams, seed uint64) stringoram.ServerConfig {
	cfg := stringoram.DefaultServerConfig()
	cfg.Shards = p.shards
	cfg.ORAM = stringoram.DefaultServerORAM(p.levels)
	cfg.Key = benchKey
	cfg.TreetopCache = true
	cfg.Seed = seed
	cfg.Pipeline = p.pipeline
	cfg.TraceSample = p.traceSample
	return cfg
}

// startSystem builds the system through the constructors cmd/oramd uses,
// on real loopback TCP, and dials the load generator's connections. It
// does not preload.
func startSystem(p kvParams, seed uint64) (sys *system, err error) {
	sys = &system{params: p, names: keyNames(seed, p.keys)}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	if p.nodes == 1 {
		err = sys.startNode(seed)
	} else {
		err = sys.startCluster(seed)
	}
	return sys, err
}

func (s *system) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addrs = append(s.addrs, ln.Addr().String())
	return countingListener{ln, &s.conns}, nil
}

// serve runs fn(ln) until the stop function shuts the front end down.
func (s *system) serve(fn func(net.Listener) error, ln net.Listener, shutdown func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(ln) // returns once shutdown closes the listener
	}()
	s.stop = append(s.stop, func() {
		shutdown()
		<-done
	})
}

func (s *system) startNode(seed uint64) error {
	srv, err := stringoram.NewServer(serverConfig(s.params, seed))
	if err != nil {
		return err
	}
	s.srv = srv
	s.stop = append(s.stop, func() { srv.Close() })
	ln, err := s.listen()
	if err != nil {
		return err
	}
	tcp := stringoram.NewTCPServer(srv)
	s.serve(tcp.Serve, ln, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tcp.Shutdown(ctx)
	})
	for i := 0; i < connections(); i++ {
		c, err := stringoram.DialServer(s.addrs[0])
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
		s.targets = append(s.targets, kvTarget{c, s.names})
	}
	return nil
}

func (s *system) startCluster(seed uint64) error {
	lns := make([]net.Listener, s.params.nodes)
	infos := make([]stringoram.ClusterNodeInfo, s.params.nodes)
	for i := range lns {
		ln, err := s.listen()
		if err != nil {
			return err
		}
		lns[i] = ln
		s.stop = append(s.stop, func() { ln.Close() })
		infos[i] = stringoram.ClusterNodeInfo{ID: fmt.Sprintf("node-%d", i), Addr: s.addrs[i]}
	}
	placement, err := stringoram.StaticPlacement(s.params.shards, infos)
	if err != nil {
		return err
	}
	s.placement = placement
	for i, ln := range lns {
		node, err := stringoram.NewClusterNode(stringoram.ClusterNodeConfig{
			ID:        infos[i].ID,
			Placement: placement,
			Server:    serverConfig(s.params, seed),
		})
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, node)
		s.serve(node.Serve, ln, func() { node.Close() })
	}
	for i := 0; i < connections(); i++ {
		r, err := stringoram.DialCluster(s.addrs[0])
		if err != nil {
			return err
		}
		s.routers = append(s.routers, r)
		s.targets = append(s.targets, kvTarget{r, s.names})
	}
	return nil
}

// owner is the index of the node serving key's shard as primary.
func (s *system) owner(key string) int {
	return s.placement.Primary[server.ShardOf(key, s.placement.Shards)]
}

// close stops the load generator's connections, then everything started,
// newest first, and returns when every goroutine of the system has ended.
func (s *system) close() {
	for _, c := range s.clients {
		c.Close()
	}
	for _, r := range s.routers {
		r.Close()
	}
	for i := len(s.stop) - 1; i >= 0; i-- {
		s.stop[i]()
	}
	s.stop = nil
}

// serverMetrics sums the serving counters over the system's nodes.
func (s *system) serverMetrics() stringoram.ServerMetrics {
	if s.srv != nil {
		return s.srv.Metrics()
	}
	var sum stringoram.ServerMetrics
	for _, n := range s.nodes {
		m := n.Server().Metrics()
		sum.Batches += m.Batches
		sum.BatchedRequests += m.BatchedRequests
		sum.Rejected += m.Rejected
		sum.Expired += m.Expired
		sum.P99Seconds = max(sum.P99Seconds, m.P99Seconds)
	}
	if sum.Batches > 0 {
		sum.AvgBatch = float64(sum.BatchedRequests) / float64(sum.Batches)
	}
	return sum
}

// connCounters counts what the system's accepted connections move: the
// server side of every socket, which is the only side the benchmark owns.
type connCounters struct {
	readBytes, writeBytes, writes atomic.Int64
}

type countingListener struct {
	net.Listener
	c *connCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounters
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.readBytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writeBytes.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

// ringMode selects how much of the data plane a probe ring carries.
type ringMode struct {
	store, crypt, treetop bool
}

// newProbeRing builds a Ring over a counting store in the given mode
// (no store: timing-only, exact metadata and no data movement).
func newProbeRing(cfg config.ORAM, seed uint64, m ringMode) (*oram.Ring, *countStore, error) {
	if !m.store {
		r, err := oram.NewRing(cfg, seed, nil)
		return r, nil, err
	}
	cs := &countStore{inner: oram.NewMemStore(cfg.SlotsPerBucket())}
	opts := &oram.Options{Store: cs, TreetopCache: m.treetop}
	if m.crypt {
		crypt, err := oram.NewCrypt(benchKey, cfg.BlockSize)
		if err != nil {
			return nil, nil, err
		}
		opts.Crypt = crypt
	}
	r, err := oram.NewRing(cfg, seed, opts)
	return r, cs, err
}

// countStore counts slot calls into a MemStore. It only counts: timing each
// of the ~100 slot calls of an access would cost more than the calls. It
// also remembers a few slots that hold data, for the per-call probe.
type countStore struct {
	inner         *oram.MemStore
	reads, writes int64
	held          [512]slotRef
}

type slotRef struct {
	bucket int64
	slot   int
}

func (c *countStore) ReadSlot(bucket int64, slot int) []byte {
	c.reads++
	return c.inner.ReadSlot(bucket, slot)
}

func (c *countStore) WriteSlot(bucket int64, slot int, sealed []byte) {
	c.writes++
	if c.writes&31 == 0 {
		c.held[(c.writes>>5)%int64(len(c.held))] = slotRef{bucket, slot}
	}
	c.inner.WriteSlot(bucket, slot, sealed)
}

// probe times n read and n write calls on slots that hold data, rewriting
// each slot with its own bytes so the store is unchanged.
func (c *countStore) probe(n int) (readNs, writeNs float64) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ref := c.held[i%len(c.held)]
		probeSink = c.inner.ReadSlot(ref.bucket, ref.slot)
	}
	t1 := time.Now()
	for i := 0; i < n; i++ {
		ref := c.held[i%len(c.held)]
		if b := c.inner.ReadSlot(ref.bucket, ref.slot); b != nil {
			c.inner.WriteSlot(ref.bucket, ref.slot, b)
		}
	}
	t2 := time.Now()
	readNs = float64(t1.Sub(t0)) / float64(n)
	// The write loop also reads; take the read cost back out.
	writeNs = float64(t2.Sub(t1))/float64(n) - readNs
	return readNs, max(writeNs, 0)
}

// probeSink keeps the compiler from discarding a probe's result.
var probeSink []byte
