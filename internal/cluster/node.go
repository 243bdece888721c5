package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stringoram/internal/obs"
	"stringoram/internal/server"
)

// handoffChunkSize bounds one handoff frame's snapshot slice, staying
// well under the wire protocol's 1 MiB frame cap.
const handoffChunkSize = 512 << 10

// NodeConfig parameterizes NewNode.
type NodeConfig struct {
	// ID is this node's identity; it must appear in Placement.Nodes.
	ID string
	// Placement is the initial cluster-wide table.
	Placement *Placement
	// Server configures the embedded shard server. Shards, ShardIDs, and
	// TotalShards are derived from the placement; OnApply is owned by
	// the node (the op-log/replication hook).
	Server server.Config
	// LogCap sizes each per-shard op-log ring (0 = DefaultLogCap). It
	// also bounds the entries a primary shard may owe its follower: a
	// write that would overwrite an unacked entry waits for the ack.
	LogCap int
	// Retry shapes the bounded backoff a replication sender applies to a
	// frame its follower rejects retryably (backlog) before it fails the
	// frame's writes.
	Retry server.RetryPolicy
}

// Node is one cluster member: an embedded server.Server hosting the
// shards the placement assigns it (primaries serving, followers
// dormant), the per-shard op logs, and the ClusterBackend serving the
// cluster wire frames. Create with NewNode, expose with Serve, stop
// with Close (graceful) or Kill (fail-stop, for tests).
type Node struct {
	id    string
	srv   *server.Server
	tcp   *server.TCPServer
	retry server.RetryPolicy

	// logs has one lazily-filled ring per global shard; slots for shards
	// this node never hosts stay header-only.
	logs []*Log

	// repl is each shard's replication state, indexed like logs.
	repl []replShard
	// stop ends the replication senders once the embedded server has
	// drained; senders counts the running ones.
	stop     chan struct{}
	stopOnce sync.Once
	senders  sync.WaitGroup

	pmu       sync.RWMutex
	placement *Placement

	links *links // outgoing connections by node ID

	// hmu guards in-progress handoff receives (shard → accumulated gob).
	hmu  sync.Mutex
	hbuf map[int][]byte

	killed atomic.Bool

	m nodeMetrics
}

// nodeMetrics is the cluster-layer instrument set (registered on the
// embedded server's registry so one scrape covers both layers).
type nodeMetrics struct {
	replicated    *obs.Counter
	replFrames    *obs.Counter
	replFailures  *obs.Counter
	replicateSecs *obs.Histogram

	forwardGets *obs.Counter
	forwardPuts *obs.Counter

	handoffs     *obs.Counter
	handoffBytes *obs.Counter
	handoffSecs  *obs.Histogram

	promotions *obs.Counter
	demotions  *obs.Counter

	handoffProgress *obs.Gauge
}

// replShard is one shard's replication state. The shard's worker
// appends writes to the op log and hands them off (onApply), the
// shard's sender goroutine ships and settles them (sendLoop), and the
// lag gauges read it at scrape time; mu guards all of it.
type replShard struct {
	kick chan struct{} // cap 1: writes were handed off
	room chan struct{} // cap 1: the follower acked (wakes a worker at the bound)

	mu      sync.Mutex
	applied uint64 // newest op-log seq appended
	handed  uint64 // newest seq handed to the sender, its answer held
	acked   uint64 // newest seq acked by the follower; applied when nothing is owed
	since   int64  // NowMicros at or before the oldest unacked entry's hand-off
	traced  []tracedWrite
	running bool // the sender goroutine has started

	// fence orders the replica side against promotion: Replicate holds
	// it shared from its epoch check until the frame is applied, Promote
	// exclusively while it takes the shard over. A frame that passed the
	// old epoch's check is therefore applied in full before the promoted
	// shard serves its first write, which would otherwise reuse the
	// frame's sequence numbers and be overwritten by its stale tail.
	fence sync.RWMutex
}

// tracedWrite is a sampled write handed to the sender: its trace
// context (a child of its serve span), the replicate span minted for it,
// and the hand-off time in the node clock.
type tracedWrite struct {
	seq     uint64
	tc      obs.TraceContext
	span    uint64
	startUs int64
}

func (m *nodeMetrics) init(reg *obs.Registry, n *Node) {
	m.replicated = reg.Counter("cluster_replicated_entries_total", "Op-log entries shipped to the follower and acked.")
	m.replFrames = reg.Counter("cluster_replicated_frames_total", "Replication frames the follower acked (entries per frame = entries_total / frames_total).")
	m.replFailures = reg.Counter("cluster_replication_failures_total", "Replication frames that failed (including demotions).")
	m.replicateSecs = reg.Histogram("cluster_replicate_seconds", "Per-frame replication round trip, retries included.", obs.ExpBuckets(16e-6, 2, 16))
	m.forwardGets = reg.Counter(`cluster_forwards_total{op="get"}`, "Client ops relayed node-to-node by operation.")
	m.forwardPuts = reg.Counter(`cluster_forwards_total{op="put"}`, "Client ops relayed node-to-node by operation.")
	m.handoffs = reg.Counter("cluster_handoffs_total", "Shards migrated away from this node.")
	m.handoffBytes = reg.Counter("cluster_handoff_bytes_total", "Snapshot bytes streamed during handoffs.")
	m.handoffSecs = reg.Histogram("cluster_handoff_seconds", "End-to-end shard handoff duration.", obs.ExpBuckets(1e-3, 2, 16))
	m.promotions = reg.Counter("cluster_promotions_total", "Shards this node took over after a primary failure.")
	m.demotions = reg.Counter("cluster_demotions_total", "Followers this node dropped after replication failures.")
	m.handoffProgress = reg.Gauge("cluster_handoff_progress_percent",
		"Snapshot percentage streamed by the in-flight outbound handoff (0 when idle).")
	reg.GaugeFunc("cluster_placement_version", "Highest shard epoch in this node's placement table.", func() float64 {
		n.pmu.RLock()
		defer n.pmu.RUnlock()
		return float64(n.placement.Version())
	})
	for s := range n.repl {
		rs := &n.repl[s]
		reg.GaugeFunc(fmt.Sprintf(`cluster_replication_lag_entries{shard="%d"}`, s),
			"Op-log entries applied locally but not yet acked by the follower.", func() float64 {
				rs.mu.Lock()
				defer rs.mu.Unlock()
				return float64(rs.applied - rs.acked)
			})
		reg.GaugeFunc(fmt.Sprintf(`cluster_replication_lag_us{shard="%d"}`, s),
			"Age in microseconds of the oldest write not yet acked by the follower (0 when caught up).", func() float64 {
				rs.mu.Lock()
				defer rs.mu.Unlock()
				if rs.applied > rs.acked {
					return float64(n.srv.NowMicros() - rs.since)
				}
				return 0
			})
	}
}

// NewNode builds the node and its embedded server (restoring from the
// server config's snapshot directory when present) but does not listen;
// call Serve with this node's listener.
func NewNode(cfg NodeConfig) (*Node, error) {
	p := cfg.Placement
	if p == nil {
		return nil, fmt.Errorf("%w: nil table", ErrBadPlacement)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.NodeIndex(cfg.ID) < 0 {
		return nil, fmt.Errorf("%w: node %q not in placement", ErrBadPlacement, cfg.ID)
	}
	n := &Node{
		id:        cfg.ID,
		retry:     cfg.Retry,
		placement: p.Clone(),
		hbuf:      make(map[int][]byte),
		logs:      make([]*Log, p.Shards),
		repl:      make([]replShard, p.Shards),
		stop:      make(chan struct{}),
	}
	n.links = newLinks(n.dialPeer)
	for s := range n.logs {
		n.logs[s] = NewLog(cfg.LogCap)
		n.repl[s].kick = make(chan struct{}, 1)
		n.repl[s].room = make(chan struct{}, 1)
	}

	scfg := cfg.Server
	scfg.TotalShards = p.Shards
	scfg.ShardIDs = append(p.PrimariesOwnedBy(cfg.ID), p.FollowersOwnedBy(cfg.ID)...)
	if len(scfg.ShardIDs) == 0 {
		return nil, fmt.Errorf("%w: node %q owns no shards", ErrBadPlacement, cfg.ID)
	}
	scfg.OnApply = n.onApply
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	for _, s := range p.FollowersOwnedBy(cfg.ID) {
		if err := srv.SetShardServing(s, false); err != nil {
			srv.Close()
			return nil, err
		}
	}
	n.m.init(srv.Obs(), n)
	n.tcp = server.NewTCPServer(srv)
	n.tcp.AttachCluster(n, cfg.ID)
	return n, nil
}

// Server returns the embedded shard server (metrics, direct access).
func (n *Node) Server() *server.Server { return n.srv }

// TCP returns the wire-protocol front end; pass its Serve a listener
// bound to this node's placement address.
func (n *Node) TCP() *server.TCPServer { return n.tcp }

// ID returns the node's identity.
func (n *Node) ID() string { return n.id }

// Serve accepts connections on ln until Close or Kill.
func (n *Node) Serve(ln net.Listener) error { return n.tcp.Serve(ln) }

// Placement returns the node's current table (a private clone).
func (n *Node) Placement() *Placement {
	n.pmu.RLock()
	defer n.pmu.RUnlock()
	return n.placement.Clone()
}

// Close drains the TCP front end and the embedded server (writing
// snapshots when configured), then stops the replication senders.
// Writes still owed to a follower once the links close fail with
// ErrClosed.
func (n *Node) Close() error {
	n.killed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n.tcp.Shutdown(ctx)
	n.links.closeAll()
	err := n.srv.Close()
	n.stopSenders()
	return err
}

// Kill is the fail-stop path for chaos tests: outgoing links and the
// listener drop immediately, in-flight requests fail, nothing is
// drained or snapshotted. The process-level analogue is SIGKILL.
func (n *Node) Kill() {
	n.killed.Store(true)
	// Outgoing links first so in-flight replication unblocks with a
	// connection error instead of waiting out the shutdown context.
	n.links.closeAll()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: force-close accepted connections now
	n.tcp.Shutdown(ctx)
	n.srv.Close()
	n.stopSenders()
}

// stopSenders ends the replication senders, which fail whatever writes
// are still owed, and waits for them. The shard workers have exited by
// now, so nothing is handed off after.
func (n *Node) stopSenders() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.senders.Wait()
}

// dialPeer opens an outgoing link to peer for the links cache.
func (n *Node) dialPeer(peer NodeInfo) (*server.Client, error) {
	return server.DialNode(peer.Addr, n.id)
}

// demoteFollower removes a dead follower from shard's row at observed
// epoch, bumping the shard's epoch and telling the peers. The telling
// runs on a goroutine of its own: a dead or silent follower is among
// the peers, and the shard's sender must not wait on it.
func (n *Node) demoteFollower(shard int, followerID string, epoch uint64) {
	n.pmu.Lock()
	p := n.placement
	fidx := p.NodeIndex(followerID)
	if p.EpochOf(shard) != epoch || fidx < 0 || p.Follower[shard] != fidx {
		n.pmu.Unlock() // shard ownership moved on; nothing to demote
		return
	}
	np := p.Clone()
	np.Epochs[shard]++
	np.Follower[shard] = -1
	n.placement = np
	n.pmu.Unlock()
	n.m.demotions.Inc()
	go n.pushPlacement(np)
}

// refreshPlacementFrom adopts the peer's placement when newer.
func (n *Node) refreshPlacementFrom(peer NodeInfo) {
	c, err := n.links.get(peer)
	if err != nil {
		return
	}
	data, err := c.FetchPlacement()
	if err != nil {
		return
	}
	n.AdoptPlacement(data)
}

// pushPlacement offers np to every other node, best-effort (peers that
// are down learn the version from routers or later pushes).
func (n *Node) pushPlacement(np *Placement) {
	data, err := EncodePlacement(np)
	if err != nil {
		return
	}
	for _, peer := range np.Nodes {
		if peer.ID == n.id {
			continue
		}
		if c, err := n.links.get(peer); err == nil {
			if err := c.PushPlacement(data); err != nil {
				n.links.drop(peer.ID)
			}
		}
	}
}

// --- server.ClusterBackend ---

// Replicate applies a frame of op-log entries shipped by a primary (or
// a handoff tail) and returns once all are applied. A frame carrying a
// shard epoch older than this node's is fenced off with
// ErrStalePlacement, deposing dead-but-unaware primaries. tc is the
// replication hop of one sampled entry; threading it into the local
// apply makes the follower's serve span join that write's trace.
func (n *Node) Replicate(tc obs.TraceContext, pver uint64, shard int, entries server.ReplicatedEntries) error {
	if shard < 0 || shard >= len(n.repl) {
		return fmt.Errorf("cluster: replicate to shard %d: %w", shard, server.ErrWrongShard)
	}
	fence := &n.repl[shard].fence
	fence.RLock()
	defer fence.RUnlock()
	n.pmu.RLock()
	epoch := n.placement.EpochOf(shard)
	n.pmu.RUnlock()
	if pver < epoch {
		return fmt.Errorf("cluster: entries at shard %d epoch %d, node at %d: %w", shard, pver, epoch, server.ErrStalePlacement)
	}
	return n.srv.ApplyEntries(tc, shard, entries)
}

// HandoffChunk ingests one chunk of a shard snapshot stream and
// installs the shard (dormant) when the stream completes; the sender
// then replays the op-log tail via Replicate and flips the placement.
func (n *Node) HandoffChunk(shard int, first, last bool, data []byte) error {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	if first {
		n.hbuf[shard] = append(n.hbuf[shard][:0], data...)
	} else {
		buf, ok := n.hbuf[shard]
		if !ok {
			return fmt.Errorf("cluster: handoff chunk for shard %d without a first chunk", shard)
		}
		n.hbuf[shard] = append(buf, data...)
	}
	if !last {
		return nil
	}
	snap := n.hbuf[shard]
	delete(n.hbuf, shard)
	return n.srv.AttachShard(shard, snap, false)
}

// PlacementJSON serves the node's current table.
func (n *Node) PlacementJSON() ([]byte, error) {
	n.pmu.RLock()
	defer n.pmu.RUnlock()
	return EncodePlacement(n.placement)
}

// AdoptPlacement folds a pushed table into the node's (higher epoch
// wins per shard), reconciling which hosted shards are serving when
// anything moved.
func (n *Node) AdoptPlacement(data []byte) error {
	p, err := DecodePlacement(data)
	if err != nil {
		return err
	}
	n.pmu.Lock()
	merged, changed, err := n.placement.Merge(p)
	if err != nil {
		n.pmu.Unlock()
		return err
	}
	if !changed {
		n.pmu.Unlock()
		return nil // already there (idempotent)
	}
	n.placement = merged
	n.pmu.Unlock()
	n.reconcile(merged)
	return nil
}

// reconcile aligns hosted shards' serving bits with p: primaries serve,
// everything else is dormant.
func (n *Node) reconcile(p *Placement) {
	self := p.NodeIndex(n.id)
	for _, s := range n.srv.HostedShards() {
		serving := self >= 0 && s < len(p.Primary) && p.Primary[s] == self
		n.srv.SetShardServing(s, serving)
	}
}

// Promote makes this node primary for shard after its old primary
// failed; pver is the shard epoch the requester observed the failure
// under. An observation older than the node's own epoch is fenced off —
// the requester must refresh and re-judge before deposing anyone.
// Replication frames the shard is still applying finish first (see
// replShard.fence).
func (n *Node) Promote(pver uint64, shard int) error {
	if shard < 0 || shard >= len(n.repl) {
		return fmt.Errorf("cluster: promote of unknown shard %d", shard)
	}
	fence := &n.repl[shard].fence
	fence.Lock()
	np, err := n.takeOver(pver, shard)
	fence.Unlock()
	if np == nil {
		return err
	}
	if err := n.srv.SetShardServing(shard, true); err != nil {
		return err
	}
	n.m.promotions.Inc()
	n.pushPlacement(np)
	return nil
}

// takeOver makes this node shard's primary in its own table, at the
// epoch after pver, and returns the new table. It returns none when the
// node already is the primary (concurrent promoters race benignly) or
// the promotion is refused.
func (n *Node) takeOver(pver uint64, shard int) (*Placement, error) {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	p := n.placement
	self := p.NodeIndex(n.id)
	switch {
	case p.Primary[shard] == self:
		return nil, nil
	case pver < p.Epochs[shard]:
		return nil, fmt.Errorf("cluster: promote observed shard %d epoch %d, node at %d: %w",
			shard, pver, p.Epochs[shard], server.ErrStalePlacement)
	case p.Follower[shard] != self:
		return nil, fmt.Errorf("cluster: node %s is not shard %d's follower", n.id, shard)
	}
	np := p.Clone()
	np.Epochs[shard] = pver + 1
	np.Primary[shard] = self
	np.Follower[shard] = -1
	n.placement = np
	return np, nil
}

// ForwardGet relays a get one hop toward the shard's primary, under the
// client's timeout (see server.ClusterBackend). A valid tc makes the hop
// emit a forward span and carry the trace along.
func (n *Node) ForwardGet(tc obs.TraceContext, key string, hops uint8, timeoutMillis uint32) ([]byte, bool, error) {
	c, shard, err := n.ownerClient(key)
	if err != nil {
		return nil, false, err
	}
	n.m.forwardGets.Inc()
	ftc, span, startUs := n.beginForward(tc)
	val, found, err := c.ForwardGet(ftc, key, hops, timeoutMillis)
	n.endForward(tc, span, startUs, shard)
	return val, found, err
}

// ForwardPut relays a put one hop toward the shard's primary.
func (n *Node) ForwardPut(tc obs.TraceContext, key string, val []byte, hops uint8, timeoutMillis uint32) error {
	c, shard, err := n.ownerClient(key)
	if err != nil {
		return err
	}
	n.m.forwardPuts.Inc()
	ftc, span, startUs := n.beginForward(tc)
	err = c.ForwardPut(ftc, key, val, hops, timeoutMillis)
	n.endForward(tc, span, startUs, shard)
	return err
}

// beginForward mints the forward hop's span (when the request is
// traced) and returns the child context to ship, the span ID, and the
// hop's start in the node clock.
func (n *Node) beginForward(tc obs.TraceContext) (ftc obs.TraceContext, span uint64, startUs int64) {
	if !tc.Valid() {
		return obs.TraceContext{}, 0, 0
	}
	span = n.srv.TraceSource().SpanID()
	return tc.Child(span), span, n.srv.NowMicros()
}

// endForward emits the forward span minted by beginForward (no-op for
// untraced hops).
func (n *Node) endForward(tc obs.TraceContext, span uint64, startUs int64, shard int) {
	if span == 0 {
		return
	}
	//oramlint:allow secret-telemetry the record carries the shard index ShardOf(key), which the serving layer publishes by design (DESIGN "Shard confinement"; the per-shard request counters already count it); no key or value bytes reach it, and the bus adversary sees none of this wire path
	n.srv.Tracer().Emit(obs.Span{Hi: tc.Hi, Lo: tc.Lo, ID: span, Parent: tc.SpanID,
		TS: startUs, Dur: n.srv.NowMicros() - startUs,
		Kind: obs.SpanForward, Track: int32(shard)})
}

// ownerClient resolves key's shard to its primary's link.
func (n *Node) ownerClient(key string) (*server.Client, int, error) {
	shard := server.ShardOf(key, n.srv.TotalShards())
	n.pmu.RLock()
	p := n.placement
	prim, err := p.PrimaryOf(shard)
	n.pmu.RUnlock()
	if err != nil {
		return nil, shard, err
	}
	if prim.ID == n.id {
		// Placement says us but the local server said ErrWrongShard: the
		// shard is mid-handoff or mid-adoption; make the client retry.
		return nil, shard, fmt.Errorf("cluster: shard %d settling on %s: %w", shard, n.id, server.ErrBacklog)
	}
	c, err := n.links.get(prim)
	if err != nil {
		return nil, shard, fmt.Errorf("cluster: forward to %s: %v: %w", prim.ID, err, server.ErrBacklog)
	}
	return c, shard, nil
}

// Handoff migrates one shard this node serves as primary to target:
// stream a consistent snapshot, replay the op-log tail until the gap is
// small, seal the shard, fence with a barrier, replay the final tail,
// then bump the shard's epoch so routers converge on the target.
func (n *Node) Handoff(shard int, targetID string) error {
	start := time.Now()
	n.pmu.RLock()
	p := n.placement
	self := p.NodeIndex(n.id)
	tidx := p.NodeIndex(targetID)
	epoch := p.EpochOf(shard)
	var target NodeInfo
	if tidx >= 0 {
		target = p.Nodes[tidx]
	}
	isPrimary := shard >= 0 && shard < p.Shards && p.Primary[shard] == self
	n.pmu.RUnlock()
	if tidx < 0 {
		return fmt.Errorf("%w: handoff target %q not in placement", ErrBadPlacement, targetID)
	}
	if targetID == n.id {
		return fmt.Errorf("%w: handoff of shard %d to self", ErrBadPlacement, shard)
	}
	if !isPrimary {
		return fmt.Errorf("cluster: node %s is not shard %d's primary", n.id, shard)
	}

	c, err := n.links.get(target)
	if err != nil {
		return fmt.Errorf("cluster: handoff dial %s: %w", targetID, err)
	}

	// 1. Consistent snapshot on the shard worker; serving continues.
	snap, snapSeq, err := n.srv.SnapshotShard(shard)
	if err != nil {
		return err
	}
	defer n.m.handoffProgress.Set(0)
	for off := 0; off < len(snap); off += handoffChunkSize {
		end := min(off+handoffChunkSize, len(snap))
		if err := c.HandoffChunk(shard, off == 0, end == len(snap), snap[off:end]); err != nil {
			return fmt.Errorf("cluster: handoff stream shard %d: %w", shard, err)
		}
		n.m.handoffProgress.Set(int64(end * 100 / len(snap)))
	}
	n.m.handoffBytes.Add(uint64(len(snap)))

	// 2. Chase the op-log tail while writes keep landing, until the
	// remaining gap fits one small final batch.
	const settleGap = 64
	from := snapSeq
	f := new(server.ReplicateFrame)
	for {
		_, last := n.logs[shard].Bounds()
		if last <= from || last-from <= settleGap {
			break
		}
		if err := n.replayTail(c, f, shard, epoch, from, last); err != nil {
			return err
		}
		from = last
	}

	// 3. Seal: new client ops bounce with ErrWrongShard (routers retry
	// until the flip below redirects them). Any failure between here and
	// the flip unseals, so an aborted handoff leaves the shard serving.
	if err := n.srv.SetShardServing(shard, false); err != nil {
		return err
	}
	unseal := func(err error) error {
		n.srv.SetShardServing(shard, true)
		return err
	}
	// 4. Fence: the barrier flushes everything queued before the seal,
	// so appliedSeq is final.
	appliedSeq, err := n.srv.Barrier(shard)
	if err != nil {
		return unseal(err)
	}
	// 5. Final tail: after this the target is bit-identical.
	if err := n.replayTail(c, f, shard, epoch, from, appliedSeq); err != nil {
		return unseal(err)
	}

	// 6. Flip: install locally under an epoch check, push to the target
	// synchronously (it must serve the moment routers learn the new
	// epoch), then tell the other peers.
	n.pmu.Lock()
	p = n.placement
	if p.EpochOf(shard) != epoch {
		n.pmu.Unlock()
		return unseal(fmt.Errorf("cluster: shard %d moved to epoch %d during handoff: %w", shard, p.EpochOf(shard), server.ErrStalePlacement))
	}
	np := p.Clone()
	np.Epochs[shard]++
	np.Primary[shard] = tidx
	if np.Follower[shard] == tidx {
		np.Follower[shard] = -1
	}
	n.placement = np
	n.pmu.Unlock()
	data, err := EncodePlacement(np)
	if err != nil {
		return err
	}
	if err := n.retry.Do(func() error { return c.PushPlacement(data) }); err != nil {
		return fmt.Errorf("cluster: handoff flip to %s: %w", targetID, err)
	}
	n.reconcile(np)
	if _, err := n.srv.DetachShard(shard); err != nil {
		return err
	}
	n.pushPlacement(np)

	n.m.handoffs.Inc()
	n.m.handoffSecs.Observe(time.Since(start).Seconds())
	return nil
}

// --- telemetry federation ---

// ClusterMetrics scrapes every placement member's Prometheus exposition
// (its own directly, peers over the wire) and writes the merged
// cluster-wide exposition: aggregated series per family plus per-node
// series labelled node="id", with cluster_node_up marking unreachable
// peers. Scrape failures degrade to node-down markers, never errors.
func (n *Node) ClusterMetrics(w io.Writer) error {
	n.pmu.RLock()
	peers := append([]NodeInfo(nil), n.placement.Nodes...)
	n.pmu.RUnlock()
	nodes := make([]obs.NodeExposition, 0, len(peers))
	for _, peer := range peers {
		if peer.ID == n.id {
			var buf bytes.Buffer
			err := n.srv.Obs().WritePrometheus(&buf)
			nodes = append(nodes, obs.NodeExposition{Node: peer.ID, Data: buf.Bytes(), Err: err})
			continue
		}
		data, err := n.scrapePeer(peer)
		nodes = append(nodes, obs.NodeExposition{Node: peer.ID, Data: data, Err: err})
	}
	return obs.MergeExpositions(w, nodes)
}

func (n *Node) scrapePeer(peer NodeInfo) ([]byte, error) {
	c, err := n.links.get(peer)
	if err != nil {
		return nil, err
	}
	data, err := c.ScrapeMetrics()
	if err != nil {
		n.links.drop(peer.ID)
	}
	return data, err
}

// ClusterTrace collects every reachable member's span buffer and writes
// the stitched Perfetto trace, aligning per-node clocks along
// cross-node parent-child span edges. Unreachable peers contribute no
// track.
func (n *Node) ClusterTrace(w io.Writer) error {
	n.pmu.RLock()
	peers := append([]NodeInfo(nil), n.placement.Nodes...)
	n.pmu.RUnlock()
	traces := make([]obs.NodeTrace, 0, len(peers))
	for _, peer := range peers {
		if peer.ID == n.id {
			traces = append(traces, obs.NodeTrace{Node: peer.ID, Spans: n.srv.Tracer().Snapshot(nil)})
			continue
		}
		c, err := n.links.get(peer)
		if err != nil {
			continue
		}
		spans, err := c.ScrapeSpans()
		if err != nil {
			n.links.drop(peer.ID)
			continue
		}
		traces = append(traces, obs.NodeTrace{Node: peer.ID, Spans: spans})
	}
	return obs.MergeTraces(w, traces)
}

// replayTail ships op-log entries (from, to] to the handoff target, one
// round trip per frame the entries fill.
func (n *Node) replayTail(c *server.Client, f *server.ReplicateFrame, shard int, epoch, from, to uint64) error {
	for from < to {
		f.Reset(epoch, shard)
		last, err := n.logs[shard].Encode(f, from, to)
		if err != nil {
			return fmt.Errorf("cluster: handoff tail shard %d: %w", shard, err)
		}
		if err := c.Replicate(obs.TraceContext{}, f); err != nil {
			return fmt.Errorf("cluster: handoff replay shard %d seqs (%d,%d]: %w", shard, from, last, err)
		}
		from = last
	}
	return nil
}
