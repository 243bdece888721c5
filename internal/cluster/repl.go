package cluster

import (
	"errors"
	"fmt"
	"time"

	"stringoram/internal/obs"
	"stringoram/internal/server"
)

// onApply is the shard worker's apply hook. It appends the write to the
// shard's op log and, when this node is the shard's primary and the
// shard has a follower, hands it to the shard's replication sender and
// holds its answer: the sender settles it once the follower acks, so a
// client-visible ack still implies the write is applied on every live
// replica at the acked epoch. The worker waits only at the op-log bound,
// when the write would overwrite an entry still owed to the follower.
// tc is the write's trace context (zero when untraced or unsampled); a
// valid one gets a replicate span from hand-off to ack.
func (n *Node) onApply(tc obs.TraceContext, shard int, seq uint64, key string, val []byte) bool {
	rs := &n.repl[shard]
	log := n.logs[shard]
	rs.mu.Lock()
	owed := rs.handed > rs.acked
	for owed && seq-rs.acked > uint64(log.cap) {
		rs.mu.Unlock()
		<-rs.room
		rs.mu.Lock()
		owed = rs.handed > rs.acked
	}
	log.Append(seq, key, val)
	primary, _, hasFollower, _ := n.role(shard)
	rs.applied = seq
	if !primary || !hasFollower {
		if !owed {
			rs.acked = seq // nothing to ship: the gap never opens
		}
		rs.mu.Unlock()
		return false
	}
	if !owed {
		rs.acked = seq - 1
		rs.since = n.srv.NowMicros()
	}
	rs.handed = seq
	if tc.Valid() {
		rs.traced = append(rs.traced, tracedWrite{seq: seq, tc: tc, span: n.srv.TraceSource().SpanID(), startUs: n.srv.NowMicros()})
	}
	if !rs.running {
		rs.running = true
		n.senders.Add(1)
		go n.sendLoop(shard)
	}
	rs.mu.Unlock()
	select {
	case rs.kick <- struct{}{}:
	default:
	}
	return true
}

// role reads shard's row of this node's placement.
func (n *Node) role(shard int) (primary bool, follower NodeInfo, hasFollower bool, epoch uint64) {
	n.pmu.RLock()
	defer n.pmu.RUnlock()
	p := n.placement
	primary = shard < len(p.Primary) && p.Primary[shard] == p.NodeIndex(n.id)
	follower, hasFollower = p.FollowerOf(shard)
	return primary, follower, hasFollower, p.EpochOf(shard)
}

// sendLoop is one primary shard's replication sender. Each round ships
// every entry handed off since the last frame as one frame — group
// commit, at most one frame in flight — and settles the answers held
// behind them on the outcome. Retries and their backoff run here, never
// on the shard worker. When the node stops, whatever is still owed
// fails.
func (n *Node) sendLoop(shard int) {
	defer n.senders.Done()
	rs := &n.repl[shard]
	f := new(server.ReplicateFrame)
	var backoff time.Duration
	for {
		wake := rs.kick
		var retry <-chan time.Time
		if backoff > 0 {
			wake, retry = nil, time.After(backoff)
		}
		select {
		case <-wake:
		case <-retry:
		case <-n.stop:
			rs.mu.Lock()
			to := rs.handed
			rs.mu.Unlock()
			err := fmt.Errorf("cluster: node %s stopping: %w", n.id, server.ErrClosed)
			n.failOwed(shard, to, err)
			return
		}
		for more := true; more; {
			more, backoff = n.ship(shard, f)
		}
	}
}

// ship sends one frame of the entries owed to shard's follower, starting
// after the newest acked one, and settles the answers it covers. more
// reports that entries may still be owed; a positive backoff, that the
// frame failed retryably and is to be shipped again after that delay.
func (n *Node) ship(shard int, f *server.ReplicateFrame) (more bool, backoff time.Duration) {
	rs := &n.repl[shard]
	rs.mu.Lock()
	from, to := rs.acked, rs.handed
	// Entries handed off after this point were handed off after snapUs:
	// once (from, to] is acked, snapUs is how old the oldest unacked one
	// can be.
	snapUs := n.srv.NowMicros()
	rs.mu.Unlock()
	if from >= to {
		return false, 0
	}
	primary, follower, hasFollower, epoch := n.role(shard)
	switch {
	case !primary:
		n.failOwed(shard, to, fmt.Errorf("cluster: shard %d deposed: %w", shard, server.ErrStalePlacement))
		return false, 0
	case !hasFollower:
		n.settle(shard, to, nil, nil) // this node is the only live replica
		return false, 0
	}

	f.Reset(epoch, shard)
	last, err := n.logs[shard].Encode(f, from, to)
	var c *server.Client
	if err == nil {
		c, err = n.links.get(follower)
	}
	rp := n.retry.WithDefaults()
	if err == nil {
		start := time.Now()
		rtc := rs.frameTrace(last)
		for i := 0; i < rp.MaxAttempts; i++ {
			if d := rp.Delay(i); d > 0 {
				time.Sleep(d)
			}
			if err = c.Replicate(rtc, f); err == nil || !server.Retryable(err) {
				break
			}
		}
		if err == nil {
			n.m.replicated.Add(uint64(f.Len()))
			n.m.replFrames.Inc()
			n.m.replicateSecs.Observe(time.Since(start).Seconds())
			n.ack(shard, last, to, snapUs)
			return true, 0
		}
	}
	n.m.replFailures.Inc()
	if n.killed.Load() {
		// The failure is our own shutdown (Kill/Close dropped the
		// outgoing links), not the follower's: a fail-stopped node must
		// not demote healthy replicas on its way down.
		n.failOwed(shard, to, fmt.Errorf("cluster: node %s stopping (%v): %w", n.id, err, server.ErrClosed))
		return true, 0
	}

	switch {
	case errors.Is(err, server.ErrStalePlacement):
		// The follower is at a newer epoch for this shard. Adopt its
		// table, then decide: still primary → transient (routers retry at
		// the new epoch, the entries ship again); deposed → the next
		// round fails everything owed with the stale placement.
		n.refreshPlacementFrom(follower)
		if primary, _, _, _ := n.role(shard); !primary {
			return true, 0
		}
		err = fmt.Errorf("cluster: follower ahead, retry: %w", server.ErrBacklog)
		n.srv.Release(shard, last, err, err)
		return false, rp.Delay(rp.MaxAttempts)
	case server.Retryable(err):
		// Follower alive but saturated past the retry budget: fail the
		// answers retryably without demoting a healthy replica; the
		// entries stay owed and ship again.
		n.srv.Release(shard, last, err, err)
		return false, rp.Delay(rp.MaxAttempts)
	}
	// Connection-level failure or an unanswered frame: treat the follower
	// as dead, demote it, and fail the frame's writes retryably — the
	// retry will succeed against the new (follower-less) placement.
	n.links.drop(follower.ID)
	n.demoteFollower(shard, follower.ID, epoch)
	werr := fmt.Errorf("cluster: follower %s lost (%v): %w", follower.ID, err, server.ErrBacklog)
	switch primary, _, hasFollower, _ := n.role(shard); {
	case !primary:
		return true, 0 // deposed meanwhile: the next round settles that
	case hasFollower:
		// The placement moved on without demoting it: still owed.
		n.srv.Release(shard, last, werr, werr)
		return false, rp.Delay(rp.MaxAttempts)
	}
	// Demoted: this node is the only live replica, so the frame's writes
	// are settled — failed, yet a Get behind them may return them.
	n.settle(shard, last, werr, nil)
	return true, 0
}

// frameTrace returns the context a frame whose newest entry is last
// carries: a child of the first sampled entry's replicate span, so the
// follower's apply span parents on it; zero when no entry is sampled.
func (rs *replShard) frameTrace(last uint64) obs.TraceContext {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.traced) == 0 || rs.traced[0].seq > last {
		return obs.TraceContext{}
	}
	return rs.traced[0].tc.Child(rs.traced[0].span)
}

// ack records the follower's ack of the entries up to last, of a frame
// taken at snapUs that ended at to, emits the replicate spans of the
// sampled ones, and releases their answers.
func (n *Node) ack(shard int, last, to uint64, snapUs int64) {
	rs := &n.repl[shard]
	rs.mu.Lock()
	rs.advance(last)
	if rs.applied > rs.acked && last == to {
		rs.since = snapUs // a partial ack moves the gap's start forward
	}
	k := 0
	for ; k < len(rs.traced) && rs.traced[k].seq <= last; k++ {
		w := &rs.traced[k]
		n.srv.Tracer().Emit(obs.Span{Hi: w.tc.Hi, Lo: w.tc.Lo, ID: w.span, Parent: w.tc.SpanID,
			TS: w.startUs, Dur: n.srv.NowMicros() - w.startUs,
			Kind: obs.SpanReplicate, Track: int32(shard)})
	}
	rs.dropTraced(k)
	rs.mu.Unlock()
	rs.wakeWorker()
	n.srv.Release(shard, last, nil, nil)
}

// settle records that the entries up to upTo are no longer owed to the
// follower — given up on rather than acked — and releases the answers
// held behind them with the outcome (werr, rerr).
func (n *Node) settle(shard int, upTo uint64, werr, rerr error) {
	rs := &n.repl[shard]
	rs.mu.Lock()
	rs.advance(upTo)
	k := 0
	for k < len(rs.traced) && rs.traced[k].seq <= upTo {
		k++
	}
	rs.dropTraced(k)
	rs.mu.Unlock()
	rs.wakeWorker()
	n.srv.Release(shard, upTo, werr, rerr)
}

// failOwed gives up on the entries up to upTo: the node was deposed or
// is stopping, so they will never be acked. The shard stops serving
// first, so a Get the worker answers after the writes fail cannot
// return them (see server.Server.Release).
func (n *Node) failOwed(shard int, upTo uint64, err error) {
	n.srv.SetShardServing(shard, false)
	n.settle(shard, upTo, err, err)
}

// advance moves acked to upTo; once nothing handed off is owed, entries
// appended without a hand-off are not owed either. Caller holds rs.mu.
func (rs *replShard) advance(upTo uint64) {
	rs.acked = max(rs.acked, upTo)
	if rs.handed <= rs.acked {
		rs.acked = rs.applied
	}
}

// dropTraced forgets the first k sampled writes. Caller holds rs.mu.
func (rs *replShard) dropTraced(k int) {
	n := copy(rs.traced, rs.traced[k:])
	clear(rs.traced[n:])
	rs.traced = rs.traced[:n]
}

// wakeWorker wakes a shard worker waiting at the op-log bound.
func (rs *replShard) wakeWorker() {
	select {
	case rs.room <- struct{}{}:
	default:
	}
}
