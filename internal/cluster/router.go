package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"stringoram/internal/obs"
	"stringoram/internal/server"
)

// Router is the cluster-aware client: it maps keys to shards with the
// same FNV-1a hash the servers use, shards to nodes through its cached
// placement table, and rides out failover — a dead primary triggers a
// follower promotion and a placement refresh, transparently to the
// caller. Safe for concurrent use.
type Router struct {
	// Retry shapes backoff across retryable rejections and failover
	// windows.
	Retry server.RetryPolicy
	// Timeout, when positive, is applied per attempt as the server-side
	// request deadline.
	Timeout time.Duration

	mu        sync.Mutex // guards placement and closed; never held across I/O
	placement *Placement
	closed    bool
	links     *links // connections by node ID

	// trc is fixed by EnableTracing before traffic and read without
	// locking afterwards; nil by default (the plain hot path pays only
	// a nil check).
	trc *routerTracer
}

// routerTracer mints and buffers the router's root spans. The router is
// trace origin: every sampled operation opens the trace that the serve,
// forward, and replicate spans downstream stitch into.
type routerTracer struct {
	src   *obs.TraceSource
	buf   *obs.Recorder[obs.Span]
	rate  uint64
	epoch time.Time
}

// EnableTracing makes the router originate distributed traces: every
// operation mints a 128-bit trace ID, the power-of-two rate picks which
// ones are recorded (1 = all, 1024 = ~1/1024, 0 = none), and sampled
// operations ship their context to the serving node and record a root
// span locally. Call before traffic. Existing connections stay
// untraced; new ones negotiate the capability at dial time.
func (r *Router) EnableTracing(seed, rate uint64) {
	r.trc = &routerTracer{
		src:   obs.NewTraceSource(seed),
		buf:   obs.NewRecorder[obs.Span](routerTraceBufCap),
		rate:  rate,
		epoch: time.Now(),
	}
}

// routerTraceBufCap bounds the router's root-span ring.
const routerTraceBufCap = 4096

// TraceSpans snapshots the router's recorded root spans, for stitching
// into a cluster trace as its own node (time domain: µs since
// EnableTracing).
func (r *Router) TraceSpans() []obs.Span {
	if r.trc == nil {
		return nil
	}
	return r.trc.buf.Snapshot(nil)
}

// DialCluster bootstraps a router from any live node: the seed's
// placement table is fetched and connections to the rest are opened
// lazily.
func DialCluster(seedAddr string) (*Router, error) {
	c, err := server.Dial(seedAddr)
	if err != nil {
		return nil, err
	}
	data, err := c.FetchPlacement()
	if err != nil {
		c.Close()
		return nil, err
	}
	p, err := DecodePlacement(data)
	if err != nil {
		c.Close()
		return nil, err
	}
	r := newRouter(p)
	if id := c.ServerNodeID(); id != "" {
		r.links.byID[id] = c
	} else {
		c.Close()
	}
	return r, nil
}

// newRouter returns a router over placement p with no connections yet.
func newRouter(p *Placement) *Router {
	r := &Router{placement: p}
	r.links = newLinks(r.dial)
	return r
}

// Close drops every connection.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.links.closeAll()
	return nil
}

// Placement returns the router's current view (a private clone).
func (r *Router) Placement() *Placement {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.placement.Clone()
}

// primaryClient resolves key's shard to a connection to its primary.
func (r *Router) primaryClient(key string) (*server.Client, NodeInfo, int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, NodeInfo{}, 0, fmt.Errorf("cluster router: %w", server.ErrClosed)
	}
	shard := server.ShardOf(key, r.placement.Shards)
	prim, err := r.placement.PrimaryOf(shard)
	r.mu.Unlock()
	if err != nil {
		return nil, NodeInfo{}, shard, err
	}
	c, err := r.links.get(prim)
	return c, prim, shard, err
}

// dial opens a connection to node for the links cache.
func (r *Router) dial(node NodeInfo) (*server.Client, error) {
	c, err := server.Dial(node.Addr)
	if err != nil {
		return nil, err
	}
	c.Timeout = r.Timeout
	if r.trc != nil {
		// Negotiate the tracing capability; a pre-capability node says
		// statusBad and the link stays untraced (no traced frames are
		// ever sent toward it).
		_, _ = c.EnableTracing()
	}
	return c, nil
}

// refreshPlacement folds every live node's table into the router's
// (higher epoch wins per shard), so the router sees each shard's newest
// ownership even while the nodes themselves are still converging.
func (r *Router) refreshPlacement() {
	r.mu.Lock()
	nodes := append([]NodeInfo(nil), r.placement.Nodes...)
	r.mu.Unlock()
	for _, node := range nodes {
		c, err := r.links.get(node)
		if err != nil {
			continue
		}
		data, err := c.FetchPlacement()
		if err != nil {
			r.links.drop(node.ID)
			continue
		}
		p, err := DecodePlacement(data)
		if err != nil {
			continue
		}
		r.mu.Lock()
		if merged, changed, err := r.placement.Merge(p); err == nil && changed {
			r.placement = merged
		}
		r.mu.Unlock()
	}
}

// promoteFollower reacts to a dead primary: ask the shard's follower to
// take over at the epoch the failure was observed under, then adopt
// whatever placement results.
func (r *Router) promoteFollower(shard int, observed *Placement) {
	fol, ok := observed.FollowerOf(shard)
	if !ok {
		// No replica to promote; refresh in case someone else moved the
		// shard (e.g. a completed handoff we haven't seen).
		r.refreshPlacement()
		return
	}
	c, err := r.links.get(fol)
	if err != nil {
		return
	}
	// Promote errors are acceptable: a concurrent router may have won
	// the race, or the follower may already be primary.
	_ = c.Promote(observed.EpochOf(shard), shard)
	r.refreshPlacement()
}

// Router op kinds for the closure-free retry loop in do.
const (
	routerGet = iota
	routerPut
)

// do runs one operation against key's primary with failover: retryable
// rejections back off; wrong-shard/stale responses refresh the
// placement; connection errors promote the follower. Terminal
// application errors return immediately.
//
// The retry loop is hand-rolled over RetryPolicy.Delay with the op
// selected by kind rather than a callback, so the per-op hot path
// (Get/Put on a healthy cluster) allocates nothing.
func (r *Router) do(kind int, key string, val []byte) (out []byte, found bool, err error) {
	// Trace origin: mint the trace up front so the sampling decision is
	// a pure function of its ID and every retry rides the same trace.
	var tc obs.TraceContext
	var t0 int64
	if r.trc != nil {
		if t := r.trc.src.NewTrace(); t.Sampled(r.trc.rate) {
			tc = t
			t0 = time.Since(r.trc.epoch).Microseconds()
		}
	}
	p := r.Retry
	if p.MaxAttempts == 0 {
		// Failover needs headroom beyond the default budget: promotion
		// plus placement convergence can span several windows.
		p.MaxAttempts = 20
	}
	p = p.WithDefaults()
	for i := 0; i < p.MaxAttempts; i++ {
		if d := p.Delay(i); d > 0 {
			time.Sleep(d)
		}
		out, found, err = r.attempt(tc, kind, key, val)
		if err == nil || !server.Retryable(err) {
			r.finish(tc, kind, t0)
			return out, found, err
		}
	}
	err = fmt.Errorf("server: %d attempts exhausted: %w", p.MaxAttempts, err)
	r.finish(tc, kind, t0)
	return out, found, err
}

// finish records the operation's root span.
func (r *Router) finish(tc obs.TraceContext, kind int, t0 int64) {
	if tc.Valid() {
		k := obs.SpanClientGet
		if kind == routerPut {
			k = obs.SpanClientPut
		}
		r.trc.buf.Emit(obs.Span{Hi: tc.Hi, Lo: tc.Lo, ID: tc.SpanID,
			TS: t0, Dur: time.Since(r.trc.epoch).Microseconds() - t0,
			Kind: k, Track: -1})
	}
}

// attempt runs one try of do: resolve the primary, run the op, classify
// the failure.
func (r *Router) attempt(tc obs.TraceContext, kind int, key string, val []byte) ([]byte, bool, error) {
	c, prim, shard, err := r.primaryClient(key)
	if err != nil {
		if !errors.Is(err, ErrNoNode) && !errors.Is(err, server.ErrClosed) {
			// The primary cannot even be dialed: treat it as dead
			// and promote. A false suspicion is safe — the epoch
			// fence deposes whichever primary is stale.
			r.promoteFollower(shard, r.Placement())
		} else {
			r.refreshPlacement()
		}
		return nil, false, fmt.Errorf("cluster router: no primary: %v: %w", err, server.ErrBacklog)
	}
	var (
		out   []byte
		found bool
	)
	switch kind {
	case routerGet:
		out, found, err = c.GetCtx(tc, key)
	case routerPut:
		err = c.PutCtx(tc, key, val)
	}
	switch {
	case err == nil:
		return out, found, nil
	case errors.Is(err, server.ErrWrongShard), errors.Is(err, server.ErrStalePlacement):
		// The node's placement disagrees with ours (mid-handoff or
		// post-failover): converge and retry.
		r.refreshPlacement()
		return nil, false, fmt.Errorf("%v: %w", err, server.ErrBacklog)
	case server.Retryable(err):
		return nil, false, err
	case errors.Is(err, server.ErrRemote), errors.Is(err, server.ErrBadKey),
		errors.Is(err, server.ErrValueTooLarge), errors.Is(err, server.ErrFull):
		// The primary is alive and answered; surface the application
		// error instead of failing over a healthy node.
		return nil, false, err
	default:
		// Transport-level failure: assume the primary died, drop the
		// link, and promote its follower.
		observed := r.Placement()
		r.links.drop(prim.ID)
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return nil, false, err
		}
		r.promoteFollower(shard, observed)
		return nil, false, fmt.Errorf("cluster router: primary %s lost (%v): %w", prim.ID, err, server.ErrBacklog)
	}
}

// Get fetches a value from key's shard, wherever it lives.
func (r *Router) Get(key string) (val []byte, found bool, err error) {
	return r.do(routerGet, key, nil)
}

// Put stores a value on key's shard, riding out failover; a nil return
// means the write is applied on every live replica.
func (r *Router) Put(key string, val []byte) error {
	_, _, err := r.do(routerPut, key, val)
	return err
}
