// Package server is the concurrent serving layer over the ORAM
// protocol engine: a sharded, batching key-value store in which every
// shard owns one oram.Ring confined to a single goroutine.
//
// Architecture and the obliviousness argument:
//
//   - Each shard's Ring is touched only by that shard's worker
//     goroutine, so the protocol state needs no locks and the per-Ring
//     obliviousness argument from internal/oram carries over unchanged:
//     within a shard, the bus-visible access sequence is exactly the
//     one the Ring emits for a serialized request stream.
//   - The dispatcher hashes keys to shards (FNV-1a). A bus adversary
//     can see *which Ring* is accessed; that is inherent to sharding
//     (each shard is an independent ORAM instance over a disjoint key
//     partition) and reveals only the shard index, which is itself a
//     deterministic public function of a secret key only through the
//     per-shard traffic mix. Get misses still perform a real ORAM
//     access (on a reserved probe block), so hit/miss is not visible.
//   - Per-shard queues are bounded. A full queue rejects immediately
//     with ErrBacklog (typed, retryable) — explicit backpressure, never
//     a silent drop. Requests carry deadlines; a request that expires
//     while queued is answered with ErrDeadline without touching the
//     Ring.
//   - The worker drains its queue in batches (amortizing wakeups; the
//     ORAM accesses themselves stay strictly sequential per shard) and
//     answers every dequeued request exactly once, so responses are
//     neither lost nor duplicated even across shutdown.
//   - Close drains all queues, then snapshots every shard (directory +
//     Ring checkpoint) into SnapshotDir with a write-temp-then-rename
//     protocol: a snapshot file is either complete or absent. New
//     restores from those files when they exist.
//
// A Config with Shards=1 and MaxBatch=1 serves requests in exactly the
// order they were enqueued, which keeps the repo's determinism
// discipline available to tests: same seed + same request sequence =>
// same bus trace.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"stringoram/internal/atomicfile"
	"stringoram/internal/checksum"
	"stringoram/internal/config"
	"stringoram/internal/obs"
	"stringoram/internal/oram"
)

// Typed serving errors. ErrBacklog and ErrDeadline are retryable: the
// request was not (or no longer) applied and a later retry may succeed.
var (
	// ErrBacklog reports a full shard queue; the request was rejected
	// before touching any ORAM state.
	ErrBacklog = errors.New("server: shard queue full (retryable)")
	// ErrDeadline reports a request whose deadline passed while it was
	// queued; it was answered without performing an ORAM access.
	ErrDeadline = errors.New("server: deadline exceeded (retryable)")
	// ErrClosed reports a server that has started shutting down.
	ErrClosed = errors.New("server: closed")
	// ErrFull reports a shard whose key directory reached capacity.
	ErrFull = errors.New("server: shard key capacity exhausted")
	// ErrValueTooLarge reports a value that does not fit in one block.
	ErrValueTooLarge = errors.New("server: value too large for block size")
	// ErrBadKey reports an empty or oversized key.
	ErrBadKey = errors.New("server: invalid key")
	// ErrWrongShard reports a key routed to a global shard this server
	// does not currently serve (not hosted, hosted as a non-serving
	// replica, or sealed for handoff). Cluster routers react by
	// refreshing their placement table and retrying elsewhere.
	ErrWrongShard = errors.New("server: shard not served by this node")
	// ErrStalePlacement reports a cluster frame carrying a placement
	// version older than the receiver's: the sender must refresh its
	// placement before retrying. It is the fencing error that stops a
	// deposed primary from acknowledging writes.
	ErrStalePlacement = errors.New("server: stale placement version")
)

// Retryable reports whether err is a transient serving error (queue
// backpressure or deadline expiry) that a client may retry.
func Retryable(err error) bool {
	return errors.Is(err, ErrBacklog) || errors.Is(err, ErrDeadline)
}

// MaxKeyLen bounds key length on both the in-process and wire paths.
const MaxKeyLen = 4096

// probeID is the reserved block every shard uses to serve Get misses:
// a miss still performs one real ORAM access (on this block), so the
// bus cannot distinguish hits from misses. Key blocks start above it.
const probeID oram.BlockID = 0

// firstKeyID is the first BlockID handed to user keys.
const firstKeyID oram.BlockID = 1

// Config parameterizes New. The zero value of every field selects a
// sensible default (4 shards, 256-deep queues, batches of 32, a
// 12-level tree per shard).
type Config struct {
	// Shards is the number of independent ORAM instances. Keys are
	// partitioned across shards by hash.
	Shards int
	// QueueDepth bounds each shard's request queue; a full queue
	// rejects with ErrBacklog.
	QueueDepth int
	// MaxBatch caps how many queued requests one worker wakeup drains.
	// 1 disables batching (strict arrival-order determinism).
	MaxBatch int
	// Pipeline is accepted and ignored: every shard serves through one
	// serial Ring whatever its value (pinned by
	// TestConfigPipelineIsInert). The field survives only so bench/,
	// which may change only in a benchmark PR, keeps compiling; that PR
	// removes it.
	Pipeline int
	// TreetopCache is accepted and ignored: every shard Ring holds its
	// top ORAM.TreeTopCacheLevels levels decrypted in controller memory
	// (oram's treetop cache). It survives, like Pipeline, only so bench/
	// keeps compiling until the benchmark PR removes it.
	TreetopCache bool
	// ORAM configures each shard's Ring. Zero value: DefaultORAM(12).
	ORAM config.ORAM
	// Seed derives every shard's protocol randomness; shard i uses
	// Seed mixed with i, so shards are decorrelated but reproducible.
	Seed uint64
	// Key, when non-nil, is the 16-byte master key sealing block
	// contents in the per-shard stores (and their snapshots): shard i
	// seals under oram.RingKey(Key, i, salt), with a salt drawn afresh
	// whenever the shard is created or restored (see ringKey).
	Key []byte
	// SnapshotDir, when non-empty, enables persistence: New restores
	// from it when snapshots exist, Close writes snapshots into it.
	SnapshotDir string
	// DefaultTimeout is applied to requests that carry no deadline;
	// zero means no deadline.
	DefaultTimeout time.Duration
	// MaxKeysPerShard bounds each shard's directory. Zero derives a
	// conservative bound from the tree size (one key per leaf).
	MaxKeysPerShard int
	// TotalShards is the global shard count used for key routing
	// (ShardOf's modulus). Zero means Shards: the single-node case,
	// where this server hosts the whole key space. A cluster node sets
	// it to the cluster-wide shard count and hosts only ShardIDs.
	TotalShards int
	// ShardIDs lists the global shard IDs this server hosts. Nil means
	// 0..Shards-1 (every shard, single-node). IDs must be unique and in
	// [0, TotalShards).
	ShardIDs []int
	// OnApply, when non-nil, runs on the shard worker goroutine after
	// every applied write (Put or replicated apply), before the write is
	// answered: (global shard, the write's sequence number, key, raw
	// value). It hands the write off and returns; it may wait only
	// while its own hand-off buffer is full. Returning true holds the
	// write's answer until Release settles a sequence number at or
	// above seq — how a cluster primary acks a write only once its
	// follower holds it. While any held write is unsettled, every later
	// answer of the shard (Gets, Barrier and SnapshotShard included)
	// waits behind it and leaves in order, so a Get admitted after a
	// held Put is answered only after that Put settles. Returning false
	// answers the write as a shard without a hook would. The hook is on
	// the steady-state apply path and must not allocate. tc is the
	// write's distributed trace context (zero when the request is
	// untraced or unsampled); implementations propagate it into
	// replication frames.
	OnApply func(tc obs.TraceContext, shard int, seq uint64, key string, val []byte) (hold bool)
	// TraceSample enables distributed tracing: requests arriving with a
	// trace context are kept when the power-of-two sampler on the trace
	// ID fires (1 keeps every trace, 1024 keeps ~1/1024; see
	// obs.TraceContext.Sampled). 0 disables tracing — contexts still
	// propagate on the wire, but no spans are recorded here.
	TraceSample uint64
	// Obs, when non-nil, receives every serving and per-shard protocol
	// instrument (exposed by oramd on /metrics). When nil the server
	// registers on a private registry, so the counters always count and
	// Metrics() reads the same instruments either way.
	Obs *obs.Registry

	// onBatch, when set, runs at the start of every worker batch with
	// (shard, batch size). Test hook: lets tests stall a worker to
	// force queue backpressure deterministically.
	onBatch func(shard, n int)
}

// DefaultORAM returns the server's per-shard protocol configuration: the
// paper's bucket geometry (Z=8, S=12, Y=8, A=8) on a tree with the given
// number of levels, no warm fill (the tree starts empty and holds only
// real application data), and a tree-top cache scaled to the height.
func DefaultORAM(levels int) config.ORAM {
	o := config.Default().ORAM
	o.Levels = levels
	if o.TreeTopCacheLevels+2 >= levels {
		o.TreeTopCacheLevels = levels / 3
	}
	o.WarmFill = 0
	return o
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ShardIDs != nil {
		c.Shards = len(c.ShardIDs)
	} else if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.TotalShards <= 0 {
		c.TotalShards = c.Shards
	}
	if c.ShardIDs == nil {
		c.ShardIDs = make([]int, c.Shards)
		for i := range c.ShardIDs {
			c.ShardIDs[i] = i
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.ORAM.Levels == 0 {
		c.ORAM = DefaultORAM(12)
	}
	if c.MaxKeysPerShard <= 0 {
		c.MaxKeysPerShard = int(c.ORAM.Leaves())
	}
	return c
}

// validateShardIDs rejects duplicate or out-of-range hosted shard IDs.
func (c Config) validateShardIDs() error {
	if len(c.ShardIDs) == 0 {
		return errors.New("server: no shards hosted")
	}
	seen := make(map[int]bool, len(c.ShardIDs))
	for _, id := range c.ShardIDs {
		if id < 0 || id >= c.TotalShards {
			return fmt.Errorf("server: shard ID %d out of range [0,%d)", id, c.TotalShards)
		}
		if seen[id] {
			return fmt.Errorf("server: shard ID %d hosted twice", id)
		}
		seen[id] = true
	}
	return nil
}

// opKind discriminates queued request types.
type opKind uint8

const (
	opGet opKind = iota + 1
	opPut
	// opApply is a replicated write: a Put carrying an explicit
	// sequence number, deduplicated against the shard's appliedSeq so a
	// retried replication or handoff-tail frame applies at most once.
	opApply
	// opSnapshot asks the worker for a consistent snapshot of the shard
	// at the current point in its request stream, without stopping it.
	opSnapshot
	// opBarrier completes only after every previously enqueued request
	// has fully applied and reports the shard's appliedSeq — the handoff
	// cutover fence.
	opBarrier
)

// request is one queued operation. key and val are the adversary-hidden
// request contents; the oramlint oblivious analyzer (run over this
// package by cmd/oramlint) flags any branch on them, or on a value
// derived from them, inside the address-emitting shard path.
type request struct {
	op       opKind
	key      string `oramlint:"secret"`
	val      []byte `oramlint:"secret"`
	deadline time.Time
	enqueued time.Time
	// seq is the replication sequence number of an opApply request;
	// unused for client ops (the worker assigns Put sequence numbers).
	seq uint64
	// miss marks a Get routed to the shard's probe block (key absent):
	// it answers found=false and discards the probe data.
	miss bool
	// tc is the request's sampled trace context (zero when untraced or
	// dropped by the sampler) and span the serve span minted for it at
	// admission. Both carry only opaque identifiers — never key or value
	// bytes — so telemetry stays leakage-free.
	tc   obs.TraceContext
	span uint64
	// Where the single response goes: an in-process caller waits on done;
	// a request read off a TCP connection carries that connection instead,
	// and respond encodes the answer straight into its output buffer (see
	// tcpConn.submit). wseq is the frame's sequence number; wtc the trace
	// context, timeoutMs the wire timeout and hops the relays it arrived
	// with, which a wrong-shard forward carries on; and buf the
	// request-owned copy of the frame's value, which outlives the
	// connection's read buffer.
	done      chan result
	conn      *tcpConn
	wseq      uint64
	wtc       obs.TraceContext
	timeoutMs uint32
	hops      uint8
	buf       []byte `oramlint:"secret"`
}

// reqPool recycles request structs (with their single-slot done channels
// and value buffers) across calls; a request returns to the pool only
// once its response is delivered, when the worker no longer touches it.
var reqPool = sync.Pool{New: func() any { return &request{done: make(chan result, 1)} }}

// result is the single response every dequeued request receives.
type result struct {
	val   []byte
	found bool
	// seq carries the shard's appliedSeq for opSnapshot/opBarrier
	// responses (zero for client ops).
	seq uint64
	err error
}

// Server is the concurrent ORAM key-value server. All methods are safe
// for concurrent use.
type Server struct {
	cfg       Config
	blockSize int // per-shard block size (uniform across shards)
	wg        sync.WaitGroup
	start     time.Time

	reg *obs.Registry // never nil after New (cfg.Obs or private)

	// Tracing state: the span ring, the span-ID source, and the sampling
	// rate. All are fixed at New; tracer and tsrc are always non-nil so
	// the scrape path needs no nil checks (rate 0 just never samples).
	tracer    *obs.Recorder[obs.Span]
	tsrc      *obs.TraceSource
	traceRate uint64

	// mu guards closed and the hosted-shard set against in-flight
	// enqueues: sendShard resolves and enqueues under RLock, while
	// Attach/Detach/Close mutate under Lock, so a shard's queue is
	// never closed while an enqueue holds a reference to it.
	mu     sync.RWMutex
	shards []*shard       // hosted shards in ShardIDs order
	byID   map[int]*shard // global shard ID -> hosted shard
	closed bool
}

// shard is one ORAM instance plus its confined worker state. Fields
// below the queue are touched only by the worker goroutine (or by
// Close/snapshot after the worker has exited, ordered by wg.Wait).
type shard struct {
	id      int // global shard ID
	reqs    chan *request
	done    chan struct{} // closed when the worker exits (detach/Close sync)
	m       shardMetrics
	onBatch func(shard, n int)
	tracer  *obs.Recorder[obs.Span] // server-wide distributed-trace span ring
	epoch   time.Time               // server start; trace spans are µs since epoch

	// serving gates client ops (Get/Put): false for follower replicas
	// and shards sealed for handoff, which answer ErrWrongShard.
	// Replica applies, snapshots and barriers always pass. Written by
	// cluster role changes while the worker runs, hence atomic.
	serving atomic.Bool

	// waiters counts enqueueWait callers routed to the shard and not yet
	// through their send; the queue closes only once they are.
	waiters sync.WaitGroup

	ring        *oram.Ring
	salt        []byte // names the Ring's incarnation: it seals under ringKey(cfg, id, salt)
	dir         map[string]oram.BlockID
	nextID      oram.BlockID
	appliedSeq  uint64 // sequence number of the last applied write (worker-owned)
	totalShards int    // global shard count stamped into snapshots
	onApply     func(tc obs.TraceContext, shard int, seq uint64, key string, val []byte) bool
	maxKeys     int
	maxBatch    int
	blockSize   int
	encBuf      []byte `oramlint:"secret,scratch"` // reused Put-block framing scratch

	rq releaseQueue // answers held behind unsettled writes (see Config.OnApply)

	// rec is the Ring's record as of its last access, published by the
	// worker (see publish) and read under recMu by scrapes, Metrics and
	// ShardStats.
	recMu sync.Mutex
	rec   busOp
}

// heldAnswer is an answer waiting in a shard's release queue: the
// request, the result the worker computed for it, and the held write
// sequence number it waits for.
type heldAnswer struct {
	r   *request
	res result
	tag uint64
}

// releaseQueue holds a shard's answers behind its unsettled writes, in
// the order the worker produced them. The worker appends; Release pops
// a settled prefix and delivers it. A shard whose hook never holds
// keeps held == settled and answers directly, without the lock.
type releaseQueue struct {
	mu sync.Mutex
	q  []heldAnswer // tags non-decreasing
	// held is the newest write sequence number held (written by the
	// worker under mu, read by it without), settled the newest one a
	// settling Release covered (written under mu). Every answer tagged
	// at or below settled has left the queue.
	held    uint64
	settled atomic.Uint64
	// lastW and lastR are the outcome of the newest settling Release,
	// for a held write whose answer reaches the queue after it.
	lastW, lastR error

	relMu sync.Mutex   // serializes releasers, so answers leave in order
	out   []heldAnswer // a releaser's scratch (under relMu)
}

// New builds a server, restoring every shard from cfg.SnapshotDir when
// a complete snapshot set is present (an incomplete set is an error;
// an empty/missing directory starts fresh), and starts the workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.ORAM.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := cfg.validateShardIDs(); err != nil {
		return nil, err
	}
	if cfg.Key != nil && len(cfg.Key) != 16 {
		return nil, fmt.Errorf("server: key must be 16 bytes, got %d", len(cfg.Key))
	}
	s := &Server{cfg: cfg, start: time.Now(), byID: make(map[int]*shard, len(cfg.ShardIDs))}
	s.reg = cfg.Obs
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.tracer = obs.NewRecorder[obs.Span](serverTraceBufCap)
	s.tsrc = obs.NewTraceSource(cfg.Seed ^ 0x7472616365) // decorrelate from protocol randomness
	s.traceRate = cfg.TraceSample

	restore, err := snapshotsPresent(cfg.SnapshotDir, cfg.ShardIDs)
	if err != nil {
		return nil, err
	}
	for _, id := range cfg.ShardIDs {
		var snap []byte
		if restore {
			snap, err = os.ReadFile(snapshotPath(cfg.SnapshotDir, id))
			if err != nil {
				return nil, fmt.Errorf("server: shard %d restore: %w", id, err)
			}
		}
		sh, err := s.buildShard(id, snap)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
		s.byID[id] = sh
	}
	s.blockSize = s.shards[0].blockSize
	s.wg.Add(len(s.shards))
	for _, sh := range s.shards {
		go sh.run(&s.wg)
	}
	return s, nil
}

// buildShard constructs (and instruments) one hosted shard, restoring
// from snapshot bytes when snap is non-nil. The caller starts the
// worker and links the shard into the routing table.
func (s *Server) buildShard(id int, snap []byte) (*shard, error) {
	cfg := s.cfg
	sh := &shard{
		id:          id,
		reqs:        make(chan *request, cfg.QueueDepth),
		done:        make(chan struct{}),
		onBatch:     cfg.onBatch,
		tracer:      s.tracer,
		epoch:       s.start,
		totalShards: cfg.TotalShards,
		onApply:     cfg.OnApply,
		maxKeys:     cfg.MaxKeysPerShard,
		maxBatch:    cfg.MaxBatch,
	}
	sh.serving.Store(true)
	sh.m.init(s.reg, id)
	if snap != nil {
		if err := sh.restoreBytes(snap, cfg); err != nil {
			return nil, err
		}
	} else {
		if err := sh.fresh(cfg, id); err != nil {
			return nil, err
		}
	}
	// Registration is idempotent and the series look the shard up by
	// ID, so a re-attached shard resolves to the same series.
	sh.publish()
	s.ringSeries(id)
	s.reg.GaugeFunc(fmt.Sprintf(`server_queue_depth{shard="%d"}`, id),
		"Current shard queue occupancy.",
		func(gid int) func() float64 {
			return func() float64 { return float64(s.queueDepth(gid)) }
		}(id))
	sh.blockSize = sh.ring.Config().BlockSize
	sh.encBuf = make([]byte, sh.blockSize)
	sh.rq.held = sh.appliedSeq
	sh.rq.settled.Store(sh.appliedSeq)
	return sh, nil
}

// queueDepth reports the current queue occupancy of a hosted shard
// (0 when the shard is not hosted — e.g. between detach and re-attach).
func (s *Server) queueDepth(id int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sh := s.byID[id]; sh != nil {
		return len(sh.reqs)
	}
	return 0
}

// fresh builds shard i's Ring from scratch.
func (sh *shard) fresh(cfg Config, i int) error {
	opts := &oram.Options{Store: oram.NewMemStore(cfg.ORAM.SlotsPerBucket())}
	sh.salt = oram.NewSalt()
	if key := ringKey(cfg, i, sh.salt); key != nil {
		crypt, err := oram.NewCrypt(key, cfg.ORAM.BlockSize)
		if err != nil {
			return fmt.Errorf("server: shard %d: %w", i, err)
		}
		opts.Crypt = crypt
	}
	ring, err := oram.NewRing(cfg.ORAM, shardSeed(cfg.Seed, i), opts)
	if err != nil {
		return fmt.Errorf("server: shard %d: %w", i, err)
	}
	sh.ring = ring
	sh.dir = make(map[string]oram.BlockID)
	sh.nextID = firstKeyID
	return nil
}

// ringKey is the sealing key of one incarnation of global shard id's
// Ring, nil without cfg.Key. Every Ring seals at IVs named by tree
// positions, so each shard takes its own key from the master, and each
// incarnation its own salt: a fresh shard, a follower replica and every
// restore (from disk or a handoff stream) draws a new one, since the
// tree it copies may serve on and diverge. The salt travels in the
// snapshot, so a restore can open the tree it re-seals.
func ringKey(cfg Config, id int, salt []byte) []byte {
	if cfg.Key == nil {
		return nil
	}
	return oram.RingKey(cfg.Key, uint64(id), salt)
}

// shardSeed decorrelates per-shard randomness from one master seed.
func shardSeed(seed uint64, shard int) uint64 {
	return seed ^ (uint64(shard)+1)*0x9e3779b97f4a7c15
}

// FNV-1a constants (identical to hash/fnv; inlined so routing a key
// allocates nothing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ShardOf routes a key to its global shard index: FNV-1a over the key
// bytes, modulo the total shard count. It is the single routing
// function shared by this server, the cluster router, and every peer
// node — stable across runs and processes (snapshots and cluster
// placement both depend on this being deterministic), and bit-identical
// to hash/fnv.New64a over the same bytes.
func ShardOf(key string, totalShards int) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return int(h % uint64(totalShards))
}

// Get returns the value stored under key. found is false for keys never
// written; a miss still costs one ORAM access, so it is indistinguishable
// from a hit on the bus.
func (s *Server) Get(key string) ([]byte, bool, error) {
	return s.GetCtx(obs.TraceContext{}, key, time.Time{})
}

// GetCtx is Get with an explicit deadline (zero applies the configured
// default timeout) carrying a distributed trace context: when the
// server's sampler keeps the trace, the request's serve span lands in
// Tracer(), parented on tc's span.
func (s *Server) GetCtx(tc obs.TraceContext, key string, deadline time.Time) ([]byte, bool, error) {
	res := s.do(tc, opGet, key, nil, deadline)
	return res.val, res.found, res.err
}

// Put stores val under key. Values must fit in one block alongside a
// 2-byte length header.
func (s *Server) Put(key string, val []byte) error {
	return s.PutCtx(obs.TraceContext{}, key, val, time.Time{})
}

// PutCtx is Put with an explicit deadline carrying a distributed trace
// context (see GetCtx).
func (s *Server) PutCtx(tc obs.TraceContext, key string, val []byte, deadline time.Time) error {
	return s.do(tc, opPut, key, val, deadline).err
}

// MaxValueLen returns the largest value Put accepts.
func (s *Server) MaxValueLen() int {
	return s.blockSize - valueHeaderLen
}

// Obs returns the registry holding every serving and per-shard protocol
// instrument (the Config's registry, or the server's private one).
func (s *Server) Obs() *obs.Registry { return s.reg }

// serverTraceBufCap bounds the distributed-trace span ring: 4096 spans
// of 61 wire bytes each keep a full scrape well under one wire frame.
const serverTraceBufCap = 4096

// Tracer returns the server's distributed-trace span ring. Span
// timestamps are microseconds since server start, aligned across nodes
// by obs.MergeTraces.
func (s *Server) Tracer() *obs.Recorder[obs.Span] { return s.tracer }

// TraceSource returns the server's span-ID source (shared with the
// cluster layer so replication and forward spans join the same ID
// space).
func (s *Server) TraceSource() *obs.TraceSource { return s.tsrc }

// NowMicros returns the server's local span clock: microseconds since
// start.
func (s *Server) NowMicros() int64 { return time.Since(s.start).Microseconds() }

// sampleTrace stamps req with tc and a fresh serve-span ID iff tracing
// is on, tc is real, and the head sampler keeps the trace. Requests
// from the pool arrive zeroed, so the unsampled path writes nothing.
func (s *Server) sampleTrace(req *request, tc obs.TraceContext) {
	if s.traceRate != 0 && tc.Valid() && tc.Sampled(s.traceRate) {
		req.tc = tc
		req.span = s.tsrc.SpanID()
	}
}

// do validates and stamps one keyed request, sends it to the key's
// shard and waits for its response.
func (s *Server) do(tc obs.TraceContext, op opKind, key string, val []byte, deadline time.Time) result {
	req, err := s.admit(tc, op, key, val, deadline)
	if err != nil {
		return result{err: err}
	}
	return s.sendShard(ShardOf(key, s.cfg.TotalShards), req)
}

// admit validates one keyed client op and returns it as a pooled request
// stamped with its deadline and trace context, ready to enqueue.
// Validation failures reject before any ORAM state is touched.
func (s *Server) admit(tc obs.TraceContext, op opKind, key string, val []byte, deadline time.Time) (*request, error) {
	if key == "" || len(key) > MaxKeyLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadKey, len(key))
	}
	if op == opPut && len(val) > s.MaxValueLen() {
		return nil, fmt.Errorf("%w: %d bytes, max %d", ErrValueTooLarge, len(val), s.MaxValueLen())
	}
	if deadline.IsZero() && s.cfg.DefaultTimeout > 0 {
		deadline = time.Now().Add(s.cfg.DefaultTimeout)
	}
	req := reqPool.Get().(*request)
	req.op, req.key, req.val = op, key, val
	req.deadline, req.enqueued = deadline, time.Now()
	s.sampleTrace(req, tc)
	return req, nil
}

// enqueue hands req to a hosted shard's queue without waiting: a closed
// server, an unhosted shard and a full queue fail at once (ErrClosed,
// ErrWrongShard, ErrBacklog), and the request then still belongs to the
// caller.
func (s *Server) enqueue(gid int, req *request) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh := s.byID[gid]
	if sh == nil {
		return fmt.Errorf("shard %d: %w", gid, ErrWrongShard)
	}
	select {
	case sh.reqs <- req:
		return nil
	default:
		sh.m.noteRejected()
		return fmt.Errorf("shard %d: %w", gid, ErrBacklog)
	}
}

// sendShard enqueues req on a hosted shard, waits for its single
// response and returns the request to the pool.
func (s *Server) sendShard(gid int, req *request) result {
	if err := s.enqueue(gid, req); err != nil {
		releaseRequest(req)
		return result{err: err}
	}
	res := <-req.done
	releaseRequest(req)
	return res
}

// ApplyEntries applies a run of replicated writes to a hosted shard and
// returns once every one is applied (or the first error). Each entry is
// an opApply request carrying the primary's sequence number,
// deduplicated against the shard's appliedSeq, so a retried frame acks
// without re-applying. Unlike Put, it ignores the shard's serving flag —
// follower replicas and sealed shards accept replication while refusing
// client traffic — and it waits for queue room instead of failing with
// ErrBacklog: its sender keeps at most one run per shard in flight. A
// sampled tc stamps the run's last entry, whose apply span then joins
// the sender's trace.
func (s *Server) ApplyEntries(tc obs.TraceContext, shardID int, es ReplicatedEntries) error {
	reqs := make([]*request, 0, es.count)
	var err error
	rest := es.data
	for i := 0; i < es.count; i++ {
		var (
			seq      uint64
			key, val []byte
		)
		if seq, key, val, rest, err = nextReplicateEntry(rest); err != nil {
			break
		}
		if len(key) == 0 || len(key) > MaxKeyLen {
			err = fmt.Errorf("%w: %d bytes", ErrBadKey, len(key))
			break
		}
		if len(val) > s.MaxValueLen() {
			err = fmt.Errorf("%w: %d bytes, max %d", ErrValueTooLarge, len(val), s.MaxValueLen())
			break
		}
		req := reqPool.Get().(*request)
		req.op, req.key, req.val, req.seq = opApply, string(key), val, seq
		req.enqueued = time.Now()
		if i == es.count-1 {
			s.sampleTrace(req, tc)
		}
		if err = s.enqueueWait(shardID, req); err != nil {
			releaseRequest(req)
			break
		}
		reqs = append(reqs, req)
	}
	for _, req := range reqs {
		if res := <-req.done; res.err != nil && err == nil {
			err = res.err
		}
		releaseRequest(req)
	}
	return err
}

// enqueueWait is enqueue waiting for queue room instead of failing with
// ErrBacklog. It waits without holding mu; Close and DetachShard close
// the queue only once every waiter routed before them has sent.
func (s *Server) enqueueWait(gid int, req *request) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	sh := s.byID[gid]
	if sh == nil {
		s.mu.RUnlock()
		return fmt.Errorf("shard %d: %w", gid, ErrWrongShard)
	}
	sh.waiters.Add(1)
	s.mu.RUnlock()
	sh.reqs <- req
	sh.waiters.Done()
	return nil
}

// Release settles a hosted shard's held writes up to sequence number
// upTo and delivers, in order, every answer held behind them (see
// Config.OnApply). werr, when non-nil, replaces the success answer of
// each released write, and rerr that of each released Get; every other
// answer leaves as computed. A retryable rerr releases the answers but
// leaves the writes unsettled — they are still owed to the follower — so
// answers produced later keep waiting for the next Release. A caller
// settling writes by failing them for good (its node deposed or
// stopping) stops the shard serving first: a Get answered after that
// fails with ErrWrongShard rather than return a failed write.
func (s *Server) Release(shardID int, upTo uint64, werr, rerr error) {
	s.mu.RLock()
	sh := s.byID[shardID]
	s.mu.RUnlock()
	if sh != nil {
		sh.release(upTo, werr, rerr)
	}
}

// SnapshotShard returns a consistent snapshot of one hosted shard —
// taken by the shard's own worker at a well-defined point in its
// request stream, without detaching or stopping it — plus the shard's
// appliedSeq at that point. The live-handoff sender streams these bytes
// to the receiving node and replays the op-log tail above the returned
// sequence number.
func (s *Server) SnapshotShard(shardID int) ([]byte, uint64, error) {
	req := reqPool.Get().(*request)
	req.op = opSnapshot
	req.enqueued = time.Now()
	res := s.sendShard(shardID, req)
	return res.val, res.seq, res.err
}

// Barrier completes after every request enqueued on the shard before it
// has fully applied, and returns the shard's appliedSeq. Combined with
// SetShardServing(false) it gives the handoff cutover a quiescence
// fence: seal, barrier, replay the final op-log tail, flip placement.
func (s *Server) Barrier(shardID int) (uint64, error) {
	req := reqPool.Get().(*request)
	req.op = opBarrier
	req.enqueued = time.Now()
	res := s.sendShard(shardID, req)
	return res.seq, res.err
}

// SetShardServing flips whether a hosted shard accepts client ops
// (Get/Put). A non-serving shard answers them with ErrWrongShard while
// still accepting Apply/SnapshotShard/Barrier — the state of a follower
// replica, and of a primary sealed for handoff.
func (s *Server) SetShardServing(shardID int, serving bool) error {
	s.mu.RLock()
	sh := s.byID[shardID]
	s.mu.RUnlock()
	if sh == nil {
		return fmt.Errorf("shard %d: %w", shardID, ErrWrongShard)
	}
	sh.serving.Store(serving)
	return nil
}

// HostedShards returns the global IDs of the currently hosted shards,
// in hosting order.
func (s *Server) HostedShards() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]int, len(s.shards))
	for i, sh := range s.shards {
		ids[i] = sh.id
	}
	return ids
}

// TotalShards returns the global routing modulus.
func (s *Server) TotalShards() int { return s.cfg.TotalShards }

// AttachShard starts hosting a global shard: restored from snapshot
// bytes (as produced by SnapshotShard or DetachShard) when snap is
// non-nil, fresh otherwise. serving=false attaches it as a replica that
// accepts only Apply traffic until promoted. The shard's worker starts
// immediately; no other shard is disturbed.
func (s *Server) AttachShard(shardID int, snap []byte, serving bool) error {
	if shardID < 0 || shardID >= s.cfg.TotalShards {
		return fmt.Errorf("server: shard ID %d out of range [0,%d)", shardID, s.cfg.TotalShards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.byID[shardID] != nil {
		return fmt.Errorf("server: shard %d already hosted", shardID)
	}
	sh, err := s.buildShard(shardID, snap)
	if err != nil {
		return err
	}
	sh.serving.Store(serving)
	s.shards = append(s.shards, sh)
	s.byID[shardID] = sh
	s.wg.Add(1)
	go sh.run(&s.wg)
	return nil
}

// DetachShard stops hosting a shard without disturbing the rest of the
// server: the shard leaves the routing table, its queue drains (every
// queued request still receives its response), the worker exits, and
// the shard's final state is returned as snapshot bytes suitable for
// AttachShard on another node.
func (s *Server) DetachShard(shardID int) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	sh := s.byID[shardID]
	if sh == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("shard %d: %w", shardID, ErrWrongShard)
	}
	delete(s.byID, shardID)
	for i, cur := range s.shards {
		if cur == sh {
			s.shards = append(s.shards[:i], s.shards[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	// No enqueue can reach the shard now (routing happens under mu), so
	// once the waiters routed before have sent, closing the queue is
	// race-free; the worker drains and exits.
	sh.waiters.Wait()
	close(sh.reqs)
	<-sh.done
	return sh.snapshotBytes()
}

// releaseRequest zeroes a request — its secret references included —
// keeping only its reusable done channel and value buffer, and returns
// it to the pool.
func releaseRequest(req *request) {
	*req = request{done: req.done, buf: req.buf[:0]}
	reqPool.Put(req)
}

// Close stops accepting requests, drains every shard queue (each queued
// request still receives its response), waits for the workers to exit,
// and — when SnapshotDir is configured — writes one snapshot per shard.
// Close is idempotent; later calls return nil without re-snapshotting.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	shards := append([]*shard(nil), s.shards...)
	s.mu.Unlock()
	for _, sh := range shards {
		sh.waiters.Wait()
		close(sh.reqs)
	}
	s.wg.Wait()
	if s.cfg.SnapshotDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
		return fmt.Errorf("server: snapshot dir: %w", err)
	}
	for _, sh := range shards {
		if err := sh.snapshot(snapshotPath(s.cfg.SnapshotDir, sh.id)); err != nil {
			return err
		}
	}
	return nil
}

// run is the shard worker: it owns the Ring. Every request dequeued is
// answered exactly once; the loop exits only after the closed queue is
// fully drained, so shutdown loses no responses.
func (sh *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(sh.done)
	batch := make([]*request, 0, sh.maxBatch)
	for req := range sh.reqs {
		batch = append(batch[:0], req)
	fill:
		for len(batch) < sh.maxBatch {
			select {
			case r, ok := <-sh.reqs:
				if !ok {
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
		if sh.onBatch != nil {
			sh.onBatch(sh.id, len(batch))
		}
		now := time.Now()
		for _, r := range batch {
			sh.serve(now, r)
		}
		sh.m.noteBatch(len(batch), len(sh.dir))
	}
}

// serve answers one request on the worker goroutine. Branches on the
// secret key below carry oramlint:allow justifications: both arms of
// each branch issue exactly one ORAM access (or none before any bus
// traffic), so the bus-visible sequence does not depend on the secret.
func (sh *shard) serve(now time.Time, r *request) {
	if !r.deadline.IsZero() && now.After(r.deadline) {
		sh.answer(r, result{err: fmt.Errorf("shard %d: %w", sh.id, ErrDeadline)})
		return
	}
	// Client ops are refused while the shard is a non-serving replica
	// or sealed for handoff; replication and the handoff control ops
	// below pass regardless. The flag is public operational state, so
	// the branch leaks nothing about request contents.
	if (r.op == opGet || r.op == opPut) && !sh.serving.Load() {
		sh.answer(r, result{err: fmt.Errorf("shard %d: %w", sh.id, ErrWrongShard)})
		return
	}
	switch r.op {
	case opSnapshot:
		data, err := sh.snapshotBytes()
		sh.answer(r, result{val: data, seq: sh.appliedSeq, err: err})
		return
	case opBarrier:
		sh.answer(r, result{seq: sh.appliedSeq})
		return
	case opApply:
		// Replication dedup: an at-or-below-appliedSeq frame is a retry
		// of a write this replica already holds; ack without touching
		// the Ring.
		if r.seq <= sh.appliedSeq {
			sh.answer(r, result{seq: sh.appliedSeq})
			return
		}
	}
	switch r.op {
	case opGet:
		//oramlint:allow secret-branch both arms issue exactly one read-path access: a hit reads the mapped block, a miss reads the shard's resident probe block; hit and miss are bus-indistinguishable
		if id, ok := sh.dir[r.key]; ok {
			r.miss = false
			sh.access(r, id, false, nil)
		} else {
			r.miss = true
			sh.access(r, probeID, false, nil)
		}
	case opPut, opApply:
		// New-key allocation happens before the single write access;
		// writing a fresh BlockID and overwriting a mapped one emit
		// identically shaped traffic (Ring ORAM treats unmapped IDs as
		// fresh random paths), so the branch shape below leaks nothing.
		// The capacity rejection is the one early exit and carries its
		// own justification. opApply (a replicated Put) shares the path
		// exactly — a replica's bus traffic has the same shape as the
		// primary's.
		id, ok := sh.dir[r.key]
		//oramlint:allow secret-branch new-key allocation only picks the BlockID; the single write access below has the same shape for a fresh or a mapped id, and the capacity rejection inside carries its own secret-early-exit allow
		if !ok {
			if len(sh.dir) >= sh.maxKeys {
				sh.answer(r, result{err: fmt.Errorf("shard %d (%d keys): %w", sh.id, len(sh.dir), ErrFull)})
				//oramlint:allow secret-early-exit capacity rejection is public operational state: it reveals only that an unmapped key arrived while the shard was full, which the ErrFull API contract already declares to callers
				return
			}
			id = sh.nextID
			sh.nextID++
			sh.dir[r.key] = id
		}
		sh.access(r, id, true, sh.encodeValueScratch(r.val))
	default:
		sh.answer(r, result{err: fmt.Errorf("server: unknown op %d", r.op)})
	}
}

// busOp is the package's address-emitting marker and the record a shard
// publishes of its Ring: after every bus-visible ORAM access (and once
// when the shard is built) the worker copies the Ring's counters into
// exactly one busOp, so oramlint's oblivious analyzer treats busOp
// construction sites as this package's emit sites when checking it for
// secret-dependent branching.
type busOp struct {
	stats oram.Stats
}

// publish copies the Ring's counters into the shard's record. Only the
// worker calls it (or buildShard, before the worker starts).
func (sh *shard) publish() {
	rec := busOp{stats: sh.ring.Stats()}
	sh.recMu.Lock()
	sh.rec = rec
	sh.recMu.Unlock()
}

// record returns the Ring counters the shard last published.
func (sh *shard) record() oram.Stats {
	sh.recMu.Lock()
	defer sh.recMu.Unlock()
	return sh.rec.stats
}

// access issues the single ORAM access a request maps to and finishes
// the request.
func (sh *shard) access(r *request, id oram.BlockID, write bool, block []byte) {
	data, _, err := sh.ring.Access(id, write, block)
	sh.finish(r, data, err)
}

// finish publishes one completed access's Ring record and answers its
// request.
func (sh *shard) finish(r *request, data []byte, err error) {
	sh.publish()
	if err != nil {
		sh.answer(r, result{err: fmt.Errorf("shard %d: %w", sh.id, err)})
		return
	}
	if r.op == opGet {
		if r.miss {
			sh.answer(r, result{found: false})
			return
		}
		// The value is copied out of the Ring's scratch, valid only until
		// its next access: into the request's own buffer when a connection
		// will encode it from there (no allocation), into a slice of its
		// own for an in-process caller, who keeps it.
		var dst []byte
		if r.conn != nil {
			dst = r.buf[:0]
		}
		val, derr := decodeValue(dst, data)
		if r.conn != nil {
			r.buf = val
		}
		sh.answer(r, result{val: val, found: true, err: derr})
		return
	}
	// A write applied: advance the shard's sequence and hand it to the
	// apply hook (op-log append + replication) before answering. serve
	// already answered replayed applies (seq <= appliedSeq).
	seq := sh.appliedSeq + 1
	if r.op == opApply {
		seq = r.seq
	}
	sh.appliedSeq = seq
	//oramlint:allow secret-branch the hook's hold decision is operational replication state (whether the shard has a follower), independent of key contents; the ORAM access for this write was already emitted before finish ran
	if sh.onApply != nil && sh.onApply(r.tc.Child(r.span), sh.id, seq, r.key, r.val) {
		sh.hold(r, result{seq: seq}, seq)
		return
	}
	sh.answer(r, result{seq: seq})
}

// answer delivers a result the worker computed: at once when no held
// write is unsettled, otherwise into the release queue behind the
// newest held write. A replicating shard that stopped serving since it
// served a Get answers the Get ErrWrongShard instead: its writes may
// have been settled by failing them, when the node was deposed or is
// stopping, and the Get may have read them.
func (sh *shard) answer(r *request, res result) {
	rq := &sh.rq
	if rq.settled.Load() < rq.held {
		rq.mu.Lock()
		if rq.settled.Load() < rq.held {
			rq.q = append(rq.q, heldAnswer{r: r, res: res, tag: rq.held})
			rq.mu.Unlock()
			return
		}
		rq.mu.Unlock()
	}
	if r.op == opGet && res.err == nil && sh.onApply != nil && !sh.serving.Load() {
		res = result{err: fmt.Errorf("shard %d: %w", sh.id, ErrWrongShard)}
	}
	sh.respond(r, res)
}

// hold queues the answer of write seq, which the apply hook handed off,
// until a Release settles it. The hook's hand-off may already have been
// settled by the time the answer gets here; it then leaves at once with
// that Release's outcome.
func (sh *shard) hold(r *request, res result, seq uint64) {
	rq := &sh.rq
	rq.mu.Lock()
	rq.held = seq
	if rq.settled.Load() >= seq {
		h := heldAnswer{r: r, res: res}
		werr, rerr := rq.lastW, rq.lastR
		rq.mu.Unlock()
		sh.respond(r, sh.outcome(&h, werr, rerr))
		return
	}
	rq.q = append(rq.q, heldAnswer{r: r, res: res, tag: seq})
	rq.mu.Unlock()
}

// release pops the answers tagged at or below upTo and delivers them in
// order with the outcome (werr, rerr); see Server.Release.
func (sh *shard) release(upTo uint64, werr, rerr error) {
	rq := &sh.rq
	rq.relMu.Lock()
	defer rq.relMu.Unlock()
	rq.mu.Lock()
	if !Retryable(rerr) && upTo > rq.settled.Load() {
		rq.settled.Store(upTo)
		rq.lastW, rq.lastR = werr, rerr
	}
	k := 0
	for k < len(rq.q) && rq.q[k].tag <= upTo {
		k++
	}
	out := append(rq.out[:0], rq.q[:k]...)
	n := copy(rq.q, rq.q[k:])
	clear(rq.q[n:])
	rq.q = rq.q[:n]
	rq.mu.Unlock()
	for i := range out {
		sh.respond(out[i].r, sh.outcome(&out[i], werr, rerr))
		out[i] = heldAnswer{}
	}
	rq.out = out[:0]
}

// outcome is the answer a released request gets: its own result, unless
// that was a success the Release's outcome overrides (werr for a write,
// rerr for a Get).
func (sh *shard) outcome(h *heldAnswer, werr, rerr error) result {
	if h.res.err != nil {
		return h.res
	}
	err := rerr
	switch h.r.op {
	case opPut, opApply:
		err = werr
	case opGet:
	default:
		return h.res
	}
	if err != nil {
		return result{err: fmt.Errorf("shard %d replication: %w", sh.id, err)}
	}
	return h.res
}

// respond delivers the request's single response — into the TCP
// connection it arrived on, or to its in-process waiter — and records
// latency, plus the request's serve span when it was sampled at
// admission. The span carries only identifiers and timings — key and
// value never reach the tracer.
func (sh *shard) respond(r *request, res result) {
	sh.m.noteDone(r.op, res, time.Since(r.enqueued))
	if r.span != 0 {
		kind := obs.SpanServeGet
		switch r.op {
		case opPut:
			kind = obs.SpanServePut
		case opApply:
			kind = obs.SpanServeApply
		}
		sh.tracer.Emit(obs.Span{
			Hi:     r.tc.Hi,
			Lo:     r.tc.Lo,
			ID:     r.span,
			Parent: r.tc.SpanID,
			TS:     r.enqueued.Sub(sh.epoch).Microseconds(),
			Dur:    time.Since(r.enqueued).Microseconds(),
			Kind:   kind,
			Track:  int32(sh.id),
		})
	}
	if r.conn != nil {
		r.conn.deliver(r, res)
		return
	}
	r.done <- res
}

// valueHeaderLen is the per-block value framing: a 2-byte length.
const valueHeaderLen = 2

// encodeValueScratch frames val into the shard's reused block scratch.
// The result is valid until the next Put on this shard; Ring.Write
// copies it before returning, so the worker may reuse it freely.
func (sh *shard) encodeValueScratch(val []byte) []byte {
	block := sh.encBuf
	clear(block)
	binary.BigEndian.PutUint16(block, uint16(len(val)))
	copy(block[valueHeaderLen:], val)
	return block
}

// decodeValue unframes a block, appending the value to dst (returned
// unchanged on error); never-written blocks are all zero and decode to an
// empty value.
func decodeValue(dst, block []byte) ([]byte, error) {
	if len(block) < valueHeaderLen {
		return dst, fmt.Errorf("server: short block (%d bytes)", len(block))
	}
	n := int(binary.BigEndian.Uint16(block))
	if n > len(block)-valueHeaderLen {
		return dst, fmt.Errorf("server: corrupt block: value length %d exceeds block", n)
	}
	return append(dst, block[valueHeaderLen:valueHeaderLen+n]...), nil
}

// --- snapshots ---

// shardSnapVersion guards the snapshot file format. Version 2 adds
// Salt, which names the key the Ring checkpoint is sealed under; version
// 3 trails the gob body with its SHA-256 (encodeShardSnap).
const shardSnapVersion = 3

// shardSnap is the on-disk (and on-wire, for handoff) form of one
// shard: the key directory plus the Ring checkpoint (oram.Ring.Save
// bytes — the same format the stringoram facade exposes as
// Save/LoadRing). Shards records the global shard count the snapshot
// was taken under; AppliedSeq the replication sequence number of the
// last applied write (zero in pre-cluster snapshots, which gob decodes
// compatibly).
type shardSnap struct {
	Version    int
	ShardID    int
	Shards     int
	Dir        map[string]int64
	NextID     int64
	AppliedSeq uint64
	Salt       []byte
	Ring       []byte
}

// snapshotPath names shard i's snapshot file.
func snapshotPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.snap", i))
}

// snapshotsPresent reports whether dir holds a complete snapshot set
// for the hosted shard IDs. A partial set is an error (refusing to
// silently drop acknowledged writes); an empty or missing dir means a
// fresh start.
func snapshotsPresent(dir string, ids []int) (bool, error) {
	if dir == "" {
		return false, nil
	}
	present := 0
	for _, id := range ids {
		if _, err := os.Stat(snapshotPath(dir, id)); err == nil {
			present++
		} else if !errors.Is(err, os.ErrNotExist) {
			return false, fmt.Errorf("server: snapshot %d: %w", id, err)
		}
	}
	switch present {
	case 0:
		return false, nil
	case len(ids):
		return true, nil
	default:
		return false, fmt.Errorf("server: %s holds %d of %d shard snapshots; refusing partial restore", dir, present, len(ids))
	}
}

// snapshotBytes serializes the shard (directory + Ring checkpoint +
// replication sequence) into a self-describing gob blob: the format
// shared by on-disk snapshots, DetachShard, and the handoff stream.
// Called only from the worker goroutine or after the worker has exited.
func (sh *shard) snapshotBytes() ([]byte, error) {
	var ring bytes.Buffer
	if err := sh.ring.Save(&ring); err != nil {
		return nil, fmt.Errorf("server: shard %d checkpoint: %w", sh.id, err)
	}
	snap := shardSnap{
		Version:    shardSnapVersion,
		ShardID:    sh.id,
		Shards:     sh.totalShards,
		Dir:        make(map[string]int64, len(sh.dir)),
		NextID:     int64(sh.nextID),
		AppliedSeq: sh.appliedSeq,
		Salt:       sh.salt,
		Ring:       ring.Bytes(),
	}
	for k, id := range sh.dir {
		snap.Dir[k] = int64(id)
	}
	data, err := encodeShardSnap(&snap)
	if err != nil {
		return nil, fmt.Errorf("server: shard %d snapshot: %w", sh.id, err)
	}
	return data, nil
}

// encodeShardSnap is the one encoder of snapshot bytes: the gob body of
// snap followed by its SHA-256 (checksum.Append), so that decodeShardSnap
// refuses a flipped, cut or appended byte before trusting any field.
func encodeShardSnap(snap *shardSnap) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, err
	}
	return checksum.Append(buf.Bytes()), nil
}

// decodeShardSnap checks the SHA-256 that encodeShardSnap appended and
// decodes the gob body before it.
func decodeShardSnap(data []byte) (shardSnap, error) {
	var snap shardSnap
	body, err := checksum.Strip(data)
	if err != nil {
		return snap, fmt.Errorf("snapshot %w", err)
	}
	err = gob.NewDecoder(bytes.NewReader(body)).Decode(&snap)
	return snap, err
}

// snapshot writes the shard to path atomically and durably (synced temp
// file + rename, see atomicfile.Write): after a crash mid-write the file
// is either the complete new snapshot or absent/old. Called only after
// the worker has exited.
func (sh *shard) snapshot(path string) error {
	data, err := sh.snapshotBytes()
	if err != nil {
		return err
	}
	if err := atomicfile.Write(path, ".snap-*", 0o600, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("server: shard %d snapshot: %w", sh.id, err)
	}
	return nil
}

// restoreBytes loads the shard from snapshot bytes written by
// snapshotBytes (from disk, DetachShard, or a handoff stream).
func (sh *shard) restoreBytes(data []byte, cfg Config) error {
	snap, err := decodeShardSnap(data)
	if err != nil {
		return fmt.Errorf("server: shard %d restore: %w", sh.id, err)
	}
	if snap.Version != shardSnapVersion {
		return fmt.Errorf("server: shard %d snapshot version %d, want %d", sh.id, snap.Version, shardSnapVersion)
	}
	if snap.ShardID != sh.id || snap.Shards != cfg.TotalShards {
		return fmt.Errorf("server: snapshot is shard %d of %d, want shard %d of %d (re-sharding requires a fresh directory)",
			snap.ShardID, snap.Shards, sh.id, cfg.TotalShards)
	}
	ring, err := oram.Load(bytes.NewReader(snap.Ring), ringKey(cfg, sh.id, snap.Salt))
	if err != nil {
		return fmt.Errorf("server: shard %d restore: %w", sh.id, err)
	}
	sh.salt = oram.NewSalt()
	if key := ringKey(cfg, sh.id, sh.salt); key != nil {
		if err := ring.Rekey(key); err != nil {
			return fmt.Errorf("server: shard %d restore: %w", sh.id, err)
		}
	}
	sh.ring = ring
	sh.dir = make(map[string]oram.BlockID, len(snap.Dir))
	for k, id := range snap.Dir {
		sh.dir[k] = oram.BlockID(id)
	}
	sh.nextID = oram.BlockID(snap.NextID)
	if sh.nextID < firstKeyID {
		sh.nextID = firstKeyID
	}
	sh.appliedSeq = snap.AppliedSeq
	return nil
}
