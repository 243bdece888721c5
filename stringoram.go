// Package stringoram is a library implementation of String ORAM
// ("Streamline Ring ORAM Accesses through Spatial and Temporal
// Optimization", HPCA 2021): Ring ORAM with the Compact Bucket (CB)
// spatial optimization and the Proactive Bank (PB) DRAM scheduler, plus
// the full evaluation substrate — a cycle-accurate DDR3 memory-system
// simulator, subtree address mapping, trace-driven cores, and the
// experiment harness that regenerates every table and figure in the
// paper.
//
// Three entry points cover the common uses:
//
//   - Protocol: NewRing / NewPathORAM give functional, encrypted ORAM
//     controllers you can read and write through. Each access also
//     returns the physical operation list, so the protocol layer can be
//     embedded in other memory-system simulators.
//   - Simulation: Simulate runs a workload trace through the full system
//     (cores -> LLC -> ORAM -> scheduler -> DRAM) and returns timing,
//     queuing, row-buffer and stash statistics.
//   - Experiments: NewExperiments regenerates the paper's figures;
//     cmd/stringoram wraps it as a CLI.
//
// The package is a facade: implementation lives in internal/ packages
// and is re-exported here via type aliases, so the full API surface of
// the underlying types is available to importers.
package stringoram

import (
	"io"

	"stringoram/internal/cluster"
	"stringoram/internal/config"
	"stringoram/internal/experiments"
	"stringoram/internal/oram"
	"stringoram/internal/server"
	"stringoram/internal/sim"
	"stringoram/internal/trace"
)

// Configuration types (see internal/config for field documentation).
type (
	// SystemConfig bundles the ORAM, DRAM, CPU and cache parameters of
	// one simulated system.
	SystemConfig = config.System
	// ORAMConfig holds the Ring ORAM / String ORAM protocol parameters
	// (Z, S, Y, A, tree height, stash size, ...).
	ORAMConfig = config.ORAM
	// DRAMConfig describes the memory organization and DDR timing.
	DRAMConfig = config.DRAM
	// SchedulerKind selects transaction-based or Proactive Bank
	// scheduling.
	SchedulerKind = config.SchedulerKind
)

// Scheduler kinds.
const (
	// SchedTransaction is the baseline transaction-based scheduler
	// (paper Algorithm 1).
	SchedTransaction = config.SchedTransaction
	// SchedProactiveBank is the PB scheduler (paper Algorithm 2).
	SchedProactiveBank = config.SchedProactiveBank
)

// DefaultConfig returns the paper's default system (Tables I-III):
// Z=8, S=12, Y=8, 24-level tree, stash 500, DDR3-1600 4ch x 8 banks.
func DefaultConfig() SystemConfig { return config.Default() }

// ScaledConfig returns the default system shrunk to a tree with the
// given number of levels, for fast experimentation.
func ScaledConfig(levels int) SystemConfig { return config.ScaledDefault(levels) }

// Protocol types.
type (
	// Ring is the Ring ORAM controller with Compact Bucket support.
	Ring = oram.Ring
	// PathORAM is the Path ORAM baseline controller.
	PathORAM = oram.Path
	// RingOptions configures optional Ring/Path behaviour: functional
	// store, sealing and selection policy. A Ring with a store always
	// keeps its top TreeTopCacheLevels levels decrypted in controller
	// memory; TreetopCache is accepted and ignored.
	RingOptions = oram.Options
	// BlockID identifies a logical data block.
	BlockID = oram.BlockID
	// Op is one ORAM operation with its physical slot accesses.
	Op = oram.Op
	// ProtocolStats aggregates protocol-level counters.
	ProtocolStats = oram.Stats
)

// ErrStashOverflow is returned when background eviction cannot keep the
// stash within capacity (an over-aggressive CB rate for the stash size).
var ErrStashOverflow = oram.ErrStashOverflow

// NewRing returns a timing-only Ring ORAM controller (no data movement;
// every access still returns its exact physical operation list).
func NewRing(cfg ORAMConfig, seed uint64) (*Ring, error) {
	return oram.NewRing(cfg, seed, nil)
}

// NewFunctionalRing returns a Ring ORAM controller that moves real data
// through an encrypted in-memory store under the given 16-byte AES key.
// Seal nonces are tree positions, so the key must seal no other Ring:
// two Rings under one key expose each other's plaintexts.
func NewFunctionalRing(cfg ORAMConfig, seed uint64, key []byte) (*Ring, error) {
	crypt, err := oram.NewCrypt(key, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	return oram.NewRing(cfg, seed, &oram.Options{
		Store: oram.NewMemStore(cfg.SlotsPerBucket()),
		Crypt: crypt,
	})
}

// NewPathORAM returns a Path ORAM baseline controller with Z-slot
// buckets; pass a nil options for timing-only mode.
func NewPathORAM(z, levels, blockSize, stashSize int, seed uint64, opts *RingOptions) (*PathORAM, error) {
	return oram.NewPath(z, levels, blockSize, stashSize, seed, opts)
}

// LoadRing restores a Ring from a checkpoint written by Ring.Save. For
// encrypted checkpoints, key must be the original 16-byte AES key; pass
// nil for timing-only checkpoints. Rekey the restored Ring before it
// serves unless it is the only copy of the checkpoint ever to serve on.
func LoadRing(r io.Reader, key []byte) (*Ring, error) {
	return oram.Load(r, key)
}

// Workload types.
type (
	// Trace is a named memory-access trace.
	Trace = trace.Trace
	// TraceProfile parameterizes the synthetic trace generator.
	TraceProfile = trace.Profile
)

// WorkloadSuite returns the paper's Table IV workload profiles.
func WorkloadSuite() []TraceProfile { return trace.Suite() }

// WorkloadByName looks up one Table IV profile.
func WorkloadByName(name string) (TraceProfile, error) { return trace.ByName(name) }

// GenerateTrace synthesizes a trace of n accesses from a profile.
func GenerateTrace(p TraceProfile, n int, seed uint64) (*Trace, error) {
	return trace.Generate(p, n, seed)
}

// Simulation types.
type (
	// SimOptions tunes one simulation run.
	SimOptions = sim.Options
	// SimResult carries the timing and statistics of one run.
	SimResult = sim.Result
)

// Simulate runs a trace through the full String ORAM system.
func Simulate(sys SystemConfig, tr *Trace, opts SimOptions) (*SimResult, error) {
	return sim.Run(sys, tr, opts)
}

// SimulateMix runs a heterogeneous multiprogrammed mix: one trace per
// core, repeating round-robin when fewer traces than cores.
func SimulateMix(sys SystemConfig, trs []*Trace, opts SimOptions) (*SimResult, error) {
	return sim.RunMulti(sys, trs, opts)
}

// Serving types (see internal/server for the obliviousness and
// backpressure contracts).
type (
	// Server is the sharded, batching ORAM key-value server. Each shard
	// owns one Ring confined to a single goroutine.
	Server = server.Server
	// ServerConfig parameterizes NewServer.
	ServerConfig = server.Config
	// ServerMetrics is a point-in-time server metrics snapshot.
	ServerMetrics = server.Metrics
	// ServerTCP exposes a Server over the length-prefixed wire protocol.
	ServerTCP = server.TCPServer
	// ServerClient is the stdlib-only TCP client for the wire protocol.
	ServerClient = server.Client
	// ServerRetryPolicy shapes exponential backoff with jitter for
	// retryable serving errors; the zero value uses sane defaults.
	ServerRetryPolicy = server.RetryPolicy
)

// Serving errors. ErrServerBacklog and ErrServerDeadline are retryable
// (see RetryableServerError); the rest are terminal for the request.
var (
	// ErrServerBacklog reports a full shard queue (backpressure).
	ErrServerBacklog = server.ErrBacklog
	// ErrServerDeadline reports a request that expired before serving.
	ErrServerDeadline = server.ErrDeadline
	// ErrServerClosed reports a request after Close began.
	ErrServerClosed = server.ErrClosed
	// ErrServerFull reports a shard at its key-capacity limit.
	ErrServerFull = server.ErrFull
)

// DefaultServerConfig returns a ready-to-use server configuration
// (4 shards, 12-level trees, queue depth 256, batch 32).
func DefaultServerConfig() ServerConfig { return server.Config{} }

// DefaultServerORAM returns the per-shard ORAM parameters for a tree of
// the given number of levels. Each shard caches every level but the
// bottom six as plaintext in process memory, at most 2 MiB per shard
// and never fewer than 6 levels where the tree has 9 or more (10 of 16
// levels, 11 from 17 levels up).
func DefaultServerORAM(levels int) ORAMConfig { return server.DefaultORAM(levels) }

// NewServer starts a sharded ORAM key-value server. When
// cfg.SnapshotDir holds a complete snapshot set, state is restored from
// it; Close writes a fresh set atomically.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewTCPServer wraps srv for serving over TCP; call Serve with a
// listener.
func NewTCPServer(srv *Server) *ServerTCP { return server.NewTCPServer(srv) }

// DialServer connects a wire-protocol client to a ServerTCP address.
func DialServer(addr string) (*ServerClient, error) { return server.Dial(addr) }

// DialServerRetry dials with exponential backoff and jitter, riding out
// a restarting daemon's connection-refused window.
func DialServerRetry(addr string, p ServerRetryPolicy) (*ServerClient, error) {
	return server.DialRetry(addr, p)
}

// RetryableServerError reports whether err is transient backpressure
// (backlog or deadline) that a client may retry.
func RetryableServerError(err error) bool { return server.Retryable(err) }

// Cluster types: internal/cluster grows the server from N
// goroutine-shards in one process to M nodes × N shards, with
// epoch-fenced shard placement, synchronous follower replication, and
// live shard handoff.
type (
	// ClusterNode is one cluster member: an embedded Server hosting the
	// shards the placement assigns it, plus replication and handoff.
	ClusterNode = cluster.Node
	// ClusterNodeConfig parameterizes NewClusterNode.
	ClusterNodeConfig = cluster.NodeConfig
	// ClusterPlacement is the epoch-fenced shard→node map.
	ClusterPlacement = cluster.Placement
	// ClusterNodeInfo names one cluster member (ID + address).
	ClusterNodeInfo = cluster.NodeInfo
	// ClusterRouter is the cluster-aware client: shard-addressed
	// routing, failover, and placement convergence.
	ClusterRouter = cluster.Router
)

// StaticPlacement builds the epoch-1 placement spreading shards
// round-robin over nodes, each shard's follower on the next node.
func StaticPlacement(shards int, nodes []ClusterNodeInfo) (*ClusterPlacement, error) {
	return cluster.Static(shards, nodes)
}

// NewClusterNode builds one cluster member; call its Serve with a
// listener bound to the node's placement address.
func NewClusterNode(cfg ClusterNodeConfig) (*ClusterNode, error) { return cluster.NewNode(cfg) }

// DialCluster bootstraps a cluster-aware router from any live node.
func DialCluster(seedAddr string) (*ClusterRouter, error) { return cluster.DialCluster(seedAddr) }

// Experiment types.
type (
	// Experiments regenerates the paper's tables and figures.
	Experiments = experiments.Runner
	// ExperimentScale sizes the simulated experiment runs.
	ExperimentScale = experiments.Scale
)

// QuickScale is the smoke-run scale (every experiment in ~5 s).
func QuickScale() ExperimentScale { return experiments.Quick() }

// FullScale is the scale used for EXPERIMENTS.md (every experiment in
// ~35 s on two cores).
func FullScale() ExperimentScale { return experiments.Full() }

// NewExperiments returns an experiment runner at the given scale.
func NewExperiments(s ExperimentScale) *Experiments { return experiments.NewRunner(s) }
