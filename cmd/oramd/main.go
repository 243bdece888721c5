// Command oramd is the ORAM key-value daemon: a sharded, batching
// server (internal/server via the stringoram facade) speaking the
// length-prefixed binary wire protocol over TCP, with an optional HTTP
// metrics endpoint and snapshot-based persistence.
//
// Usage:
//
//	oramd [flags]
//
// Flags:
//
//	-addr host:port      TCP listen address (default 127.0.0.1:9736)
//	-metrics host:port   HTTP metrics address; GET /metrics returns the
//	                     Prometheus text exposition, /debug/trace this
//	                     node's distributed-trace spans as a Chrome
//	                     trace-event document (load in Perfetto), and
//	                     /debug/pprof/ runtime profiles (empty disables
//	                     all of them)
//	-shards N            ORAM instances / worker goroutines (default 4)
//	-levels N            tree levels per shard (default 12)
//	-queue N             per-shard queue depth (default 256)
//	-batch N             max requests drained per worker wakeup (default 32)
//	-seed N              master seed for per-shard protocol randomness
//	-snapshots DIR       snapshot directory: restore on boot, save on
//	                     shutdown (empty disables persistence)
//	-timeout D           default per-request deadline (0 disables)
//	-key HEX             16-byte AES key (hex) sealing block contents
//	-trace-sample N      distributed tracing: record ~1/N of requests
//	                     end to end (power of two; 1 traces everything,
//	                     0 disables)
//	-slo-p99 D           p99 latency objective; /healthz on the metrics
//	                     listener answers 200/503 with the error-budget
//	                     burn (0 disables)
//
// Cluster flags (multi-node mode; see DESIGN.md "Cluster"):
//
//	-cluster             serve as one member of a multi-node cluster
//	-node-id ID          this node's identity (must appear in -peers)
//	-peers LIST          comma-separated id=host:port pairs naming every
//	                     cluster member, this node included
//	-cluster-shards N    global shard count spread over the peers
//	                     (default: -shards × number of peers)
//
// In cluster mode -shards is ignored (the placement decides which
// shards this node hosts), every member must be started with identical
// -peers and -cluster-shards, and the metrics listener additionally
// serves the node's placement table on /cluster/placement, the merged
// cluster-wide Prometheus exposition (per-node series labelled
// node="id") on /cluster/metrics, and the stitched multi-node Perfetto
// trace on /cluster/trace.
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, drain
// every queued request, then snapshot each shard atomically — on-disk
// state is either the complete new snapshot or the previous one, never
// a torn write.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stringoram"
	"stringoram/internal/obs"
)

// notifyListening, when set (tests), receives the resolved TCP address
// once the listener is up.
var notifyListening func(addr string)

// metricsMux builds the operator HTTP surface: Prometheus text on
// /metrics, this node's span ring as a Perfetto-ready trace on
// /debug/trace, pprof, the SLO verdict on /healthz (with -slo-p99), and
// (in cluster mode) the /cluster/ endpoints. Every path it registers is
// named in the package doc. It rides on the -metrics listener only, so
// none of it is exposed unless the operator opts in.
func metricsMux(srv *stringoram.Server, node *stringoram.ClusterNode, slo *obs.SLO) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.PrometheusHandler(srv.Obs()))
	mux.HandleFunc("/debug/trace", func(rw http.ResponseWriter, _ *http.Request) {
		name := "oramd"
		if node != nil {
			name = node.ID()
		}
		rw.Header().Set("Content-Type", "application/json")
		obs.MergeTraces(rw, []obs.NodeTrace{{Node: name, Spans: srv.Tracer().Snapshot(nil)}})
	})
	if slo != nil {
		mux.Handle("/healthz", slo.Handler())
	}
	if node != nil {
		mux.HandleFunc("/cluster/placement", func(rw http.ResponseWriter, _ *http.Request) {
			data, err := node.PlacementJSON()
			if err != nil {
				http.Error(rw, err.Error(), http.StatusInternalServerError)
				return
			}
			rw.Header().Set("Content-Type", "application/json")
			rw.Write(data)
		})
		mux.HandleFunc("/cluster/metrics", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := node.ClusterMetrics(rw); err != nil {
				http.Error(rw, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/cluster/trace", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "application/json")
			if err := node.ClusterTrace(rw); err != nil {
				http.Error(rw, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parsePeers decodes -peers ("id=host:port,id=host:port,...").
func parsePeers(list string) ([]stringoram.ClusterNodeInfo, error) {
	var nodes []stringoram.ClusterNodeInfo
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("-peers: %q is not id=host:port", part)
		}
		nodes = append(nodes, stringoram.ClusterNodeInfo{ID: id, Addr: addr})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-peers: no peers given")
	}
	return nodes, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oramd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("oramd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9736", "TCP listen address")
	metricsAddr := fs.String("metrics", "", "HTTP metrics listen address (empty disables)")
	shards := fs.Int("shards", 4, "number of ORAM shards")
	levels := fs.Int("levels", 12, "ORAM tree levels per shard")
	queue := fs.Int("queue", 256, "per-shard request queue depth")
	batch := fs.Int("batch", 32, "max requests per worker batch")
	seed := fs.Uint64("seed", 1, "master protocol seed")
	snapdir := fs.String("snapshots", "", "snapshot directory (restore on boot, save on shutdown)")
	timeout := fs.Duration("timeout", 2*time.Second, "default per-request deadline (0 disables)")
	keyHex := fs.String("key", "", "16-byte AES master key in hex for sealed block storage (each shard derives its own)")
	traceSample := fs.Uint64("trace-sample", 0, "distributed-tracing sample rate: keep ~1/N traced requests (power of two; 1: all, 0: off)")
	sloP99 := fs.Duration("slo-p99", 0, "p99 request-latency objective served on /healthz (0 disables)")
	clusterMode := fs.Bool("cluster", false, "serve as one member of a multi-node cluster")
	nodeID := fs.String("node-id", "", "this node's identity in -peers (cluster mode)")
	peers := fs.String("peers", "", "comma-separated id=host:port cluster members (cluster mode)")
	clusterShards := fs.Int("cluster-shards", 0, "global shard count over the cluster (0: -shards per peer)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := stringoram.DefaultServerConfig()
	cfg.Shards = *shards
	cfg.ORAM = stringoram.DefaultServerORAM(*levels)
	cfg.QueueDepth = *queue
	cfg.MaxBatch = *batch
	cfg.Seed = *seed
	cfg.SnapshotDir = *snapdir
	cfg.DefaultTimeout = *timeout
	cfg.TraceSample = *traceSample
	if *keyHex != "" {
		key, err := hex.DecodeString(*keyHex)
		if err != nil {
			return fmt.Errorf("-key: %w", err)
		}
		cfg.Key = key
	}

	var (
		srv        *stringoram.Server
		node       *stringoram.ClusterNode
		tcp        *stringoram.ServerTCP
		listenAddr = *addr
	)
	if *clusterMode {
		nodes, err := parsePeers(*peers)
		if err != nil {
			return err
		}
		if *nodeID == "" {
			return fmt.Errorf("-cluster requires -node-id")
		}
		total := *clusterShards
		if total == 0 {
			total = *shards * len(nodes)
		}
		placement, err := stringoram.StaticPlacement(total, nodes)
		if err != nil {
			return err
		}
		idx := placement.NodeIndex(*nodeID)
		if idx < 0 {
			return fmt.Errorf("-node-id %q is not in -peers", *nodeID)
		}
		node, err = stringoram.NewClusterNode(stringoram.ClusterNodeConfig{
			ID:        *nodeID,
			Placement: placement,
			Server:    cfg,
		})
		if err != nil {
			return err
		}
		srv, tcp = node.Server(), node.TCP()
		// The node must listen where the placement says it lives, or the
		// peers and routers cannot reach it.
		listenAddr = placement.Nodes[idx].Addr
	} else {
		var err error
		srv, err = stringoram.NewServer(cfg)
		if err != nil {
			return err
		}
		tcp = stringoram.NewTCPServer(srv)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		srv.Close()
		return err
	}
	if node != nil {
		fmt.Fprintf(w, "oramd: cluster node %s hosting %d of %d shards, serving on %s\n",
			*nodeID, len(srv.HostedShards()), srv.TotalShards(), ln.Addr())
	} else {
		fmt.Fprintf(w, "oramd: %d shards, %d-level trees, serving on %s\n", *shards, *levels, ln.Addr())
	}
	if notifyListening != nil {
		notifyListening(ln.Addr().String())
	}

	var slo *obs.SLO
	if *sloP99 > 0 {
		slo = obs.NewSLO()
		slo.Add(srv.Obs(), obs.Objective{
			Name:      "p99_latency",
			Hists:     srv.LatencyHistograms(),
			Quantile:  0.99,
			Threshold: sloP99.Seconds(),
		})
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mux := metricsMux(srv, node, slo)
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("-metrics: %w", err)
		}
		fmt.Fprintf(w, "oramd: metrics on http://%s/metrics (traces on /debug/trace, pprof on /debug/pprof/)\n", mln.Addr())
		metricsSrv = &http.Server{Handler: mux}
		go metricsSrv.Serve(mln)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- tcp.Serve(ln) }()

	var runErr error
	select {
	case <-ctx.Done():
		fmt.Fprintln(w, "oramd: signal received, draining")
		// The metrics listener drains alongside the TCP server: a
		// graceful stop must release both ports, and an in-flight scrape
		// gets its response before the process exits.
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if metricsSrv != nil {
			metricsSrv.Shutdown(sctx)
		}
		tcp.Shutdown(sctx)
		cancel()
		<-serveErr
	case runErr = <-serveErr:
		if metricsSrv != nil {
			mctx, cancel := context.WithTimeout(context.Background(), time.Second)
			metricsSrv.Shutdown(mctx)
			cancel()
		}
	}
	// Close drains in-flight work and, when -snapshots is set, commits
	// one atomic snapshot per shard; in cluster mode it also drops the
	// replication links to the peers.
	var closeErr error
	if node != nil {
		closeErr = node.Close()
	} else {
		closeErr = srv.Close()
	}
	if closeErr != nil {
		if runErr == nil {
			runErr = closeErr
		}
	} else if *snapdir != "" {
		fmt.Fprintf(w, "oramd: snapshots committed to %s\n", *snapdir)
	}
	if runErr == nil {
		fmt.Fprintln(w, "oramd: shutdown complete")
	}
	return runErr
}
