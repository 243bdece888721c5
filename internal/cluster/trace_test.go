package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"stringoram/internal/obs"
	"stringoram/internal/server"
)

// startClusterTraced is startCluster with tracing fully armed on every
// node: sample-everything head sampling, so traced requests produce
// serve, forward, and replicate spans.
func startClusterTraced(t *testing.T, nodeCount, shardCount int) *testCluster {
	t.Helper()
	return startClusterWith(t, nodeCount, shardCount, 8, func(cfg *server.Config) {
		cfg.TraceSample = 1
	})
}

// foreignKey returns a key whose shard's primary is not nodeID.
func foreignKey(t *testing.T, p *Placement, nodeID string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("traced-%d", i)
		prim, err := p.PrimaryOf(server.ShardOf(key, p.Shards))
		if err != nil {
			t.Fatal(err)
		}
		if prim.ID != nodeID {
			return key
		}
	}
	t.Fatal("no foreign key found")
	return ""
}

// perfettoDoc is the slice of the Perfetto JSON schema the stitched
// trace assertions need.
type perfettoDoc struct {
	TraceEvents []perfettoEvent `json:"traceEvents"`
}

type perfettoEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Args struct {
		Name   string `json:"name"`
		Trace  string `json:"trace"`
		Span   string `json:"span"`
		Parent string `json:"parent"`
	} `json:"args"`
}

// TestClusterStitchedForwardTrace is the tentpole acceptance test: one
// traced put entering the cluster through the wrong node must come back
// out of ClusterTrace as a single stitched Perfetto trace whose spans
// cover at least two nodes — the relay's forward hop, the owner's serve
// span, the replication hop, and the follower's apply — all stitched by
// parent links into one tree.
func TestClusterStitchedForwardTrace(t *testing.T) {
	tc := startClusterTraced(t, 3, 6)

	// Dial node-0 directly (not through the router) so the op must be
	// forwarded server-side to its owner.
	c, err := server.Dial(tc.placement.Nodes[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := obs.NewTraceSource(0x5eed).NewTrace()
	key := foreignKey(t, tc.placement, "node-0")
	if err := c.PutCtx(ctx, key, []byte("traced-value")); err != nil {
		t.Fatalf("traced forwarded put: %v", err)
	}

	var buf bytes.Buffer
	if err := tc.nodes[0].ClusterTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("stitched trace is not valid JSON: %v\n%s", err, buf.String())
	}

	procs := make(map[int]string)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid] = ev.Args.Name
		}
	}
	if len(procs) != 3 {
		t.Fatalf("stitched trace names %d processes, want 3: %v", len(procs), procs)
	}

	traceID := fmt.Sprintf("%016x%016x", ctx.Hi, ctx.Lo)
	nodesHit := make(map[string]bool)
	kinds := make(map[string]int)
	spanOwner := make(map[string]string) // span ID -> node, for parent stitching
	var ours []perfettoEvent
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args.Trace != traceID {
			continue
		}
		ours = append(ours, ev)
		nodesHit[procs[ev.Pid]] = true
		kinds[ev.Name]++
		if ev.Dur < 1 {
			t.Fatalf("span %+v has zero width; Perfetto would hide it", ev)
		}
		if ev.Args.Span != strings.Repeat("0", 16) {
			spanOwner[ev.Args.Span] = procs[ev.Pid]
		}
	}
	if len(nodesHit) < 2 {
		t.Fatalf("trace %s covers nodes %v, want >= 2 (events: %+v)", traceID, nodesHit, ours)
	}
	for _, want := range []string{"forward", "serve_put", "replicate", "serve_apply"} {
		if kinds[want] == 0 {
			t.Errorf("stitched trace missing a %s span (kinds: %v)", want, kinds)
		}
	}
	// Every non-root span's parent must exist in the trace — one
	// connected tree, with cross-node edges landing on real spans.
	crossNode := 0
	for _, ev := range ours {
		if ev.Args.Parent == strings.Repeat("0", 16) {
			continue
		}
		if ev.Args.Parent == fmt.Sprintf("%016x", ctx.SpanID) {
			continue // parented on the client's root context (lives outside the cluster)
		}
		owner, ok := spanOwner[ev.Args.Parent]
		if !ok {
			t.Fatalf("span %+v parented on %s, which is not in the trace", ev, ev.Args.Parent)
		}
		if owner != procs[ev.Pid] {
			crossNode++
		}
	}
	if crossNode == 0 {
		t.Fatal("no cross-node parent-child edge; the per-node clocks cannot be aligned")
	}
}

// TestClusterMetricsFederation checks /cluster/metrics' backing method:
// the merged exposition must validate, carry per-node relabelled
// series, surface the new replication-lag and handoff instruments, and
// degrade a dead peer to cluster_node_up 0 rather than an error.
func TestClusterMetricsFederation(t *testing.T) {
	tc := startCluster(t, 3, 6)
	r := tc.router()
	for i := 0; i < 24; i++ {
		if err := r.Put(fmt.Sprintf("fed-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := tc.nodes[0].ClusterMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("federated exposition does not validate: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		`cluster_node_up{node="node-0"} 1`,
		`cluster_node_up{node="node-1"} 1`,
		`cluster_node_up{node="node-2"} 1`,
		`cluster_replication_lag_entries{shard="0"}`,
		`cluster_replication_lag_us{shard="0",node="node-1"}`,
		`cluster_handoff_progress_percent`,
		`server_requests_total{shard="0",op="put",node="`,
		`cluster_replicated_entries_total `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated exposition missing %q", want)
		}
	}

	// A dead peer degrades to node_up 0; the merge still succeeds.
	tc.kill(2)
	buf.Reset()
	if err := tc.nodes[0].ClusterMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("post-kill federated exposition does not validate: %v", err)
	}
	if !strings.Contains(buf.String(), `cluster_node_up{node="node-2"} 0`) {
		t.Fatal("killed peer not marked down in the federated exposition")
	}
}

// TestClusterScrapeUnderLoad is the obs-race gate's workload: node and
// cluster scrapes (metrics and traces) run concurrently with traced
// client traffic. Run under -race it proves the whole telemetry plane
// is data-race free; the assertions keep it honest as a plain test.
func TestClusterScrapeUnderLoad(t *testing.T) {
	tc := startClusterTraced(t, 3, 6)

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r, err := DialCluster(tc.placement.Nodes[w%3].Addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer r.Close()
			r.Retry = server.RetryPolicy{MaxAttempts: 40, MaxDelay: 100 * time.Millisecond}
			r.EnableTracing(uint64(w)+1, 2)
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("scrape-%d-%d", w, i)
				if err := r.Put(key, []byte("v")); err != nil {
					errs[w] = fmt.Errorf("put %s: %w", key, err)
					return
				}
				if _, _, err := r.Get(key); err != nil {
					errs[w] = fmt.Errorf("get %s: %w", key, err)
					return
				}
			}
		}(w)
	}

	var scrapeWG sync.WaitGroup
	scrapeErr := make(chan error, 1)
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		var buf bytes.Buffer
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := tc.nodes[i%3]
			buf.Reset()
			if err := n.Server().Obs().WritePrometheus(&buf); err != nil {
				scrapeErr <- fmt.Errorf("node scrape: %w", err)
				return
			}
			if err := obs.ValidateExposition(buf.Bytes()); err != nil {
				scrapeErr <- fmt.Errorf("node exposition invalid under load: %w", err)
				return
			}
			buf.Reset()
			if err := n.ClusterMetrics(&buf); err != nil {
				scrapeErr <- fmt.Errorf("cluster scrape: %w", err)
				return
			}
			buf.Reset()
			if err := n.ClusterTrace(&buf); err != nil {
				scrapeErr <- fmt.Errorf("cluster trace: %w", err)
				return
			}
			if !json.Valid(buf.Bytes()) {
				scrapeErr <- fmt.Errorf("cluster trace invalid JSON under load")
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestClusterChaosSLO is the SLO chaos gate: after one node fail-stops
// mid-load, the surviving nodes' post-kill latency objective (p99 under
// a generous in-process bound) must hold — Reset() windows the verdict
// to post-fault traffic only, so failover hiccups before the reset
// never excuse a degraded steady state after it.
func TestClusterChaosSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real concurrency")
	}
	tc := startClusterLevels(t, 3, 6, 11)

	slo := obs.NewSLO()
	for _, i := range []int{0, 2} { // the survivors
		srv := tc.nodes[i].Server()
		slo.Add(srv.Obs(), obs.Objective{
			Name:      fmt.Sprintf("p99_latency_node_%d", i),
			Hists:     srv.LatencyHistograms(),
			Quantile:  0.99,
			Threshold: 1.0, // seconds; generous for loopback, still catches a stall
		})
	}

	load := func(ops int) {
		const workers = 16
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r, err := DialCluster(tc.placement.Nodes[(w%2)*2].Addr) // survivors only
				if err != nil {
					t.Errorf("worker %d dial: %v", w, err)
					return
				}
				defer r.Close()
				r.Retry = server.RetryPolicy{MaxAttempts: 40, MaxDelay: 100 * time.Millisecond}
				for i := 0; i < ops; i++ {
					key := fmt.Sprintf("slo-%d-%d", w, i)
					if err := r.Put(key, []byte("v")); err != nil {
						t.Errorf("put %s: %v", key, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	load(10) // pre-fault traffic, outside the judged window
	tc.kill(1)
	slo.Reset()
	load(20) // the judged window: post-kill serving on the survivors

	v := slo.Evaluate()
	if len(v.Objectives) != 2 {
		t.Fatalf("evaluated %d objectives, want 2", len(v.Objectives))
	}
	for _, ov := range v.Objectives {
		if ov.Total == 0 {
			t.Fatalf("objective %s saw no post-kill traffic; the gate judged nothing", ov.Name)
		}
		if !ov.OK {
			t.Fatalf("objective %s violated after failover: burn=%.2f bad=%.4f over %v requests",
				ov.Name, ov.Burn, ov.BadFraction, ov.Total)
		}
	}
	if !v.OK {
		t.Fatal("post-kill SLO verdict not OK")
	}

	// The burn gauges ride the normal exposition (and thus federation).
	var buf bytes.Buffer
	if err := tc.nodes[0].Server().Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `slo_budget_burn{objective="p99_latency_node_0"}`) {
		t.Fatal("burn gauge missing from the exposition")
	}
}
