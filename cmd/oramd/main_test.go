package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"stringoram"
	"stringoram/internal/obs"
)

// startDaemon runs the daemon in-process on an ephemeral port and
// returns its address, a cancel func (simulated SIGINT), and a channel
// carrying run's error after shutdown.
func startDaemon(t *testing.T, args []string) (addr string, stop context.CancelFunc, done chan error, out *bytes.Buffer) {
	t.Helper()
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	} else {
		ln.Close()
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	notifyListening = func(a string) { addrCh <- a }
	t.Cleanup(func() { notifyListening = nil })

	out = &bytes.Buffer{}
	sw := &syncWriter{buf: out}
	done = make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), sw)
	}()
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never started listening")
	}
	return addr, cancel, done, out
}

// reserveListeners opens n loopback listeners and returns their
// addresses. It keeps them open and hands each to the daemon through
// listen when the daemon binds its address, so the ports stay held
// from reservation to use; any the daemon never takes close at cleanup.
func reserveListeners(t *testing.T, n int) []string {
	t.Helper()
	var mu sync.Mutex
	held := make(map[string]net.Listener)
	t.Cleanup(func() {
		listen = net.Listen
		for _, ln := range held {
			ln.Close()
		}
	})
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		addrs[i] = ln.Addr().String()
		held[addrs[i]] = ln
	}
	listen = func(network, addr string) (net.Listener, error) {
		mu.Lock()
		ln, ok := held[addr]
		delete(held, addr)
		mu.Unlock()
		if ok {
			return ln, nil
		}
		return net.Listen(network, addr)
	}
	return addrs
}

// syncWriter makes the daemon's log buffer safe to read after shutdown
// while run is still writing from the test goroutine.
type syncWriter struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// sumSeries adds up the values of every exposition sample whose line
// starts with prefix.
func sumSeries(t *testing.T, exposition []byte, prefix string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(string(exposition), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

func waitShutdown(t *testing.T, stop context.CancelFunc, done chan error) {
	t.Helper()
	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonKillRestart writes through the wire, simulates a SIGINT,
// restarts against the same snapshot directory, and verifies every
// acknowledged write is readable.
func TestDaemonKillRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-shards", "2", "-levels", "8", "-seed", "7", "-snapshots", dir}

	addr, stop, done, _ := startDaemon(t, args)
	c, err := stringoram.DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	retry := stringoram.ServerRetryPolicy{MaxAttempts: 50}
	for i := 0; i < n; i++ {
		key, val := fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)
		if err := c.PutRetry(key, []byte(val), retry); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	c.Close()
	waitShutdown(t, stop, done)

	addr, stop, done, out := startDaemon(t, args)
	c, err = stringoram.DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		key, want := fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)
		got, found, err := c.Get(key)
		if err != nil || !found || string(got) != want {
			t.Fatalf("after restart Get(%s) = %q found=%v err=%v", key, got, found, err)
		}
	}
	body, err := c.ScrapeMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if keys := sumSeries(t, body, "server_keys{"); keys != n {
		t.Fatalf("restored key count = %v, want %d", keys, n)
	}
	c.Close()
	waitShutdown(t, stop, done)
	if !strings.Contains(out.String(), "snapshots committed") {
		t.Fatalf("shutdown log missing snapshot confirmation:\n%s", out.String())
	}
}

func TestDaemonBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-key", "zz"}, &bytes.Buffer{}); err == nil {
		t.Fatal("invalid -key accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, &bytes.Buffer{}); err == nil {
		t.Fatal("invalid -addr accepted")
	}
}

// TestMetricsMuxEndpoints exercises the operator HTTP surface directly:
// /metrics must speak the Prometheus text exposition (correct status,
// content type, and a line-by-line parse) and /debug/trace must be a
// Chrome trace document holding the node's serve spans. It then holds
// the package doc to the mux: every path the doc names answers with
// something other than 404, and every path metricsMux registers is
// named there (a doc path ending in "/" names its subtree).
func TestMetricsMuxEndpoints(t *testing.T) {
	cfg := stringoram.DefaultServerConfig()
	cfg.Shards = 2
	cfg.ORAM = stringoram.DefaultServerORAM(8)
	cfg.Seed = 3
	cfg.TraceSample = 1
	srv, err := stringoram.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	src := obs.NewTraceSource(5)
	for i := 0; i < 10; i++ {
		if err := srv.PutCtx(src.NewTrace(), fmt.Sprintf("k%d", i), []byte("v"), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(metricsMux(srv, nil, nil))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, obs.ContentType)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics body does not parse as Prometheus text: %v\n%s", err, body)
	}
	for _, want := range []string{
		`server_requests_total{shard="0",op="put"}`,
		`oram_accesses_total{shard="1"}`,
		"server_queue_depth",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/trace decode: %v", err)
	}
	serves := 0
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "serve_put" {
			serves++
		}
	}
	if serves != 10 {
		t.Fatalf("/debug/trace holds %d serve_put spans, want 10", serves)
	}

	// The doc drift check needs every optional endpoint mounted: a
	// one-node cluster and an SLO.
	placement, err := stringoram.StaticPlacement(2, []stringoram.ClusterNodeInfo{{ID: "a", Addr: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	node, err := stringoram.NewClusterNode(stringoram.ClusterNodeConfig{ID: "a", Placement: placement, Server: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	slo := obs.NewSLO()
	slo.Add(node.Server().Obs(), obs.Objective{Name: "p99_latency", Hists: node.Server().LatencyHistograms(), Quantile: 0.99, Threshold: 1})
	full := httptest.NewServer(metricsMux(node.Server(), node, slo))
	defer full.Close()

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile(`(?m)(?:^|[\s(])(/[a-z][a-z0-9_./-]*)`).FindAllStringSubmatch(f.Doc.Text(), -1) {
		documented = append(documented, strings.TrimRight(m[1], ".,"))
	}
	if len(documented) == 0 {
		t.Fatal("package doc names no HTTP path")
	}
	for _, path := range documented {
		resp, err := http.Get(full.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("package doc names %s, which answers 404", path)
		}
	}
	source, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	registered := regexp.MustCompile(`mux\.Handle(?:Func)?\("([^"]+)"`).FindAllSubmatch(source, -1)
	if len(registered) == 0 {
		t.Fatal("found no mux.Handle calls in main.go")
	}
	for _, m := range registered {
		path := string(m[1])
		if !slices.ContainsFunc(documented, func(d string) bool {
			return d == path || strings.HasSuffix(d, "/") && strings.HasPrefix(path, d)
		}) {
			t.Errorf("metricsMux registers %s, which the package doc does not name", path)
		}
	}
}

// TestDaemonClusterThreeNodes boots a three-node cluster through the
// daemon's flag surface, routes traffic with the cluster-aware client,
// and checks the placement table the metrics listener exposes.
func TestDaemonClusterThreeNodes(t *testing.T) {
	reserved := reserveListeners(t, 4)
	addrs, maddr := reserved[:3], reserved[3]
	peersFlag := fmt.Sprintf("n0=%s,n1=%s,n2=%s", addrs[0], addrs[1], addrs[2])

	stops := make([]context.CancelFunc, 3)
	dones := make([]chan error, 3)
	for i := 0; i < 3; i++ {
		args := []string{
			"-cluster", "-node-id", fmt.Sprintf("n%d", i), "-peers", peersFlag,
			"-shards", "2", "-levels", "8", "-seed", "11",
		}
		if i == 0 {
			args = append(args, "-metrics", maddr)
		}
		var got string
		got, stops[i], dones[i], _ = startDaemon(t, args)
		if got != addrs[i] {
			t.Fatalf("node %d listening on %s, placement says %s", i, got, addrs[i])
		}
	}

	r, err := stringoram.DialCluster(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	for i := 0; i < n; i++ {
		if err := r.Put(fmt.Sprintf("ck-%d", i), []byte(fmt.Sprintf("cv-%d", i))); err != nil {
			t.Fatalf("cluster put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got, found, err := r.Get(fmt.Sprintf("ck-%d", i))
		if err != nil || !found || string(got) != fmt.Sprintf("cv-%d", i) {
			t.Fatalf("cluster get %d = %q found=%v err=%v", i, got, found, err)
		}
	}
	if p := r.Placement(); p.Shards != 6 {
		t.Fatalf("router placement shards = %d, want 6 (2 per node)", p.Shards)
	}
	r.Close()

	resp, err := http.Get("http://" + maddr + "/cluster/placement")
	if err != nil {
		t.Fatal(err)
	}
	var p stringoram.ClusterPlacement
	err = json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/cluster/placement decode: %v", err)
	}
	if p.Shards != 6 || len(p.Nodes) != 3 {
		t.Fatalf("/cluster/placement = %d shards over %d nodes, want 6 over 3", p.Shards, len(p.Nodes))
	}

	for i := 2; i >= 0; i-- {
		waitShutdown(t, stops[i], dones[i])
	}
}

// TestDaemonClusterBadFlags pins the cluster-flag validation paths.
func TestDaemonClusterBadFlags(t *testing.T) {
	base := []string{"-cluster", "-peers", "a=127.0.0.1:1,b=127.0.0.1:2"}
	if err := run(context.Background(), base, &bytes.Buffer{}); err == nil {
		t.Fatal("-cluster without -node-id accepted")
	}
	if err := run(context.Background(), append(base, "-node-id", "zz"), &bytes.Buffer{}); err == nil {
		t.Fatal("-node-id outside -peers accepted")
	}
	if err := run(context.Background(), []string{"-cluster", "-node-id", "a", "-peers", "garbage"}, &bytes.Buffer{}); err == nil {
		t.Fatal("malformed -peers accepted")
	}
	if err := run(context.Background(), []string{"-cluster", "-node-id", "a", "-peers", ""}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty -peers accepted")
	}
}

// TestDaemonMetricsDrain boots the daemon with a metrics listener,
// scrapes it, then verifies the graceful drain shuts that listener down
// (connections are refused after shutdown completes).
func TestDaemonMetricsDrain(t *testing.T) {
	maddr := reserveListeners(t, 1)[0]

	addr, stop, done, _ := startDaemon(t, []string{"-shards", "1", "-levels", "8", "-metrics", maddr})
	c, err := stringoram.DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	var resp *http.Response
	for i := 0; ; i++ {
		resp, err = http.Get("http://" + maddr + "/metrics")
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("metrics listener never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("daemon /metrics invalid: %v", err)
	}

	waitShutdown(t, stop, done)
	if _, err := http.Get("http://" + maddr + "/metrics"); err == nil {
		t.Fatal("metrics listener still serving after graceful drain")
	}
}
