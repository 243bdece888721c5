package server

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"stringoram/internal/obs"
)

// TestServerObsExposition drives traffic through a server built on a
// caller registry and checks that the serving counters, per-shard ring
// instruments, and queue-depth gauges all land in a valid Prometheus
// exposition with values consistent with Metrics().
func TestServerObsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs = reg
	s := mustNew(t, cfg)
	defer s.Close()

	for i := 0; i < 40; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, _, err := s.Get(fmt.Sprintf("key-%d", i%50)); err != nil {
			t.Fatal(err)
		}
	}

	if s.Obs() != reg {
		t.Fatal("Obs() should return the configured registry")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("server exposition does not validate: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		`server_requests_total{shard="0",op="get"}`,
		`server_requests_total{shard="0",op="put"}`,
		`server_batches_total{shard="1"}`,
		`server_queue_depth{shard="2"}`,
		`server_oram_accesses_total{shard="3"}`,
		`oram_stash_blocks{shard="0"}`,
		`oram_accesses_total{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	m := s.Metrics()
	if m.Gets != 40 || m.Puts != 40 {
		t.Fatalf("Metrics gets/puts = %d/%d, want 40/40", m.Gets, m.Puts)
	}
	if m.ORAMAccesses != 80 {
		t.Fatalf("ORAMAccesses = %d, want 80", m.ORAMAccesses)
	}
	if m.LatencySamples != 80 {
		t.Fatalf("LatencySamples = %d, want 80", m.LatencySamples)
	}
	if m.P50Seconds <= 0 || m.P99Seconds < m.P50Seconds {
		t.Fatalf("implausible latency percentiles: p50=%v p99=%v", m.P50Seconds, m.P99Seconds)
	}
}

// TestMetricsScrapeAllocBound: Metrics() merges the shards' latency
// buckets into a fixed-size array, so it allocates only the QueueDepths
// slice it returns however much traffic the histograms hold.
func TestMetricsScrapeAllocBound(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Close()
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		m := s.Metrics()
		if m.Puts == 0 {
			t.Fatal("metrics vanished")
		}
	}); n > 2 {
		t.Fatalf("Metrics allocates %.1f times per scrape, want <= 2 (QueueDepths only)", n)
	}
}

// TestMetricsQuantilesMatchExposition: there is one latency-quantile
// source. The percentiles Metrics() reports equal the quantiles
// recomputed from the server_request_seconds_bucket lines the same
// server exposes to Prometheus, and LatencySamples is their total.
func TestMetricsQuantilesMatchExposition(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Close()
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i%40)
		if err := s.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()

	// Sum the shards' cumulative buckets per le, then difference them
	// back into per-bucket counts.
	cum := make(map[float64]uint64)
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "server_request_seconds_bucket{")
		if !ok {
			continue
		}
		_, rest, _ = strings.Cut(rest, `le="`)
		leText, val, _ := strings.Cut(rest, `"} `)
		le := math.Inf(1)
		if leText != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leText, 64); err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("bad bucket count in %q: %v", line, err)
		}
		cum[le] += n
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	counts := make([]uint64, len(bounds))
	var prev uint64
	for i, le := range bounds {
		counts[i] = cum[le] - prev
		prev = cum[le]
	}
	bounds = bounds[:len(bounds)-1] // +Inf is implicit
	if prev != 600 || m.LatencySamples != 600 {
		t.Fatalf("exposition counts %d requests, Metrics %d, want 600", prev, m.LatencySamples)
	}
	for _, c := range []struct {
		name string
		q    float64
		got  float64
	}{{"p50", 0.5, m.P50Seconds}, {"p95", 0.95, m.P95Seconds}, {"p99", 0.99, m.P99Seconds}} {
		if want := obs.Quantile(bounds, counts, c.q); c.got != want || c.got <= 0 {
			t.Errorf("Metrics %s = %g, exposition buckets give %g", c.name, c.got, want)
		}
	}
	if m.P50Seconds > m.P95Seconds || m.P95Seconds > m.P99Seconds {
		t.Errorf("percentiles not ordered: %g %g %g", m.P50Seconds, m.P95Seconds, m.P99Seconds)
	}
}

// TestServerPrivateRegistry checks a server built without Config.Obs
// still counts (on its private registry), keeping the Metrics API
// behavior identical for callers that never touch obs.
func TestServerPrivateRegistry(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Close()
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Puts != 1 {
		t.Fatalf("Puts = %d, want 1", m.Puts)
	}
	if s.Obs() == nil {
		t.Fatal("private registry should exist")
	}
	var buf bytes.Buffer
	if err := s.Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `server_requests_total{shard=`) {
		t.Fatal("private registry missing serving counters")
	}
}
