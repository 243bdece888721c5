package server

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// pipelineServerConfig returns a small functional config; pipeline sets
// the per-shard in-flight depth (0 = serial).
func pipelineServerConfig(shards, pipeline int) Config {
	return Config{
		Shards:   shards,
		MaxBatch: 32,
		ORAM:     DefaultORAM(8),
		Seed:     42,
		Key:      []byte("pipeline-key-16B"),
		Pipeline: pipeline,
	}
}

// TestServerPipelineSerialEquivalence drives the same deterministic
// request sequence through a serial server and pipelined servers at
// several depths and requires identical responses and identical final
// protocol state: per-shard ORAM stats, bus traffic totals, and every
// stored value.
func TestServerPipelineSerialEquivalence(t *testing.T) {
	type step struct {
		put bool
		key string
		val []byte
	}
	var steps []step
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("key-%03d", (i*7)%96)
		if i%3 != 2 {
			steps = append(steps, step{put: true, key: key, val: []byte(fmt.Sprintf("v%04d-%s", i, key))})
		} else {
			steps = append(steps, step{key: key})
		}
	}
	run := func(pipeline int) (responses []string, stats string, srv *Server) {
		srv, err := New(pipelineServerConfig(4, pipeline))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			if st.put {
				if err := srv.Put(st.key, st.val); err != nil {
					t.Fatal(err)
				}
				responses = append(responses, "ok")
			} else {
				val, found, err := srv.Get(st.key)
				if err != nil {
					t.Fatal(err)
				}
				responses = append(responses, fmt.Sprintf("%v:%s", found, val))
			}
		}
		m := srv.Metrics()
		shardStats, err := srv.ShardStats()
		if err != nil {
			t.Fatal(err)
		}
		stats = fmt.Sprintf("oram=%d slots=%d shardStats=%+v", m.ORAMAccesses, m.SlotAccesses, shardStats)
		return responses, stats, srv
	}
	wantResp, wantStats, serialSrv := run(0)
	defer serialSrv.Close()
	for _, k := range []int{2, 8} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			gotResp, gotStats, srv := run(k)
			defer srv.Close()
			for i := range wantResp {
				if wantResp[i] != gotResp[i] {
					t.Fatalf("step %d: response %q, serial %q", i, gotResp[i], wantResp[i])
				}
			}
			if wantStats != gotStats {
				t.Fatalf("final protocol state diverged:\npipelined %s\nserial    %s", gotStats, wantStats)
			}
		})
	}
}

// TestServerPipelineSnapshotRoundTrip checks that a pipelined server's
// shutdown snapshot restores into a working server (the pipeline must be
// fully drained and detached before the checkpoint is written).
func TestServerPipelineSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := pipelineServerConfig(2, 8)
	cfg.SnapshotDir = dir
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := srv.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("val-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for i := 0; i < 64; i++ {
		val, found, err := srv2.Get(fmt.Sprintf("k%02d", i))
		if err != nil || !found {
			t.Fatalf("k%02d after restore: found=%v err=%v", i, found, err)
		}
		if want := fmt.Sprintf("val-%02d", i); string(val) != want {
			t.Fatalf("k%02d = %q, want %q", i, val, want)
		}
	}
}

// TestServerPipelineStress hammers a 4-shard, depth-8 pipelined server
// with 64 concurrent clients and verifies exactly-once delivery (every
// request returns exactly one response; none lost, none duplicated) and
// value integrity: every successful Get returns a value that some Put
// for that key wrote. Run with -race this is the concurrency gate for
// the server integration.
func TestServerPipelineStress(t *testing.T) {
	cfg := pipelineServerConfig(4, 8)
	cfg.QueueDepth = 1024
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		clients = 64
		perCli  = 50
		keys    = 48
	)
	var (
		wg        sync.WaitGroup
		responses atomic.Int64
		failures  atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCli; i++ {
				key := fmt.Sprintf("key-%02d", (c*perCli+i*13)%keys)
				if (c+i)%2 == 0 {
					err := srv.Put(key, []byte("val:"+key))
					responses.Add(1)
					if err != nil && !Retryable(err) {
						failures.Add(1)
					}
				} else {
					val, found, err := srv.Get(key)
					responses.Add(1)
					switch {
					case err != nil && !Retryable(err):
						failures.Add(1)
					case err == nil && found && !bytes.Equal(val, []byte("val:"+key)):
						failures.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if got := responses.Load(); got != clients*perCli {
		t.Fatalf("%d responses for %d requests (lost or duplicated)", got, clients*perCli)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed or corrupted responses", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerPipelineMetrics checks the pipeline instrument families are
// registered per shard and actually count under pipelined traffic.
func TestServerPipelineMetrics(t *testing.T) {
	srv, err := New(pipelineServerConfig(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 40; i++ {
		if err := srv.Put(fmt.Sprintf("k%02d", i%8), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := srv.Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	var admitted float64
	if _, err := fmt.Sscanf(afterLine(exposition, `oram_pipeline_admitted_total{shard="0"} `), "%g", &admitted); err != nil {
		t.Fatalf("oram_pipeline_admitted_total series missing from exposition: %v", err)
	}
	if admitted < 40 {
		t.Fatalf("oram_pipeline_admitted_total = %v, want >= 40", admitted)
	}
	for _, want := range []string{
		`oram_pipeline_inflight{shard="0"}`,
		`oram_pipeline_stage_us_bucket{shard="0",stage="admit",`,
	} {
		if !strings.Contains(exposition, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// afterLine returns the remainder of the line starting with prefix.
func afterLine(s, prefix string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimPrefix(line, prefix)
		}
	}
	return ""
}
