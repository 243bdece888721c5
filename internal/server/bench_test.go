package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stringoram/internal/obs"
)

// BenchmarkServerGetPut measures end-to-end serving throughput through
// one shard (queue, worker batch loop, value framing, and the functional
// ORAM access underneath) with alternating Get/Put on a warm key set.
func BenchmarkServerGetPut(b *testing.B) {
	srv, err := New(Config{
		Shards:   1,
		MaxBatch: 1,
		ORAM:     DefaultORAM(10),
		Seed:     1,
		Key:      []byte("bench-key-16byte"),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	const keys = 128
	val := bytes.Repeat([]byte{7}, 48)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%03d", i)
		if err := srv.Put(names[i], val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := names[i%keys]
		if i%2 == 0 {
			if err := srv.Put(key, val); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, _, err := srv.Get(key); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchServerGetPutCtx is BenchmarkServerGetPut with a trace context
// attached to every request; sample controls the server's head-sampling
// rate and tc whether the context actually passes the sampler. The
// Traced/TracedSampled pair quantifies the tracing tax: unsampled must
// match the untraced baseline (same 0 allocs/op), sampled bounds the
// full-rate span-recording cost.
func benchServerGetPutCtx(b *testing.B, sample uint64, tc obs.TraceContext) {
	srv, err := New(Config{
		Shards:      1,
		MaxBatch:    1,
		ORAM:        DefaultORAM(10),
		Seed:        1,
		Key:         []byte("bench-key-16byte"),
		TraceSample: sample,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	const keys = 128
	val := bytes.Repeat([]byte{7}, 48)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%03d", i)
		if err := srv.Put(names[i], val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := names[i%keys]
		if i%2 == 0 {
			if err := srv.PutCtx(tc, key, val, time.Time{}); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, _, err := srv.GetCtx(tc, key, time.Time{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServerGetPutTraced is the tracing-attached-but-unsampled
// data plane: every request carries a context, the sampler drops all of
// them. Must match BenchmarkServerGetPut (0 allocs/op).
func BenchmarkServerGetPutTraced(b *testing.B) {
	tc := obs.TraceContext{Hi: 0xabcdef, Lo: 0x3, SpanID: 0x11} // Lo&1023 != 0: never sampled
	benchServerGetPutCtx(b, 1024, tc)
}

// BenchmarkServerGetPutTracedSampled records a serve span for every
// request — the worst-case tracing overhead the ≤5% budget bounds.
func BenchmarkServerGetPutTracedSampled(b *testing.B) {
	tc := obs.TraceContext{Hi: 0xabcdef, Lo: 0x400, SpanID: 0x11} // Lo&1023 == 0: always sampled
	benchServerGetPutCtx(b, 1024, tc)
}

// benchServerThroughput measures sustained single-shard serving
// throughput under many concurrent clients: the worker drains full
// batches through its serial Ring. Reported p99-ns is the
// request-latency 99th percentile from the server's own request-latency
// histogram over the timed run.
func benchServerThroughput(b *testing.B) {
	srv, err := New(Config{
		Shards:     1,
		MaxBatch:   32,
		QueueDepth: 4096,
		ORAM:       DefaultORAM(10),
		Seed:       1,
		Key:        []byte("bench-key-16byte"),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	const keys = 128
	val := bytes.Repeat([]byte{7}, 48)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%03d", i)
		if err := srv.Put(names[i], val); err != nil {
			b.Fatal(err)
		}
	}
	// Enough concurrent clients to keep the shard queue full even at
	// GOMAXPROCS=1, so batches fill.
	b.SetParallelism(64)
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			key := names[int(i)%keys]
			if i%2 == 0 {
				if err := srv.Put(key, val); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, _, err := srv.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(srv.Metrics().P99Seconds*1e9, "p99-ns")
}

func BenchmarkServerThroughputSerial(b *testing.B) { benchServerThroughput(b) }

// benchServerCores is benchServerThroughput at an explicit GOMAXPROCS.
// One shard runs all its ORAM work on one worker goroutine no matter
// how many cores exist, so the curve shows what the wire-free serving
// path around it gains from cores.
func benchServerCores(b *testing.B, cores int) {
	prev := runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(prev)
	benchServerThroughput(b)
}

func BenchmarkServerCoresSerial1(b *testing.B) { benchServerCores(b, 1) }
func BenchmarkServerCoresSerial2(b *testing.B) { benchServerCores(b, 2) }
func BenchmarkServerCoresSerial4(b *testing.B) { benchServerCores(b, 4) }
func BenchmarkServerCoresSerial8(b *testing.B) { benchServerCores(b, 8) }

// BenchmarkWireRoundTrip measures the wire codec alone: encode one
// request and one response frame and decode both back.
func BenchmarkWireRoundTrip(b *testing.B) {
	val := bytes.Repeat([]byte{9}, 64)
	b.ReportAllocs()
	var reqBuf, respBuf []byte
	for i := 0; i < b.N; i++ {
		var err error
		reqBuf, err = appendRequest(reqBuf[:0], wireRequest{Op: wirePut, Seq: uint64(i), Key: "key-000", Val: val})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodeRequest(reqBuf[4:]); err != nil {
			b.Fatal(err)
		}
		respBuf = appendResponse(respBuf[:0], wireResponse{Status: statusOK, Seq: uint64(i), Body: val})
		if _, err := decodeResponse(respBuf[4:]); err != nil {
			b.Fatal(err)
		}
	}
}
