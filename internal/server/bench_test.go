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
// throughput under many concurrent clients — the shape the concurrent
// controller targets: the worker drains full batches and (when pipeline
// > 1) keeps up to k accesses in flight. pipeline = 0 is the serial
// baseline. Reported p99-ns is the request-latency 99th percentile from
// the server's own request-latency histogram over the timed run.
func benchServerThroughput(b *testing.B, pipeline int) {
	srv, err := New(Config{
		Shards:     1,
		MaxBatch:   32,
		QueueDepth: 4096,
		ORAM:       DefaultORAM(10),
		Seed:       1,
		Key:        []byte("bench-key-16byte"),
		Pipeline:   pipeline,
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
	// GOMAXPROCS=1, so batches fill and the pipeline can overlap.
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

func BenchmarkServerThroughputSerial(b *testing.B) { benchServerThroughput(b, 0) }
func BenchmarkServerThroughputK1(b *testing.B)     { benchServerThroughput(b, 1) }
func BenchmarkServerThroughputK2(b *testing.B)     { benchServerThroughput(b, 2) }
func BenchmarkServerThroughputK4(b *testing.B)     { benchServerThroughput(b, 4) }
func BenchmarkServerThroughputK8(b *testing.B)     { benchServerThroughput(b, 8) }

// benchServerCores is the multi-core scaling curve: one shard served
// either serially or through the pipelined controller (k=8) backed by
// the shared worker pool, at an explicit GOMAXPROCS. Serial serving
// runs all ORAM work on the one shard worker goroutine no matter how
// many cores exist; the pipelined controller overlaps the data plane
// across the pool, so its curve should rise with cores. Each
// GOMAXPROCS value is its own benchmark name so bench.sh records the
// whole curve in one run.
func benchServerCores(b *testing.B, pipeline, cores int) {
	prev := runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(prev)
	srv, err := New(Config{
		Shards:     1,
		MaxBatch:   32,
		QueueDepth: 4096,
		ORAM:       DefaultORAM(10),
		Seed:       1,
		Key:        []byte("bench-key-16byte"),
		Pipeline:   pipeline,
		Workers:    cores,
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
}

func BenchmarkServerCoresSerial1(b *testing.B)    { benchServerCores(b, 0, 1) }
func BenchmarkServerCoresSerial2(b *testing.B)    { benchServerCores(b, 0, 2) }
func BenchmarkServerCoresSerial4(b *testing.B)    { benchServerCores(b, 0, 4) }
func BenchmarkServerCoresSerial8(b *testing.B)    { benchServerCores(b, 0, 8) }
func BenchmarkServerCoresPipelined1(b *testing.B) { benchServerCores(b, 8, 1) }
func BenchmarkServerCoresPipelined2(b *testing.B) { benchServerCores(b, 8, 2) }
func BenchmarkServerCoresPipelined4(b *testing.B) { benchServerCores(b, 8, 4) }
func BenchmarkServerCoresPipelined8(b *testing.B) { benchServerCores(b, 8, 8) }

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
