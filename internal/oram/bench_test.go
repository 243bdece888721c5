package oram

import (
	"crypto/cipher"
	"testing"

	"stringoram/internal/config"
)

// benchRing builds a mid-size ring for throughput benchmarks: timing-only,
// or functional as the uncached reference (newUncachedRing), so that
// every cached-level block moves through the store and AES too.
func benchRing(b *testing.B, functional bool) *Ring {
	b.Helper()
	cfg := config.Default().ORAM
	cfg.Levels = 16
	if functional {
		crypt, err := NewCrypt([]byte("bench-key-16byte"), cfg.BlockSize)
		if err != nil {
			b.Fatal(err)
		}
		return newUncachedRing(b, cfg, 1, &Options{Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt})
	}
	r, err := NewRing(cfg, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// warmRing runs one full reverse-lexicographic eviction cycle of the
// benchmarks' access pattern on r, so that every bucket materializes and
// all scratch grows: a timed loop on r then measures the allocation-free
// steady state rather than first-touch setup. Writes store payload (nil
// on a timing-only ring).
func warmRing(b *testing.B, r *Ring, payload []byte) {
	b.Helper()
	warm := int(r.Config().Leaves()) * r.Config().A
	for i := 0; i < warm; i++ {
		var data []byte
		if i%2 == 0 {
			data = payload
		}
		if _, _, err := r.Access(BlockID(i%4096), i%2 == 0, data); err != nil {
			b.Fatal(err)
		}
	}
}

// warmTimingRing is the shared steady-state ring for
// BenchmarkAccessTimingOnly, built and warmed once per bench process so
// that its ns/op does not depend on b.N.
var warmTimingRing *Ring

func warmedTimingRing(b *testing.B) *Ring {
	b.Helper()
	if warmTimingRing == nil {
		r := benchRing(b, false)
		warmRing(b, r, nil)
		warmTimingRing = r
	}
	return warmTimingRing
}

// BenchmarkAccessTimingOnly measures protocol-only access throughput
// (metadata, selection, eviction bookkeeping; no data bytes), at steady
// state.
func BenchmarkAccessTimingOnly(b *testing.B) {
	b.ReportAllocs()
	r := warmedTimingRing(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Access(BlockID(i%4096), i%2 == 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// warmFunctionalRing is the shared steady-state ring for
// BenchmarkAccessFunctional, warmed by warmRing. Cached across the
// calibration reruns of one bench process.
var warmFunctionalRing *Ring

func warmedFunctionalRing(b *testing.B) *Ring {
	b.Helper()
	if warmFunctionalRing == nil {
		r := benchRing(b, true)
		warmRing(b, r, make([]byte, r.Config().BlockSize))
		warmFunctionalRing = r
	}
	return warmFunctionalRing
}

// BenchmarkAccessFunctional measures full functional throughput with
// AES-CTR sealing on every block moved, at steady state.
func BenchmarkAccessFunctional(b *testing.B) {
	b.ReportAllocs()
	r := warmedFunctionalRing(b)
	payload := make([]byte, r.Config().BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			_, _, err = r.Access(BlockID(i%4096), true, payload)
		} else {
			_, _, err = r.Access(BlockID(i%4096), false, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// warmCachedRing mirrors warmFunctionalRing for the treetop-cached
// variant: same geometry and trace, with the serving tree top
// (WithServingLevels: 10 of 16 levels, 1023 buckets x 768 B), cached as
// every functional Ring is.
var warmCachedRing *Ring

func warmedCachedRing(b *testing.B) *Ring {
	b.Helper()
	if warmCachedRing == nil {
		cfg := config.Default().ORAM.WithServingLevels(16)
		crypt, err := NewCrypt([]byte("bench-key-16byte"), cfg.BlockSize)
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewRing(cfg, 1, &Options{Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt})
		if err != nil {
			b.Fatal(err)
		}
		warmRing(b, r, make([]byte, r.Config().BlockSize))
		warmCachedRing = r
	}
	return warmCachedRing
}

// BenchmarkAccessFunctionalCached is BenchmarkAccessFunctional with the
// treetop data cache holding the serving tree top decrypted in
// controller memory: path reads and eviction writes at cached levels
// cost a memcpy instead of store I/O plus AES. The pair quantifies the
// spatial-locality win.
func BenchmarkAccessFunctionalCached(b *testing.B) {
	b.ReportAllocs()
	r := warmedCachedRing(b)
	payload := make([]byte, r.Config().BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			_, _, err = r.Access(BlockID(i%4096), true, payload)
		} else {
			_, _, err = r.Access(BlockID(i%4096), false, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadPathServerGeometry is the in-package stand-in for the
// `ring-sealed` workload's p50: the serving geometry (server.DefaultORAM(16):
// the default ORAM at 16 levels through the serving tree-top rule, 10
// levels cached, no warm fill) over a sealed MemStore holding 16,384
// preloaded blocks, timed on read-only accesses.
func BenchmarkReadPathServerGeometry(b *testing.B) {
	b.ReportAllocs()
	const blocks = 16384
	cfg := config.Default().ORAM.WithServingLevels(16)
	cfg.WarmFill = 0
	crypt, err := NewCrypt([]byte("bench-key-16byte"), cfg.BlockSize)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(cfg, 1, &Options{Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, cfg.BlockSize)
	for i := 0; i < blocks; i++ {
		if _, _, err := r.Access(BlockID(i), true, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Access(BlockID(i%blocks), false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeal measures the sealing layer alone on 64-byte blocks: the
// kernel sealing one slot (SealInto, the caller-buffer path) and opening
// one slot of a sealed bucket (a read's one-slot open), a refill's one GCM
// pass over a default-geometry bucket (reported per slot), and stdlib
// AES-GCM sealing and opening one slot per call, the per-slot cost an
// authenticated seal format would pay.
func BenchmarkSeal(b *testing.B) {
	payload := make([]byte, 64)
	c, err := NewCrypt([]byte("bench-key-16byte"), len(payload))
	if err != nil {
		b.Fatal(err)
	}
	aead, err := cipher.NewGCM(c.block)
	if err != nil {
		b.Fatal(err)
	}
	nonce := make([]byte, aead.NonceSize())
	sealed := aead.Seal(nil, nonce, payload, nil)
	// Every other slot of the bucket holds the payload; the rest are
	// dummies. body has room for the tag, so no run allocates.
	slots := config.Default().ORAM.SlotsPerBucket()
	body := make([]byte, slots*len(payload), slots*len(payload)+gcmTagSize)
	for s := 0; s < slots; s += 2 {
		copy(body[s*len(payload):], payload)
	}
	buf := make([]byte, len(body))

	b.Run("slot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.SealInto(buf, payload)
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.cryptAt(buf[:len(payload)], body[len(payload):2*len(payload)], 7, i, 1)
		}
	})
	b.Run("bucket", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.sealBucket(body, 7, i)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
	})
	b.Run("gcm-seal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aead.Seal(buf[:0], nonce, payload, nil)
		}
	})
	b.Run("gcm-open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := aead.Open(buf[:0], nonce, sealed, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvictPath isolates the eviction cost (reads, placement,
// reshuffles) by running at A=1.
func BenchmarkEvictPath(b *testing.B) {
	b.ReportAllocs()
	cfg := config.Default().ORAM
	cfg.Levels = 16
	cfg.A = 1
	cfg.S = cfg.A + 4
	cfg.Y = 0
	r, err := NewRing(cfg, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Access(BlockID(i%1024), false, nil); err != nil {
			b.Fatal(err)
		}
	}
}
