package oram

import (
	"crypto/cipher"
	"testing"

	"stringoram/internal/config"
)

// benchRing builds a mid-size ring for throughput benchmarks.
func benchRing(b *testing.B, functional bool) *Ring {
	b.Helper()
	cfg := config.Default().ORAM
	cfg.Levels = 16
	var opts *Options
	if functional {
		crypt, err := NewCrypt([]byte("bench-key-16byte"), cfg.BlockSize)
		if err != nil {
			b.Fatal(err)
		}
		opts = &Options{Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt}
	}
	r, err := NewRing(cfg, 1, opts)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAccessTimingOnly measures protocol-only access throughput
// (metadata, selection, eviction bookkeeping; no data bytes).
func BenchmarkAccessTimingOnly(b *testing.B) {
	b.ReportAllocs()
	r := benchRing(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Access(BlockID(i%4096), i%2 == 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// warmFunctionalRing is the shared steady-state ring for
// BenchmarkAccessFunctional: one full reverse-lexicographic eviction
// cycle materializes every bucket and grows all scratch, so the timed
// loop measures the allocation-free steady state rather than first-touch
// setup. Cached across the calibration reruns of one bench process.
var warmFunctionalRing *Ring

func warmedFunctionalRing(b *testing.B) *Ring {
	b.Helper()
	if warmFunctionalRing == nil {
		r := benchRing(b, true)
		payload := make([]byte, r.Config().BlockSize)
		warm := int(r.Config().Leaves()) * r.Config().A
		for i := 0; i < warm; i++ {
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
// variant: same geometry and trace, the deepest tree top whose plaintext
// fits 4 MiB (4095 buckets x 768 B), cache enabled from construction.
var warmCachedRing *Ring

func warmedCachedRing(b *testing.B) *Ring {
	b.Helper()
	if warmCachedRing == nil {
		cfg := config.Default().ORAM
		cfg.Levels = 16
		cfg.TreeTopCacheLevels = 12
		crypt, err := NewCrypt([]byte("bench-key-16byte"), cfg.BlockSize)
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewRing(cfg, 1, &Options{
			Store:        NewMemStore(cfg.SlotsPerBucket()),
			Crypt:        crypt,
			TreetopCache: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, r.Config().BlockSize)
		warm := int(r.Config().Leaves()) * r.Config().A
		for i := 0; i < warm; i++ {
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
		warmCachedRing = r
	}
	return warmCachedRing
}

// BenchmarkAccessFunctionalCached is BenchmarkAccessFunctional with the
// treetop data cache holding the budget-sized tree top decrypted in
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
