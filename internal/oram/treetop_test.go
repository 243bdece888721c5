package oram

import (
	"bytes"
	"crypto/subtle"
	"runtime"
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/invariant"
)

// newTreetopRing builds a functional ring with the treetop data cache
// enabled for one of the protocol variants the equivalence tests cover.
func newTreetopRing(t *testing.T, cfg config.ORAM, seed uint64, plain bool) *Ring {
	t.Helper()
	opts := &Options{Store: NewMemStore(cfg.SlotsPerBucket()), TreetopCache: true}
	if !plain {
		crypt, err := NewCrypt(testKey(), cfg.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		opts.Crypt = crypt
	}
	r, err := NewRing(cfg, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r.TreetopEnabled() {
		t.Fatal("treetop cache did not enable")
	}
	return r
}

// traceStep is one access of a deterministic workload trace.
type traceStep struct {
	id    BlockID
	write bool
	ver   int
}

// genTrace builds a deterministic mixed read/write trace over a small id
// space (plus a few never-written ids, which read back as zero blocks).
func genTrace(n int, seed uint64) []traceStep {
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	steps := make([]traceStep, n)
	for i := range steps {
		r := next()
		id := BlockID(r % 56) // ids 48..55 are never written
		write := id < 48 && (r>>8)%4 == 0
		steps[i] = traceStep{id: id, write: write, ver: i}
	}
	return steps
}

// accessResult captures one access's observable outcome.
type accessResult struct {
	data []byte
	ops  []Op
	err  error
}

// runSerialTrace drives the trace through r, one access at a time.
func runSerialTrace(t *testing.T, r *Ring, cfg config.ORAM, trace []traceStep) []accessResult {
	t.Helper()
	out := make([]accessResult, len(trace))
	for i, st := range trace {
		var res accessResult
		if st.write {
			ops, err := r.Write(st.id, blockData(cfg, st.id, st.ver))
			res = accessResult{ops: cloneOps(ops), err: err}
		} else {
			data, ops, err := r.Read(st.id)
			res = accessResult{data: bytes.Clone(data), ops: cloneOps(ops), err: err}
		}
		out[i] = res
	}
	return out
}

// saveBytes serializes the ring's complete state.
func saveBytes(t *testing.T, r *Ring) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// opsEqual compares two op lists structurally.
func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Path != b[i].Path || len(a[i].Accesses) != len(b[i].Accesses) {
			return false
		}
		for j := range a[i].Accesses {
			if a[i].Accesses[j] != b[i].Accesses[j] {
				return false
			}
		}
	}
	return true
}

// treetopVariants are the protocol variants the cache must be invisible
// to: Compact Bucket with greens, a sealed store without them (Y = 0),
// and a plaintext store.
var treetopVariants = []struct {
	name  string
	plain bool
	y     int
}{
	{name: "compact", y: 2},
	{name: "sealed-y0", y: 0},
	{name: "plaintext", plain: true, y: 0},
}

// TestTreetopSerialEquivalence is the cache's core oracle: a serial ring
// with the treetop cache enabled must return byte-identical responses,
// emit identical op lists, and Save a byte-identical checkpoint (the
// flush seals each dirty bucket at its slots' position IVs, so even the
// sealed store bytes match) versus an uncached ring fed the same trace.
func TestTreetopSerialEquivalence(t *testing.T) {
	const seed = 0x7e340
	for _, v := range treetopVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := smallCfg(v.y)
			trace := genTrace(800, 0xcac4e+uint64(len(v.name)))

			plainOpts := &Options{Store: NewMemStore(cfg.SlotsPerBucket())}
			if !v.plain {
				crypt, err := NewCrypt(testKey(), cfg.BlockSize)
				if err != nil {
					t.Fatal(err)
				}
				plainOpts.Crypt = crypt
			}
			uncached, err := NewRing(cfg, seed, plainOpts)
			if err != nil {
				t.Fatal(err)
			}
			want := runSerialTrace(t, uncached, cfg, trace)

			cached := newTreetopRing(t, cfg, seed, v.plain)
			got := runSerialTrace(t, cached, cfg, trace)

			for i := range want {
				if (want[i].err == nil) != (got[i].err == nil) {
					t.Fatalf("step %d: error mismatch: uncached %v, cached %v", i, want[i].err, got[i].err)
				}
				if !bytes.Equal(want[i].data, got[i].data) {
					t.Fatalf("step %d (%+v): cached response diverged", i, trace[i])
				}
				if !opsEqual(want[i].ops, got[i].ops) {
					t.Fatalf("step %d (%+v): cached op list diverged", i, trace[i])
				}
			}
			if !bytes.Equal(saveBytes(t, uncached), saveBytes(t, cached)) {
				t.Fatal("cached ring's checkpoint diverged from the uncached oracle")
			}
		})
	}
}

// storeOp is one bus-visible physical store access.
type storeOp struct {
	write  bool
	bucket int64
	slot   int
}

// traceStore records every ReadSlot/WriteSlot crossing the bus.
type traceStore struct {
	inner Store
	log   []storeOp
}

func (ts *traceStore) ReadSlot(bucket int64, slot int) []byte {
	ts.log = append(ts.log, storeOp{bucket: bucket, slot: slot})
	return ts.inner.ReadSlot(bucket, slot)
}

func (ts *traceStore) WriteSlot(bucket int64, slot int, sealed []byte) {
	ts.log = append(ts.log, storeOp{write: true, bucket: bucket, slot: slot})
	ts.inner.WriteSlot(bucket, slot, sealed)
}

// TestTreetopStoreTraceGolden pins the cache's bus contract directly:
// the cached ring's physical store trace must equal the uncached ring's
// trace with exactly the cached-bucket accesses removed — nothing else
// reordered, added or dropped. This is the golden-trace form of the
// security argument: the elided operations are precisely the uniform
// per-level accesses every path access performs at the cached levels.
func TestTreetopStoreTraceGolden(t *testing.T) {
	const seed = 0x90fda
	cfg := smallCfg(2)
	trace := genTrace(400, 0x61de)
	nCached := (int64(1) << uint(cfg.TreeTopCacheLevels)) - 1

	build := func(cacheOn bool) (*Ring, *traceStore) {
		ts := &traceStore{inner: NewMemStore(cfg.SlotsPerBucket())}
		crypt, err := NewCrypt(testKey(), cfg.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRing(cfg, seed, &Options{Store: ts, Crypt: crypt, TreetopCache: cacheOn})
		if err != nil {
			t.Fatal(err)
		}
		// Construction (warm fill, cache warming) touches the store;
		// compare only the serving-time trace.
		ts.log = ts.log[:0]
		return r, ts
	}

	uncached, uncachedTS := build(false)
	runSerialTrace(t, uncached, cfg, trace)
	cached, cachedTS := build(true)
	runSerialTrace(t, cached, cfg, trace)

	var wantFiltered []storeOp
	elided := 0
	for _, op := range uncachedTS.log {
		if op.bucket < nCached {
			elided++
			continue
		}
		wantFiltered = append(wantFiltered, op)
	}
	if elided == 0 {
		t.Fatal("uncached trace touched no cached-level buckets; the golden comparison is vacuous")
	}
	if len(cachedTS.log) != len(wantFiltered) {
		t.Fatalf("cached trace has %d store ops, want %d (uncached %d minus %d cached-level ops)",
			len(cachedTS.log), len(wantFiltered), len(uncachedTS.log), elided)
	}
	for i := range wantFiltered {
		if cachedTS.log[i] != wantFiltered[i] {
			t.Fatalf("store op %d: cached %+v, want %+v", i, cachedTS.log[i], wantFiltered[i])
		}
	}
	for _, op := range cachedTS.log {
		if op.bucket < nCached {
			t.Fatalf("cached ring touched cached-level bucket %d on the bus", op.bucket)
		}
	}
}

// TestTreetopSnapshotRoundTrip checks the flush discipline end to end:
// a checkpoint taken while the cache is dirty must be bit-identical to
// the uncached oracle's; a ring restored from it (cache re-enabled)
// must continue bit-identically through more traffic and a second
// checkpoint.
func TestTreetopSnapshotRoundTrip(t *testing.T) {
	const seed = 0x5a7e
	cfg := smallCfg(2)
	trace := genTrace(600, 0x40dd)

	crypt, err := NewCrypt(testKey(), cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := NewRing(cfg, seed, &Options{Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt})
	if err != nil {
		t.Fatal(err)
	}
	cached := newTreetopRing(t, cfg, seed, false)

	runSerialTrace(t, uncached, cfg, trace[:300])
	runSerialTrace(t, cached, cfg, trace[:300])

	// Mid-stream: the cache holds dirty slots now. Save must flush them
	// into a checkpoint identical to the uncached controller's.
	wantSnap := saveBytes(t, uncached)
	gotSnap := saveBytes(t, cached)
	if !bytes.Equal(wantSnap, gotSnap) {
		t.Fatal("dirty-cache checkpoint diverged from the uncached oracle")
	}

	restored, err := Load(bytes.NewReader(gotSnap), testKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.EnableTreetop(); err != nil {
		t.Fatal(err)
	}
	if !restored.TreetopEnabled() {
		t.Fatal("treetop cache did not re-enable after Load")
	}

	wantTail := runSerialTrace(t, uncached, cfg, trace[300:])
	gotTail := runSerialTrace(t, restored, cfg, trace[300:])
	for i := range wantTail {
		if !bytes.Equal(wantTail[i].data, gotTail[i].data) {
			t.Fatalf("post-restore step %d: response diverged", i)
		}
		if !opsEqual(wantTail[i].ops, gotTail[i].ops) {
			t.Fatalf("post-restore step %d: op list diverged", i)
		}
	}
	if !bytes.Equal(saveBytes(t, uncached), saveBytes(t, restored)) {
		t.Fatal("post-restore checkpoint diverged from the uncached oracle")
	}
}

// TestRekeyReseals pins Ring.Rekey, taken mid-trace with dirty cached
// buckets (which it leaves to their flush), with Compact Bucket (Y = 2)
// and without it (Y = 0): the rekeyed ring serves the rest of the trace
// exactly as its twin without Rekey does, every stored slot is resealed
// (it differs from the twin's at the same position), and the checkpoint
// opens under the new key.
func TestRekeyReseals(t *testing.T) {
	trace := genTrace(600, 0x4e4b)
	key := RingKey(testKey(), 1, NewSalt())
	for _, y := range []int{2, 0} {
		cfg := smallCfg(y)
		twin, r := newTreetopRing(t, cfg, 9, false), newTreetopRing(t, cfg, 9, false)
		// A flush halfway leaves the cached buckets refilled since then
		// dirty over stored bytes that are stale. Rekey must leave those
		// to the flush, which seals the bucket under the new key;
		// resealing them too would seal two bodies under one nonce.
		for _, ring := range []*Ring{twin, r} {
			runSerialTrace(t, ring, cfg, trace[:150])
			ring.flushTreetop()
			runSerialTrace(t, ring, cfg, trace[150:300])
		}
		stale := make(map[int64][]byte)
		for idx, dirty := range r.tt.dirty {
			for s := 0; dirty && s < r.tt.slots; s++ {
				stale[int64(idx)] = append(stale[int64(idx)], r.store.ReadSlot(int64(idx), s)...)
			}
		}
		if err := r.Rekey(key); err != nil {
			t.Fatal(err)
		}
		for idx, old := range stale {
			var cur []byte
			for s := 0; s < r.tt.slots; s++ {
				cur = append(cur, r.store.ReadSlot(idx, s)...)
			}
			if !bytes.Equal(old, cur) {
				t.Fatalf("y=%d: Rekey resealed dirty cached bucket %d", y, idx)
			}
		}
		if len(stale) == 0 || len(stale[0]) == 0 {
			t.Fatalf("y=%d: the root is not dirty over stored bytes at Rekey", y)
		}
		want, got := runSerialTrace(t, twin, cfg, trace[300:]), runSerialTrace(t, r, cfg, trace[300:])
		for i := range want {
			if !bytes.Equal(want[i].data, got[i].data) || !opsEqual(want[i].ops, got[i].ops) {
				t.Fatalf("y=%d: step %d after Rekey diverged from the twin", y, 300+i)
			}
		}
		twin.flushTreetop()
		r.flushTreetop()
		stored := 0
		twin.store.(*MemStore).eachBucket(func(bkt int64, slots [][]byte) {
			for s, old := range slots {
				cur := r.store.ReadSlot(bkt, s)
				if old == nil || cur == nil || bytes.Equal(old, cur) {
					t.Fatalf("y=%d: bucket %d slot %d: resealed bytes expected, got %x vs %x", y, bkt, s, old, cur)
				}
				stored++
			}
		})
		if stored == 0 {
			t.Fatalf("y=%d: nothing stored", y)
		}
		if _, err := Load(bytes.NewReader(saveBytes(t, r)), key); err != nil {
			t.Fatal(err)
		}
	}
	if err := newTreetopRing(t, smallCfg(2), 9, true).Rekey(key); err == nil {
		t.Fatal("Rekey accepted a plaintext ring")
	}
	if err := newTreetopRing(t, smallCfg(2), 9, false).Rekey(key[:5]); err == nil {
		t.Fatal("Rekey accepted a 5-byte key")
	}
}

// TestRekeyIgnoresStoredBytes: Rekey must seal at nonces derived from
// trusted bucket metadata, never from the stored bytes, which a
// checkpoint read from disk could have forged. It copies the first 8
// bytes of one stored slot onto another in a saved checkpoint (a layout
// that kept each slot's IV in a stored header would make the second slot
// reuse the first one's IV), loads it, and rekeys. The two slots must
// then be sealed under different keystreams: the XOR of their stored
// bytes must differ from the XOR of the plaintexts the Ring opens.
func TestRekeyIgnoresStoredBytes(t *testing.T) {
	const forged = 8
	cfg := smallCfg(2)
	r := newFunctionalRing(t, cfg, 9)
	runSerialTrace(t, r, cfg, genTrace(300, 0xf0)) // every block written
	var a, b struct {
		bucket int64
		slot   int
	}
	data := corruptCheckpoint(t, saveBytes(t, r), func(snap *ringSnap) {
		// The forged pair is the first two written slots of the deepest
		// stored bucket, whose metadata names them.
		s := snap.Store[len(snap.Store)-1]
		var written []int
		for slot, sealed := range s.Slots {
			if sealed != nil {
				written = append(written, slot)
			}
		}
		if len(written) < 2 {
			t.Fatalf("bucket %d has %d written slots", s.Bucket, len(written))
		}
		a.bucket, a.slot, b.bucket, b.slot = s.Bucket, written[0], s.Bucket, written[1]
		copy(s.Slots[b.slot][:forged], s.Slots[a.slot][:forged])
	})
	restored, err := Load(bytes.NewReader(data), testKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Rekey(RingKey(testKey(), 1, NewSalt())); err != nil {
		t.Fatal(err)
	}
	epoch := restored.buckets.get(a.bucket).Epoch
	storedXOR := make([]byte, cfg.BlockSize)
	subtle.XORBytes(storedXOR, restored.store.ReadSlot(a.bucket, a.slot), restored.store.ReadSlot(b.bucket, b.slot))
	plainXOR := make([]byte, cfg.BlockSize)
	subtle.XORBytes(plainXOR, restored.readSlotData(a.bucket, epoch, a.slot), restored.readSlotData(b.bucket, epoch, b.slot))
	if bytes.Equal(storedXOR, plainXOR) {
		t.Fatalf("bucket %d slots %d and %d share a keystream after Rekey: their stored XOR is their plaintext XOR %x", a.bucket, a.slot, b.slot, plainXOR)
	}
}

// TestTreetopEnableGuards pins EnableTreetop's preconditions.
func TestTreetopEnableGuards(t *testing.T) {
	cfg := smallCfg(2)
	timing, err := NewRing(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := timing.EnableTreetop(); err == nil {
		t.Fatal("EnableTreetop accepted a timing-only ring")
	}

	r := newFunctionalRing(t, cfg, 2)
	if err := r.EnableTreetop(); err != nil {
		t.Fatalf("EnableTreetop on a functional ring: %v", err)
	}
	if err := r.EnableTreetop(); err != nil {
		t.Fatalf("EnableTreetop is not idempotent: %v", err)
	}

	// C = 0 is a documented no-op, not an error.
	cfg0 := smallCfg(2)
	cfg0.TreeTopCacheLevels = 0
	r0 := newFunctionalRing(t, cfg0, 3)
	if err := r0.EnableTreetop(); err != nil {
		t.Fatal(err)
	}
	if r0.TreetopEnabled() {
		t.Fatal("TreetopEnabled() true with TreeTopCacheLevels = 0")
	}
}

// TestTreetopAllocFree extends the zero-alloc contract to the cached
// data plane: once the cache's buffers and the pools are warm, cached
// accesses allocate nothing.
func TestTreetopAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; the zero-alloc guarantee binds on the default build")
	}
	cfg := smallCfg(2)
	r := newTreetopRing(t, cfg, 7, false)
	trace := genTrace(4000, 0xa110d)
	writeBuf := make([]byte, cfg.BlockSize)
	run := func(steps []traceStep) {
		for _, st := range steps {
			var data []byte
			if st.write {
				for i := range writeBuf { // blockData would allocate
					writeBuf[i] = byte(int(st.id)*31 + st.ver*7 + i)
				}
				data = writeBuf
			}
			if _, _, err := r.Access(st.id, st.write, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(trace[:2000]) // warm the cache's buffers and the pools

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(trace[2000:])
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / 2000
	if allocs > 0.05 {
		t.Fatalf("cached access allocates %.3f objects/op in steady state, want ~0", allocs)
	}
}
