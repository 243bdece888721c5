package oram

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"stringoram/internal/checksum"
	"stringoram/internal/config"
	"stringoram/internal/rng"
)

// TestSaveLoadContinuation is the core checkpoint property: a run that is
// saved and restored produces exactly the same op stream and data as an
// uninterrupted run.
func TestSaveLoadContinuation(t *testing.T) {
	cfg := smallCfg(2)
	mk := func() *Ring { return newFunctionalRing(t, cfg, 321) }

	drive := func(r *Ring, from, to int) []Op {
		var all []Op
		for i := from; i < to; i++ {
			id := BlockID(i % 40)
			var err error
			var ops []Op
			if i%3 == 0 {
				_, ops, err = r.Access(id, true, blockData(cfg, id, i))
			} else {
				_, ops, err = r.Access(id, false, nil)
			}
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			all = append(all, cloneOps(ops)...)
		}
		return all
	}

	// Uninterrupted reference run.
	ref := mk()
	refOps := drive(ref, 0, 1000)

	// Interrupted run: 500 accesses, checkpoint, restore, 500 more.
	r1 := mk()
	ops1 := drive(r1, 0, 500)
	var buf bytes.Buffer
	if err := r1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Load(&buf, testKey())
	if err != nil {
		t.Fatal(err)
	}
	ops2 := drive(r2, 500, 1000)

	got := append(ops1, ops2...)
	if len(got) != len(refOps) {
		t.Fatalf("op counts differ: %d vs %d", len(got), len(refOps))
	}
	for i := range got {
		if got[i].Kind != refOps[i].Kind || got[i].Path != refOps[i].Path ||
			len(got[i].Accesses) != len(refOps[i].Accesses) {
			t.Fatalf("op %d diverged after restore", i)
		}
		for j := range got[i].Accesses {
			if got[i].Accesses[j] != refOps[i].Accesses[j] {
				t.Fatalf("op %d access %d diverged after restore", i, j)
			}
		}
	}
	if err := r2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCheckpointCompat loads checkpoints an earlier version of this
// package saved. All six are 5-level sealed rings (seed 4242) after
// genTrace(300, 31). The version-4 ones, ring-v4-y2.ckpt with Compact
// Bucket (Y = 2) and ring-v4-y0.ckpt without it, must continue exactly as
// the saving version continued them: the hashes cover the responses and
// op lists of genTrace(400, 2025) and then every stored slot (after a
// flush of the treetop cache), and were captured by the version-3 code
// from the ring it saved as ring-v3-y2.ckpt and ring-v3-y0.ckpt; the
// version-4 files are those checkpoints loaded and saved again. Every
// earlier checkpoint lacks the SHA-256 trailer and must be refused by
// version: the version-3 ones, and the version-2 ones, ring-y2.ckpt
// (Y = 2) and ring-xor.ckpt (Y = 0, under the since-deleted XOR read
// mode), which also store an 8-byte IV header with every slot.
func TestLoadCheckpointCompat(t *testing.T) {
	for _, tc := range []struct{ file, want string }{
		{"ring-v4-y2.ckpt", "a7cdebdf36ee9fd5ccacc296633e9ac2b8aa7a22a7df8d5546235197b998872e"},
		{"ring-v4-y0.ckpt", "2150ae11949d88b0665bcdb1890cbf1a2a36643984e5a3f9b9aa942f615724a9"},
		{"ring-v3-y2.ckpt", "version 3"},
		{"ring-v3-y0.ckpt", "version 3"},
		{"ring-y2.ckpt", "version 2"},
		{"ring-xor.ckpt", "version 2"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			r, err := Load(bytes.NewReader(data), testKey())
			if strings.HasPrefix(tc.want, "version ") {
				if want := fmt.Sprintf("checkpoint %s, want %d", tc.want, snapshotVersion); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("Load = %v, want an error naming %q", err, want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for i, res := range runSerialTrace(t, r, r.cfg, genTrace(400, 2025)) {
				if res.err != nil {
					t.Fatalf("step %d: %v", i, res.err)
				}
				h.Write(res.data)
				for _, op := range res.ops {
					fmt.Fprintf(h, "%d %d %d|", op.Kind, op.Path, len(op.Accesses))
					for _, a := range op.Accesses {
						fmt.Fprintf(h, "%d %d %d %v;", a.Bucket, a.Level, a.Slot, a.Write)
					}
				}
			}
			r.flushTreetop()
			r.store.(*MemStore).eachBucket(func(bkt int64, slots [][]byte) {
				binary.Write(h, binary.BigEndian, bkt)
				for _, s := range slots {
					binary.Write(h, binary.BigEndian, int64(len(s)))
					h.Write(s)
				}
			})
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("continuation of %s diverged:\n got %s\nwant %s", tc.file, got, tc.want)
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSaveLoadDataIntegrity writes data, checkpoints, restores with the
// key, and reads everything back.
func TestSaveLoadDataIntegrity(t *testing.T) {
	cfg := smallCfg(3)
	r := newFunctionalRing(t, cfg, 77)
	ref := make(map[BlockID][]byte)
	src := rng.New(78)
	for i := 0; i < 800; i++ {
		id := BlockID(src.Intn(48))
		d := blockData(cfg, id, i)
		if _, err := r.Write(id, d); err != nil {
			t.Fatal(err)
		}
		ref[id] = d
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Load(&buf, testKey())
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range ref {
		got, _, err := r2.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d corrupted across checkpoint", id)
		}
	}
	if err := r2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadTimingOnly(t *testing.T) {
	cfg := smallCfg(0)
	cfg.WarmFill = 0.4
	r, err := NewRing(cfg, 55, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, _, err := r.Access(BlockID(i%24), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both continue identically.
	for i := 0; i < 200; i++ {
		_, a, errA := r.Access(BlockID(i%24), false, nil)
		_, b, errB := r2.Access(BlockID(i%24), false, nil)
		if errA != nil || errB != nil {
			t.Fatalf("%v / %v", errA, errB)
		}
		if len(a) != len(b) {
			t.Fatalf("step %d: op counts diverged", i)
		}
		for j := range a {
			if a[j].Path != b[j].Path {
				t.Fatalf("step %d op %d: paths diverged", i, j)
			}
		}
	}
	if r2.Stats().ReadPaths != r.Stats().ReadPaths {
		t.Fatal("stats diverged")
	}
}

func TestLoadRejectsSealedWithoutCrypt(t *testing.T) {
	r := newFunctionalRing(t, smallCfg(0), 1)
	if _, err := r.Write(1, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, nil); err == nil {
		t.Fatal("sealed checkpoint loaded without a key")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint")), nil); err == nil {
		t.Fatal("garbage accepted")
	}
}

// checkpointForLoadTests returns the bytes of a valid sealed checkpoint
// with a populated store, bucket table, position map and stash.
func checkpointForLoadTests(t testing.TB) []byte {
	cfg := smallCfg(2)
	crypt, err := NewCrypt(testKey(), cfg.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(cfg, 9, &Options{Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ { // few: the fuzzer minimizes what it is seeded with
		if _, err := r.Write(BlockID(i%10), blockData(cfg, BlockID(i%10), i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptCheckpoint re-encodes checkpoint bytes after corrupt edits them,
// under a fresh checksum, so that Load reaches the edited fields.
func corruptCheckpoint(t testing.TB, valid []byte, corrupt func(s *ringSnap)) []byte {
	var snap ringSnap
	if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	corrupt(&snap)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return checksum.Append(buf.Bytes())
}

// TestLoadRejectsBadIndices: a checkpoint is outside input, and every
// index in it addresses a table. Each case corrupts one field of a valid
// checkpoint; Load must refuse it with an error naming the field rather
// than store it (a map swallowed these silently), index by it or allocate
// by it.
func TestLoadRejectsBadIndices(t *testing.T) {
	valid := checkpointForLoadTests(t)
	var probe ringSnap
	if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&probe); err != nil {
		t.Fatal(err)
	}
	if len(probe.Store) == 0 || len(probe.Buckets) == 0 || len(probe.PosMap) == 0 || len(probe.Stash) == 0 {
		t.Fatalf("checkpoint lacks a section: %d store buckets, %d buckets, %d mappings, %d stashed",
			len(probe.Store), len(probe.Buckets), len(probe.PosMap), len(probe.Stash))
	}
	tree := NewTree(probe.Cfg.Levels)
	for _, tc := range []struct {
		name    string
		corrupt func(s *ringSnap)
		want    string
	}{
		{"store bucket negative", func(s *ringSnap) { s.Store[0].Bucket = -1 }, "Store.Bucket"},
		{"store bucket one past the tree", func(s *ringSnap) { s.Store[0].Bucket = tree.Buckets() }, "Store.Bucket"},
		{"store bucket 2^60", func(s *ringSnap) { s.Store[0].Bucket = 1 << 60 }, "Store.Bucket"},
		{"store bucket twice", func(s *ringSnap) { s.Store = append(s.Store, s.Store[0]) }, "Store.Bucket"},
		{"store slot length", func(s *ringSnap) { s.Store[0].Slots[0] = []byte{1, 2, 3} }, "Store bucket"},
		{"bucket index negative", func(s *ringSnap) { s.Buckets[0].Index = -7 }, "Buckets.Index"},
		{"bucket index one past the tree", func(s *ringSnap) { s.Buckets[0].Index = tree.Buckets() }, "Buckets.Index"},
		{"bucket index 2^60", func(s *ringSnap) { s.Buckets[0].Index = 1 << 60 }, "Buckets.Index"},
		{"bucket index twice", func(s *ringSnap) { s.Buckets = append(s.Buckets, s.Buckets[0]) }, "Buckets.Index"},
		{"posmap id negative", func(s *ringSnap) { s.PosMap[0].ID = -1 }, "PosMap.ID"},
		{"posmap path negative", func(s *ringSnap) { s.PosMap[0].Path = -1 }, "PosMap.Path"},
		{"posmap path one past the leaves", func(s *ringSnap) { s.PosMap[0].Path = PathID(tree.Leaves()) }, "PosMap.Path"},
		{"stash id negative", func(s *ringSnap) { s.Stash[0].ID = -1 }, "Stash.ID"},
		{"stash path 2^60", func(s *ringSnap) { s.Stash[0].Path = 1 << 60 }, "Stash.Path"},
		{"stash data length", func(s *ringSnap) { s.Stash[0].Data = []byte{1} }, "Stash block"},
		{"block size 2^40", func(s *ringSnap) { s.Cfg.BlockSize = 1 << 40 }, "Cfg.BlockSize"},
		// A bucket's epoch is a field of its seal nonce: outside the
		// field it would alias another position's nonce.
		{"bucket epoch negative", func(s *ringSnap) { s.Buckets[0].Epoch = -1 }, "Epoch"},
		{"bucket epoch 2^epochBits", func(s *ringSnap) { s.Buckets[0].Epoch = 1 << nonceEpochBits }, "Epoch"},
		// Version 1 sealed under write counters a position nonce can repeat.
		{"version 1", func(s *ringSnap) { s.Version = 1 }, "version 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(corruptCheckpoint(t, valid, tc.corrupt)), testKey())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want an error naming %q", err, tc.want)
			}
		})
	}
	if _, err := Load(bytes.NewReader(valid), testKey()); err != nil {
		t.Fatalf("the uncorrupted checkpoint no longer loads: %v", err)
	}
}

// inconsistentCheckpoints lists corruptions of a valid checkpoint whose
// every index is in range but whose bucket metadata, stash and position
// map disagree: state the controller cannot run on (an unmapped resident
// block panics the next eviction that drains it). want names the
// violation CheckInvariants reports.
func inconsistentCheckpoints(t testing.TB, valid []byte) []struct {
	name    string
	corrupt func(s *ringSnap)
	want    string
} {
	var probe ringSnap
	if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&probe); err != nil {
		t.Fatal(err)
	}
	tree := NewTree(probe.Cfg.Levels)
	// slot finds the first valid slot, real or dummy, in a bucket below
	// the root (every path passes through the root).
	slot := func(real bool) (b, s int) {
		for b, bk := range probe.Buckets {
			for s, sl := range bk.Slots {
				if bk.Index > 0 && sl.Valid && sl.Real == real {
					return b, s
				}
			}
		}
		t.Fatalf("checkpoint has no valid real=%v slot below the root", real)
		return 0, 0
	}
	rb, rs := slot(true)
	db, ds := slot(false)
	resident := probe.Buckets[rb].Slots[rs].ID
	pm := slices.IndexFunc(probe.PosMap, func(e posSnap) bool { return e.ID == resident })
	// offPath is a leaf whose path misses the resident block's bucket.
	idx := probe.Buckets[rb].Index
	offPath := tree.PathThrough(idx) ^ PathID(tree.Leaves()>>tree.BucketLevel(idx))
	return []struct {
		name    string
		corrupt func(s *ringSnap)
		want    string
	}{
		{"slot names an unmapped block", func(s *ringSnap) {
			s.Buckets[db].Slots[ds] = Slot{Real: true, Valid: true, ID: 777777}
		}, "unmapped"},
		{"block off its path", func(s *ringSnap) { s.PosMap[pm].Path = offPath }, "off its path"},
		{"block in two slots", func(s *ringSnap) {
			s.Buckets[db].Slots[ds] = s.Buckets[rb].Slots[rs]
		}, "resident in buckets"},
		{"block in a slot and the stash", func(s *ringSnap) {
			s.Stash = append(s.Stash, stashSnap{ID: resident, Path: s.PosMap[pm].Path})
		}, "in the stash"},
		{"stashed off its mapped path", func(s *ringSnap) {
			s.Stash[0].Path = (s.Stash[0].Path + 1) % PathID(tree.Leaves())
		}, "stashed under path"},
		{"mapped block resident nowhere", func(s *ringSnap) { s.Stash = s.Stash[1:] }, "resident nowhere"},
		{"count over S", func(s *ringSnap) { s.Buckets[0].Count = 1000 }, "exceeds S"},
		{"green over Y", func(s *ringSnap) { s.Buckets[0].Green = s.Cfg.Y + 1 }, "exceeds Y"},
	}
}

// wideCfg is smallCfg(2) widened to maxSlotsPerBucket+1 physical slots
// per bucket: a geometry config.ORAM.Validate accepts (the analytic
// bandwidth model runs it) but no controller does.
func wideCfg() config.ORAM {
	cfg := smallCfg(2)
	cfg.S = maxSlotsPerBucket + 1 - cfg.Z + cfg.Y
	return cfg
}

// TestControllersRejectWideBuckets: a bucket's real and valid flags are
// one 64-bit mask each, so NewRing, NewPath and Load refuse a geometry
// with more slots per bucket, naming the limit.
func TestControllersRejectWideBuckets(t *testing.T) {
	cfg := wideCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("the wide geometry must pass config validation: %v", err)
	}
	wide := corruptCheckpoint(t, checkpointForLoadTests(t), func(s *ringSnap) { s.Cfg = cfg })
	for _, tc := range []struct {
		name string
		open func() error
	}{
		{"NewRing", func() error { _, err := NewRing(cfg, 1, nil); return err }},
		{"NewPath", func() error {
			_, err := NewPath(maxSlotsPerBucket+1, cfg.Levels, cfg.BlockSize, cfg.StashSize, 1, nil)
			return err
		}},
		{"Load", func() error { _, err := Load(bytes.NewReader(wide), testKey()); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.open()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("limit of %d", maxSlotsPerBucket)) {
				t.Fatalf("%s = %v, want an error naming the %d-slot limit", tc.name, err, maxSlotsPerBucket)
			}
		})
	}
}

// TestLoadRejectsInconsistentBuckets: Load refuses a checkpoint whose
// indices are all in range but whose state breaks a protocol invariant,
// rather than hand back a Ring that panics on a later access.
func TestLoadRejectsInconsistentBuckets(t *testing.T) {
	valid := checkpointForLoadTests(t)
	for _, tc := range inconsistentCheckpoints(t, valid) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(corruptCheckpoint(t, valid, tc.corrupt)), testKey())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestSaveRejectsCustomStore: Save refuses a store it cannot serialize,
// and the refusal writes nothing to it, not even the dirty cached buckets
// a successful Save would flush.
func TestSaveRejectsCustomStore(t *testing.T) {
	cfg := smallCfg(0)
	r, err := NewRing(cfg, 2, &Options{Store: customStore{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err == nil {
		t.Fatal("custom store accepted by Save")
	}

	ts := &traceStore{inner: NewMemStore(cfg.SlotsPerBucket())}
	r, err = NewRing(cfg, 2, &Options{Store: ts})
	if err != nil {
		t.Fatal(err)
	}
	runSerialTrace(t, r, cfg, genTrace(100, 0x5afe))
	if !slices.Contains(r.tt.dirty, true) {
		t.Fatal("no cached bucket is dirty; a flush would write nothing")
	}
	ts.log = ts.log[:0]
	if err := r.Save(&buf); err == nil {
		t.Fatal("custom store accepted by Save")
	}
	if len(ts.log) != 0 {
		t.Fatalf("a refused Save made %d store calls, first %+v", len(ts.log), ts.log[0])
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused Save wrote %d bytes", buf.Len())
	}
}

// TestCheckpointBitFlipRefused: Load checks the checkpoint's SHA-256
// trailer before it decodes anything, so every single-bit flip of a
// sealed checkpoint is refused, in the metadata, the sealed slots, the
// stash or the trailer alike. Without the trailer, 336 of these 403
// flips loaded at seed 0xf11b, and some such loads serve a wrong block.
func TestCheckpointBitFlipRefused(t *testing.T) {
	cfg := smallCfg(2)
	r := newFunctionalRing(t, cfg, 0xf11b)
	for i := 0; i < 600; i++ {
		id := BlockID(i % 40)
		if _, err := r.Write(id, blockData(cfg, id, i)); err != nil {
			t.Fatal(err)
		}
	}
	good := saveBytes(t, r)
	const flips = 403
	for i := 0; i < flips; i++ {
		off := i * len(good) / flips
		bad := bytes.Clone(good)
		bad[off] ^= 1 << (i % 8)
		if _, err := Load(bytes.NewReader(bad), testKey()); err == nil {
			t.Fatalf("Load accepted a checkpoint with bit %d of byte %d of %d flipped", i%8, off, len(good))
		}
	}
	// The unflipped bytes load, so each refusal above was the flip's doing.
	if _, err := Load(bytes.NewReader(good), testKey()); err != nil {
		t.Fatalf("Load refused the intact checkpoint: %v", err)
	}
}

// customStore is a minimal non-MemStore Store.
type customStore struct{}

func (customStore) ReadSlot(int64, int) []byte   { return nil }
func (customStore) WriteSlot(int64, int, []byte) {}

func TestRNGStateRoundTrip(t *testing.T) {
	a := rng.New(123)
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	b := rng.Restore(a.State())
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("restored stream diverged at draw %d", i)
		}
	}
}
