package oram

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"stringoram/internal/config"
)

// TestSealedBytesGolden pins the exact ciphertext bytes the sealing layer
// produces for a deterministic sequence of bucket refills (writeBucket).
// It failing means sealed bytes changed, which would break snapshot
// compatibility. The hash was re-captured twice: when every slot moved
// from a write-counter or dummy-hash IV to the IV of its position, and
// when a refill began to seal the whole bucket in one AES-GCM pass under
// the bucket's position nonce, with no slot header
// (FuzzSealBucketMatchesGCM checks those bytes against cipher.NewGCM).
// Sizes 1 and 4 pack several slots into one AES block; at 24 and 100 a
// slot starts or ends inside an AES block it shares with a neighbour.
func TestSealedBytesGolden(t *testing.T) {
	h := sha256.New()
	for _, bs := range []int{1, 4, 16, 24, 32, 64, 100, 256} {
		c, err := NewCrypt([]byte("golden-key-0123!"), bs)
		if err != nil {
			t.Fatal(err)
		}
		plain := make([]byte, bs)
		for i := range plain {
			plain[i] = byte(i*31 + bs)
		}
		core := treeCore{cfg: config.ORAM{Z: 10, Levels: 8, BlockSize: bs}, store: NewMemStore(10), crypt: c}
		srcs := make([][]byte, 10)
		for j := 0; j < 16; j++ {
			for s := range srcs {
				srcs[s] = nil
				if (s+j)%3 == 0 {
					srcs[s] = plain
				}
			}
			core.writeBucket(int64(j*13), j, srcs)
			for s := range srcs {
				h.Write(core.store.ReadSlot(int64(j*13), s))
			}
		}
		// Fold the decryption direction in too: OpenInto must invert SealInto
		// bit-exactly at every size.
		sealed := c.SealInto(nil, plain)
		opened, err := c.OpenInto(nil, sealed)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(sealed)
		h.Write(opened)
	}
	got := hex.EncodeToString(h.Sum(nil))
	const want = "8303a9163fe9305de7e53a6f5ec93006a7e3cfd40b6bab1832b85a92c3a91dd7"
	if got != want {
		t.Fatalf("sealed-bytes golden drifted:\n got %s\nwant %s", got, want)
	}
}

// TestRingSaveBytesGolden pins the exact checkpoint bytes Ring.Save emits
// after a fixed seeded run, in three sealed configurations: Compact
// Bucket (Y = 2) and no Compact Bucket (Y = 0) on the uncached reference
// (newUncachedRing), and Y = 2 as every functional Ring runs, with the
// treetop cache. The server's snapshot files and shard handoff wrap
// these bytes. Save must keep emitting one [][]byte per touched store
// bucket, every slot's sealed bytes (a stored bucket is written whole),
// in ascending bucket order, and
// every snapshot slice sorted by id. The treetop row keeps its cached
// buckets in the Treetop field, never in the store, so its hash differs
// from the compact row's; checkTreetopCheckpoint relates the two.
//
// The hashes were re-captured six times. Once when seals moved to
// position IVs and the checkpoint to version 2 without a write counter:
// every sealed slot changed, and Load refuses version 1. Once when the
// functional XOR read mode was deleted: gob's type descriptor lists field
// names, and ringSnap lost XOR and Stats lost XORDecodes, while every
// value the checkpoint carries stayed the same. Once when a refill began
// to seal its bucket in one AES-GCM pass under the bucket's position
// nonce, with no slot header: every stored slot changed and shrank to
// BlockSize bytes, and the checkpoint moved to version 3. And once when
// the checkpoint moved to version 4 and gained its SHA-256 trailer: only
// the Version value and the trailer changed, and each new body
// re-encoded at Version 3 without the trailer hashed to its row's
// previous value (55e42b12…, 75e8e769…, 55e42b12…). And once when Stats
// lost DummyReadPaths, ReshuffledBuckets and StashHits, which changes
// gob's type descriptor: each previous checkpoint, loaded and saved
// again without those fields, hashes to its row's value here
// (c0450b5b…, c8074707…, c0450b5b… before). And once when the cached
// buckets left the store for the checkpoint's plaintext Treetop field and
// the checkpoint moved to version 5: each new checkpoint, decoded, with
// its Treetop dropped, each refilled cached bucket sealed back into Store
// at its epoch, and re-encoded at version 4 without the field, hashes to
// its row's previous value (cefe4622…, eb166713…, cefe4622…).
// TestLoadCheckpointCompat loads checkpoints an earlier version saved and
// checks that they continue bit-identically, or that Load refuses them by
// version.
func TestRingSaveBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		y        int
		uncached bool
		want     string
	}{
		{name: "compact", y: 2, uncached: true, want: "12dc3b011918a46e8363aa8ecf3396b06cb7b8d7501a58b88beb49b220e3efbc"},
		{name: "sealed-y0", y: 0, uncached: true, want: "bd17563132f65833a542cc88a9efd7d990d25cdf469fc40a6269ce42be44d0f7"},
		{name: "treetop", y: 2, want: "99530024c17cf4687af64739075dfa9fcf35a108a14645382ee3425fce834e8f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(tc.y)
			var r *Ring
			if tc.uncached {
				r = newUncachedRing(t, cfg, 2024, variantOptions(t, cfg, false))
			} else {
				r = newTreetopRing(t, cfg, 2024, false)
			}
			runSerialTrace(t, r, cfg, genTrace(1500, 77))
			sum := sha256.Sum256(saveBytes(t, r))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("Ring.Save bytes drifted:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestWarmSaveBytesGolden pins the checkpoint bytes of a warm-filled,
// timing-only Ring after a fixed trace: the filler ids, their paths,
// every bucket's phase and permutation and the RNG states all reach
// Save, so a change to how a fresh bucket is warmed — its random draws,
// its occupancy odds, where a filler's position is kept, or the order
// the position map is written in — moves the hash. The second row
// continues the trace on a Ring Load rebuilt from the first checkpoint,
// so the warm state a loaded Ring derives is pinned too.
func TestWarmSaveBytesGolden(t *testing.T) {
	const (
		fresh    = "1a1a51ae4b762ba067394aab93a9b3476aa654622d6ddc8965fefbdb08a1e5e1"
		reloaded = "287e9f9a0754e12802e744d79853f75565d07eb34ba3980d7103be9462175dbb"
	)
	cfg := smallCfg(2)
	cfg.WarmFill = 0.6
	r, err := NewRing(cfg, 31, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(r *Ring, trace []traceStep) {
		for _, st := range trace {
			if _, _, err := r.Access(st.id, st.write, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(r, genTrace(1200, 91))
	first := saveBytes(t, r)
	sum := sha256.Sum256(first)
	if got := hex.EncodeToString(sum[:]); got != fresh {
		t.Errorf("warm Ring.Save bytes drifted:\n got %s\nwant %s", got, fresh)
	}
	loaded, err := Load(bytes.NewReader(first), nil)
	if err != nil {
		t.Fatal(err)
	}
	run(loaded, genTrace(600, 92))
	sum = sha256.Sum256(saveBytes(t, loaded))
	if got := hex.EncodeToString(sum[:]); got != reloaded {
		t.Errorf("reloaded warm Ring.Save bytes drifted:\n got %s\nwant %s", got, reloaded)
	}
}
