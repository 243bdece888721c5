package oram

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestSealedBytesGolden pins the exact ciphertext bytes the sealing layer
// produces for a deterministic seal sequence. It failing means sealed
// bytes changed, which would break snapshot compatibility. The hash was
// re-captured once, when every slot moved from a write-counter or
// dummy-hash IV to the IV of its position (slotIV); the kernel's
// keystream for a given IV is unchanged (FuzzWriteBucketMatchesCTR checks
// it against cipher.NewCTR).
func TestSealedBytesGolden(t *testing.T) {
	h := sha256.New()
	core := treeCore{cfg: smallCfg(0)}
	for _, bs := range []int{16, 24, 32, 64, 100, 256} {
		key := []byte("golden-key-0123!")
		c, err := NewCrypt(key, bs)
		if err != nil {
			t.Fatal(err)
		}
		plain := make([]byte, bs)
		for i := range plain {
			plain[i] = byte(i*31 + bs)
		}
		for j := 0; j < 16; j++ {
			h.Write(c.sealWith(nil, core.slotIV(int64(j*13), j%5, j), plain))
			h.Write(c.sealWith(nil, core.slotIV(int64(j*13), j%5+5, j), nil))
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
	const want = "1ac6102d95b8076a237c8be863b634ea78ef68579bac7d77cd5dc57cf9f91dba"
	if got != want {
		t.Fatalf("sealed-bytes golden drifted:\n got %s\nwant %s", got, want)
	}
}

// TestRingSaveBytesGolden pins the exact checkpoint bytes Ring.Save emits
// after a fixed seeded run, in three sealed configurations a server shard
// can run: Compact Bucket (Y = 2), no Compact Bucket (Y = 0), and Y = 2
// with the treetop cache. The server's snapshot files and shard handoff
// are these bytes. Save must keep emitting one [][]byte per touched store
// bucket with nil for never-written slots, in ascending bucket order, and
// every snapshot slice sorted by id. The treetop hash equals the compact
// one by construction: the cache flushes to the bytes an uncached
// controller wrote (TestTreetopSerialEquivalence).
//
// The hashes were re-captured twice. Once when seals moved to position
// IVs and the checkpoint to version 2 without a write counter: every
// sealed slot changed, and Load refuses version 1. And once when the
// functional XOR read mode was deleted: gob's type descriptor lists field
// names, and ringSnap lost XOR and Stats lost XORDecodes, while every
// value the checkpoint carries stayed the same. A changed hash alone does
// not break loading older checkpoints (gob skips fields it does not
// know); TestLoadCheckpointCompat loads checkpoints an earlier version
// saved and checks that they continue bit-identically.
func TestRingSaveBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		y       int
		treetop bool
		want    string
	}{
		{name: "compact", y: 2, want: "9a4db336cc417280a6f7d32b80c42d50e6cc1b6ed424151f355fda34fc74bfc7"},
		{name: "sealed-y0", y: 0, want: "887df02f54977a4edcc6b7624c404b20e0e304367279c8c1cf213db5ef83676d"},
		{name: "treetop", y: 2, treetop: true, want: "9a4db336cc417280a6f7d32b80c42d50e6cc1b6ed424151f355fda34fc74bfc7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(tc.y)
			crypt, err := NewCrypt(testKey(), cfg.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRing(cfg, 2024, &Options{
				Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt,
				TreetopCache: tc.treetop,
			})
			if err != nil {
				t.Fatal(err)
			}
			runSerialTrace(t, r, cfg, genTrace(1500, 77))
			sum := sha256.Sum256(saveBytes(t, r))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("Ring.Save bytes drifted:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
