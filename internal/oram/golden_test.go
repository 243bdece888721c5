package oram

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestSealedBytesGolden pins the exact ciphertext bytes the sealing layer
// produces for a deterministic seal sequence. The hash was recorded before
// the hand-rolled CTR keystream replaced cipher.NewCTR; it failing means
// sealed bytes changed, which would break snapshot compatibility and the
// XOR technique's dummy cancellation.
func TestSealedBytesGolden(t *testing.T) {
	h := sha256.New()
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
			h.Write(c.SealInto(nil, plain))
			h.Write(c.SealInto(nil, nil))
			h.Write(c.SealDummyInto(nil, int64(j*17), j%5, j))
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
	const want = "cd3a57d1c6807b6147330710938ce8263de457102170b5cba1f97d971a84adba"
	if got != want {
		t.Fatalf("sealed-bytes golden drifted:\n got %s\nwant %s", got, want)
	}
}

// TestRingSaveBytesGolden pins the exact checkpoint bytes Ring.Save emits
// after a fixed seeded run, in the three modes the server runs (sealed
// Compact Bucket, sealed XOR with Y = 0, sealed with the treetop cache).
// The server's snapshot files and shard handoff are these bytes, so the
// hashes — captured before the bucket table, store, position map and stash
// moved from maps to indexed tables — are what "an upgraded oramd loads its
// predecessor's checkpoint" rests on. Save must keep emitting one [][]byte
// per touched store bucket with nil for never-written slots, in ascending
// bucket order, and every snapshot slice sorted by id. The treetop hash
// equals the compact one by construction: the cache flushes to the bytes an
// uncached controller wrote (TestTreetopSerialEquivalence).
func TestRingSaveBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		y       int
		xor     bool
		treetop bool
		want    string
	}{
		{name: "compact", y: 2, want: "48dffdc5b4a1219cb3936eaff9bf823fe9e7985fe57ffaf591a9688919527112"},
		{name: "xor", xor: true, want: "befdaf8415046094232ec70e19cfd905c62458971fefd2a2209c6e55962667ac"},
		{name: "treetop", y: 2, treetop: true, want: "48dffdc5b4a1219cb3936eaff9bf823fe9e7985fe57ffaf591a9688919527112"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(tc.y)
			crypt, err := NewCrypt(testKey(), cfg.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRing(cfg, 2024, &Options{
				Store: NewMemStore(cfg.SlotsPerBucket()), Crypt: crypt,
				XOR: tc.xor, TreetopCache: tc.treetop,
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
