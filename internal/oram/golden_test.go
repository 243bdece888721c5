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
