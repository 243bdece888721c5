package oram

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
	"testing"

	"stringoram/internal/config"
)

// FuzzWriteBucketMatchesCTR cross-checks the contracts the alloc-free data
// plane rests on, across arbitrary keys, block sizes, buckets and epochs:
//
//  1. a refill's one-pass bucket seal (writeBucket) writes every slot, over
//     a fuzzed mix of up to 32 plaintext and nil (zero-block) slots, as the
//     8-byte IV ((epoch << Levels) | bucket) << slotBits | slot followed by
//     crypto/cipher's CTR stream for [iv_be || 0^8] over the plaintext;
//  2. sealing one slot into a reused buffer produces the same bytes as
//     sealing into a fresh one;
//  3. OpenInto round-trips every slot back to its plaintext.
func FuzzWriteBucketMatchesCTR(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("hello ring oram padding to size!"), uint64(1), uint64(11), uint8(11), uint64(0x0000_0001_0000_0a5a))
	f.Add([]byte("another-16b-key!"), make([]byte, 61), uint64(1<<40), uint64(1<<40-1), uint8(31), uint64(0xffff_0000_ffff_ffff))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), []byte{0xff}, uint64(0), uint64(0), uint8(0), uint64(1))
	f.Fuzz(func(t *testing.T, keySeed, plaintext []byte, bucket, epoch uint64, nSlots uint8, mask uint64) {
		if len(plaintext) == 0 || len(plaintext) > 1024 {
			t.Skip()
		}
		var key [16]byte
		copy(key[:], keySeed)
		size := len(plaintext)
		n := int(nSlots)%32 + 1
		cfg := config.ORAM{Z: n, Levels: 20, BlockSize: size}
		slotBits, epochBits := ivBits(cfg)
		b := int64(bucket % uint64(NewTree(cfg.Levels).Buckets()))
		e := int(epoch % (1 << epochBits))

		c, err := NewCrypt(key[:], size)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		// ctrRef is the reference: the 8-byte IV header followed by
		// crypto/cipher's CTR stream over [iv_be || 0^8]; nil plain is the
		// zero block.
		ctrRef := func(iv uint64, plain []byte) []byte {
			if plain == nil {
				plain = make([]byte, size)
			}
			var ctr [aes.BlockSize]byte
			binary.BigEndian.PutUint64(ctr[:8], iv)
			ref := make([]byte, SealOverhead+size)
			copy(ref, ctr[:8])
			cipher.NewCTR(blk, ctr[:]).XORKeyStream(ref[SealOverhead:], plain)
			return ref
		}

		// Slot s carries a plaintext when bit s of mask is set and the zero
		// block (nil) otherwise.
		srcs := make([][]byte, n)
		for s := range srcs {
			if mask>>s&1 == 0 {
				continue
			}
			srcs[s] = make([]byte, size)
			for i := range srcs[s] {
				srcs[s][i] = plaintext[(i+s)%size] ^ byte(s)
			}
		}
		core := &treeCore{cfg: cfg, store: NewMemStore(n), crypt: c}
		core.writeBucket(b, e, srcs)
		if slotBits != bits.Len(uint(n-1)) {
			t.Fatalf("slot field is %d bits for %d slots", slotBits, n)
		}
		for s, src := range srcs {
			iv := (uint64(e)<<cfg.Levels|uint64(b))<<slotBits | uint64(s)
			got := core.store.ReadSlot(b, s)
			if want := ctrRef(iv, src); !bytes.Equal(got, want) {
				t.Fatalf("bucket %d slot %d of %d, epoch %d, diverges from cipher.NewCTR:\n  got:  %x\n  want: %x", b, s, n, e, got, want)
			}
			open, err := c.OpenInto(make([]byte, size), got)
			if err != nil {
				t.Fatal(err)
			}
			if src == nil {
				src = make([]byte, size)
			}
			if !bytes.Equal(open, src) {
				t.Fatalf("slot %d round trip corrupted plaintext: got %x want %x", s, open, src)
			}
		}

		iv := core.slotIV(b, 0, e)
		fresh := c.sealWith(nil, iv, plaintext)
		if reused := c.sealWith(make([]byte, 0, SealOverhead+size), iv, plaintext); !bytes.Equal(fresh, reused) {
			t.Fatalf("sealing into a reused buffer diverges:\n  fresh:  %x\n  reused: %x", fresh, reused)
		}
	})
}
