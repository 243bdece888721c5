package oram

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"
)

// FuzzSealIntoMatchesCTR cross-checks the contracts the alloc-free data
// plane rests on, across arbitrary keys, counters, and block sizes:
//
//  1. the hand-rolled keystream matches crypto/cipher's CTR stream for
//     the IV [ctr_be || 0^8], for real and deterministic dummy seals;
//  2. sealing into a reused buffer produces the same bytes as sealing
//     into a fresh one;
//  3. OpenInto(SealInto(x)) round-trips back to x.
func FuzzSealIntoMatchesCTR(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("hello ring oram padding to size!"), uint64(1))
	f.Add([]byte("another-16b-key!"), make([]byte, 61), uint64(1<<40))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), []byte{0xff}, uint64(0))
	f.Fuzz(func(t *testing.T, keySeed, plaintext []byte, ctr uint64) {
		if len(plaintext) == 0 || len(plaintext) > 1024 {
			t.Skip()
		}
		var key [16]byte
		copy(key[:], keySeed)
		size := len(plaintext)

		c, err := NewCrypt(key[:], size)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		// ctrRef is the reference: the 8-byte counter header followed by
		// crypto/cipher's CTR stream over [ctr_be || 0^8].
		ctrRef := func(ctr uint64, plain []byte) []byte {
			var iv [aes.BlockSize]byte
			binary.BigEndian.PutUint64(iv[:8], ctr)
			ref := make([]byte, SealOverhead+size)
			copy(ref, iv[:8])
			cipher.NewCTR(blk, iv[:]).XORKeyStream(ref[SealOverhead:], plain)
			return ref
		}

		// Start the write counter at the fuzzed value so high counter
		// bits exercise the IV layout, not just small sequential ones.
		c.SetCounter(ctr)
		fresh := c.SealInto(nil, plaintext)
		if want := ctrRef(ctr+1, plaintext); !bytes.Equal(fresh, want) {
			t.Fatalf("SealInto diverges from cipher.NewCTR:\n  got:  %x\n  want: %x", fresh, want)
		}
		c.SetCounter(ctr)
		reused := c.SealInto(make([]byte, 0, SealOverhead+size), plaintext)
		if !bytes.Equal(fresh, reused) {
			t.Fatalf("SealInto into a reused buffer diverges:\n  fresh:  %x\n  reused: %x", fresh, reused)
		}

		// Round trips, through both the allocating and reusing paths.
		open1, err := c.OpenInto(nil, fresh)
		if err != nil {
			t.Fatal(err)
		}
		open2, err := c.OpenInto(make([]byte, size), fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(open1, plaintext) || !bytes.Equal(open2, plaintext) {
			t.Fatalf("round trip corrupted plaintext: fresh=%x reused=%x want=%x", open1, open2, plaintext)
		}

		// Deterministic dummy sealing: the zero block under dummyCounter.
		bucket, slot, epoch := int64(ctr%1024), int(ctr%7), int(ctr%5)
		d1 := c.SealDummyInto(nil, bucket, slot, epoch)
		if want := ctrRef(dummyCounter(bucket, slot, epoch), make([]byte, size)); !bytes.Equal(d1, want) {
			t.Fatalf("SealDummyInto diverges from cipher.NewCTR:\n  got:  %x\n  want: %x", d1, want)
		}
		d2 := c.SealDummyInto(reused, bucket, slot, epoch)
		if !bytes.Equal(d1, d2) {
			t.Fatalf("SealDummyInto into a reused buffer diverges")
		}
	})
}
