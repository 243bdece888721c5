package oram

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"

	"stringoram/internal/config"
)

// FuzzSealIntoMatchesCTR cross-checks the contracts the alloc-free data
// plane rests on, across arbitrary keys, counters, and block sizes:
//
//  1. the hand-rolled keystream matches crypto/cipher's CTR stream for
//     the IV [ctr_be || 0^8], for real and deterministic dummy seals;
//  2. sealing into a reused buffer produces the same bytes as sealing
//     into a fresh one;
//  3. OpenInto(SealInto(x)) round-trips back to x;
//  4. a refill's one-pass bucket seal (writeBucket) writes every slot
//     exactly as the per-slot reference would, over a fuzzed mix of up to
//     32 real, nil-data real and dummy slots, consuming real counters in
//     ascending slot order.
func FuzzSealIntoMatchesCTR(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("hello ring oram padding to size!"), uint64(1), uint8(11), uint64(0x0000_0001_0000_0a5a))
	f.Add([]byte("another-16b-key!"), make([]byte, 61), uint64(1<<40), uint8(31), uint64(0xffff_0000_ffff_ffff))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), []byte{0xff}, uint64(0), uint8(0), uint64(1))
	f.Fuzz(func(t *testing.T, keySeed, plaintext []byte, ctr uint64, nSlots uint8, mask uint64) {
		if len(plaintext) == 0 || len(plaintext) > 1024 {
			t.Skip()
		}
		// Real write counters live below the dummy domain (Load and
		// nextCounter enforce it); keep room for a bucket of them.
		ctr %= dummyDomain - 64
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
		// crypto/cipher's CTR stream over [ctr_be || 0^8]; nil plain is
		// the zero block.
		ctrRef := func(ctr uint64, plain []byte) []byte {
			if plain == nil {
				plain = make([]byte, size)
			}
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
		if want := ctrRef(dummyCounter(bucket, slot, epoch), nil); !bytes.Equal(d1, want) {
			t.Fatalf("SealDummyInto diverges from cipher.NewCTR:\n  got:  %x\n  want: %x", d1, want)
		}
		d2 := c.SealDummyInto(reused, bucket, slot, epoch)
		if !bytes.Equal(d1, d2) {
			t.Fatalf("SealDummyInto into a reused buffer diverges")
		}

		// The bucket seal: slot s is real when bit s of mask is set, and a
		// real slot carries nil data when bit 32+s is set too.
		n := int(nSlots)%32 + 1
		owner := make([]int, n)
		var refs [][]byte
		for s := range owner {
			owner[s] = -1
			if mask>>s&1 == 0 {
				continue
			}
			owner[s] = len(refs)
			var data []byte
			if mask>>(32+s)&1 == 0 {
				data = make([]byte, size)
				for i := range data {
					data[i] = plaintext[(i+s)%size] ^ byte(s)
				}
			}
			refs = append(refs, data)
		}
		core := &treeCore{cfg: config.ORAM{BlockSize: size}, store: NewMemStore(n), crypt: c}
		c.SetCounter(ctr)
		core.writeBucket(bucket, epoch, owner, refs)
		next := ctr
		for s, i := range owner {
			var want []byte
			if i >= 0 {
				next++
				want = ctrRef(next, refs[i])
			} else {
				want = ctrRef(dummyCounter(bucket, s, epoch), nil)
			}
			got := core.store.ReadSlot(bucket, s)
			if !bytes.Equal(got, want) {
				t.Fatalf("bucket slot %d of %d (owner %d) diverges from the per-slot reference:\n  got:  %x\n  want: %x", s, n, i, got, want)
			}
		}
		if c.Counter() != next {
			t.Fatalf("bucket seal left the counter at %d, want %d (%d reals from %d)", c.Counter(), next, len(refs), ctr)
		}
	})
}
