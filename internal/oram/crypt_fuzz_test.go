package oram

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/big"
	"testing"

	"stringoram/internal/config"
)

// FuzzSealBucketMatchesGCM cross-checks the sealed layout against the
// standard library, across arbitrary keys, every block size from 1 to
// 1024 bytes, buckets of a 40-level tree, epochs, and mixes of up to 32
// plaintext and nil (zero-block) slots:
//
//  1. a refill (writeBucket) stores slot s as bytes [s*BlockSize,
//     (s+1)*BlockSize) of crypto/cipher's AES-GCM seal of the bucket body
//     (the slots back to back) under the 96-bit big-endian nonce
//     epoch<<40 | bucket, with the tag removed;
//  2. every slot opens back to its plaintext at its position, also when
//     one AES block spans several slots (BlockSize < 16) and when a slot
//     starts and ends inside AES blocks it shares with its neighbours
//     (BlockSize no multiple of 16, such as 61);
//  3. SealInto seals as slot 0 of bucket 0 in epoch 0.
func FuzzSealBucketMatchesGCM(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("hello ring oram"), uint16(63), uint64(11), uint64(1), uint8(11), uint64(0x0a5a))
	f.Add([]byte("another-16b-key!"), []byte{0xff, 0}, uint16(60), uint64(1<<40-2), uint64(1<<56-1), uint8(31), uint64(0xffff_0000_ffff_ffff))
	f.Add([]byte{}, []byte{7}, uint16(0), uint64(1<<32), uint64(1<<32), uint8(0), uint64(1))
	f.Add([]byte("k"), []byte{1, 2, 3}, uint16(1023), uint64(5), uint64(7), uint8(3), uint64(0b1011))
	f.Add([]byte("three-byte-slots"), []byte{9, 8}, uint16(2), uint64(3), uint64(2), uint8(20), uint64(0x5555_5555))
	f.Fuzz(func(t *testing.T, keySeed, fill []byte, sizeSeed uint16, bucket, epoch uint64, nSlots uint8, mask uint64) {
		if len(fill) == 0 {
			t.Skip()
		}
		var key [16]byte
		copy(key[:], keySeed)
		size := int(sizeSeed)%1024 + 1
		n := int(nSlots)%32 + 1
		cfg := config.ORAM{Z: n, Levels: 40, BlockSize: size}
		b := int64(bucket % uint64(NewTree(cfg.Levels).Buckets()))
		e := int(epoch % (1 << nonceEpochBits))

		c, err := NewCrypt(key[:], size)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		aead, err := cipher.NewGCM(blk)
		if err != nil {
			t.Fatal(err)
		}
		// gcmRef is the reference: the stdlib GCM seal of body under the
		// nonce epoch<<40 | bucket, tag removed.
		gcmRef := func(bucket int64, epoch int, body []byte) []byte {
			nonce := new(big.Int).Lsh(big.NewInt(int64(epoch)), 40)
			nonce.Or(nonce, big.NewInt(bucket))
			return aead.Seal(nil, nonce.FillBytes(make([]byte, aead.NonceSize())), body, nil)[:len(body)]
		}

		// Slot s carries a plaintext when bit s of mask is set and the zero
		// block (nil) otherwise.
		srcs := make([][]byte, n)
		body := make([]byte, n*size)
		for s := range srcs {
			if mask>>s&1 == 0 {
				continue
			}
			srcs[s] = body[s*size : (s+1)*size]
			for i := range srcs[s] {
				srcs[s][i] = fill[(i+s)%len(fill)] ^ byte(s)
			}
		}
		core := &treeCore{cfg: cfg, store: NewMemStore(n), crypt: c}
		core.writeBucket(b, e, srcs)
		want := gcmRef(b, e, body)
		for s := range srcs {
			got := core.store.ReadSlot(b, s)
			if !bytes.Equal(got, want[s*size:(s+1)*size]) {
				t.Fatalf("bucket %d slot %d of %d, epoch %d, diverges from cipher.NewGCM:\n  got:  %x\n  want: %x", b, s, n, e, got, want[s*size:(s+1)*size])
			}
			if open := core.readSlotData(b, e, s); !bytes.Equal(open, body[s*size:(s+1)*size]) {
				t.Fatalf("slot %d round trip corrupted plaintext: got %x want %x", s, open, body[s*size:(s+1)*size])
			}
		}

		if got, want := c.SealInto(nil, body[:size]), gcmRef(0, 0, body[:size]); !bytes.Equal(got, want) {
			t.Fatalf("SealInto diverges from slot 0 of bucket 0 in epoch 0:\n  got:  %x\n  want: %x", got, want)
		}
	})
}
