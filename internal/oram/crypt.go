package oram

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"

	"stringoram/internal/config"
)

// Crypt is the controller's encryption/decryption logic (the "E/D Logic"
// box of Fig. 1). Every block written to memory is encrypted under
// AES-128-CTR with an IV fresh per (slot, epoch): the controller seals
// real and dummy slots alike under the IV of the slot's public position
// (treeCore.slotIV), and a bucket is rewritten only after a reshuffle
// advances its epoch, so no IV repeats under one key and real blocks are
// indistinguishable from dummies on the bus.
//
// The sealed layout is: the 8-byte IV counter followed by the ciphertext,
// so sealed blocks are BlockSize+8 bytes. The header is a public value:
// anyone who sees the op trace can compute it.
//
// Every AES call goes through one kernel, cryptSlots, which takes a batch
// of slots: it lays out all their counter blocks in the output, encrypts
// them in place back to back, then XORs the plaintexts in. A refill seals
// a whole bucket in one call (sealSlots); sealWith and OpenInto are
// one-slot calls. The bytes are bit-identical to cipher.NewCTR's, which
// is not used because it allocates a stream object per call. Like Ring, a
// Crypt is confined to one controller goroutine: the tail scratch is
// reused across calls without synchronization.
type Crypt struct {
	block     cipher.Block
	blockSize int

	// tail receives the one keystream block a slot's output cannot hold:
	// the last, partial one when BlockSize is not a multiple of 16.
	tail [aes.BlockSize]byte
}

// SealOverhead is the number of bytes SealInto adds to a plaintext block.
const SealOverhead = 8

// NewCrypt returns encryption logic for plaintext blocks of blockSize
// bytes under the given 16-byte key.
func NewCrypt(key []byte, blockSize int) (*Crypt, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("oram: key must be 16 bytes, got %d", len(key))
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("oram: block size must be positive, got %d", blockSize)
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Crypt{block: b, blockSize: blockSize}, nil
}

// RingKey derives the sealing key of one Ring incarnation from a master
// key: HMAC-SHA256(master, ring || salt) truncated to 16 bytes. Seal IVs
// are tree positions, so two trees under one key whose contents differ
// (two Rings, or diverging copies of one) reuse keystreams: each Ring
// takes its own ring number, each incarnation its own salt (NewSalt).
func RingKey(master []byte, ring uint64, salt []byte) []byte {
	m := hmac.New(sha256.New, master)
	m.Write(binary.BigEndian.AppendUint64(nil, ring))
	m.Write(salt)
	return m.Sum(nil)[:16]
}

// NewSalt returns 16 random bytes naming one Ring incarnation.
func NewSalt() []byte {
	salt := make([]byte, 16)
	rand.Read(salt) // never fails: a broken system source crashes the process
	return salt
}

// cryptSlot is one slot of a kernel batch: its IV counter and the bytes
// XORed into its keystream, nil for none (the zero block's seal).
type cryptSlot struct {
	ctr uint64
	src []byte `oramlint:"secret,scratch"`
}

// cryptSlots is the one AES kernel. out holds len(slots) records of
// stride bytes; the last BlockSize bytes of record k receive slots[k].src
// XOR the AES-CTR keystream for the IV [ctr_be || 0^8]. This is
// bit-identical to cipher.NewCTR with that IV: CTR mode encrypts
// successive counter blocks, incrementing the IV as one 128-bit
// big-endian integer, and because the low half starts at zero and a block
// never spans 2^64 AES blocks, block j's counter is exactly
// [ctr_be || j_be]. A src must be BlockSize bytes and must not alias out.
func (c *Crypt) cryptSlots(out []byte, stride int, slots []cryptSlot) {
	bs := c.blockSize
	full := bs &^ (aes.BlockSize - 1)
	// Counter blocks go straight into the output, where their keystream
	// lands; the encryptions then run back to back with no XOR between.
	// Writing every counter first also matters on its own: AES loads each
	// block as one 16-byte load, which cannot be forwarded from the two
	// 8-byte stores that just wrote it, so encrypting each block right
	// after writing it stalls (about 1.8x the time per slot on an x86-64
	// Xeon, BenchmarkSeal/bucket).
	for k, s := range slots {
		body := out[(k+1)*stride-bs : (k+1)*stride]
		for j := 0; j < full; j += aes.BlockSize {
			binary.BigEndian.PutUint64(body[j:], s.ctr)
			binary.BigEndian.PutUint64(body[j+8:], uint64(j/aes.BlockSize))
		}
	}
	for k := range slots {
		body := out[(k+1)*stride-bs : (k+1)*stride]
		for j := 0; j < full; j += aes.BlockSize {
			c.block.Encrypt(body[j:j+aes.BlockSize], body[j:j+aes.BlockSize])
		}
	}
	for k, s := range slots {
		body := out[(k+1)*stride-bs : (k+1)*stride]
		if full < bs {
			binary.BigEndian.PutUint64(c.tail[:8], s.ctr)
			binary.BigEndian.PutUint64(c.tail[8:], uint64(full/aes.BlockSize))
			c.block.Encrypt(c.tail[:], c.tail[:])
			copy(body[full:], c.tail[:])
		}
		if s.src != nil {
			subtle.XORBytes(body, body, s.src)
		}
	}
}

// sealSlots seals every slot of the batch into dst, which must hold
// len(slots) sealed blocks back to back: the counter header, then the
// ciphertext.
func (c *Crypt) sealSlots(dst []byte, slots []cryptSlot) {
	n := c.sealedLen()
	for k, s := range slots {
		binary.BigEndian.PutUint64(dst[k*n:], s.ctr)
	}
	c.cryptSlots(dst, n, slots)
}

// sealedLen is the length of one sealed block.
func (c *Crypt) sealedLen() int { return SealOverhead + c.blockSize }

// ensure returns buf resized to n bytes, reusing its backing array when
// the capacity suffices and allocating otherwise.
func ensure(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// SealInto encrypts a plaintext block (nil seals the zero block) into
// dst's backing array, growing it only when the capacity is short of
// SealOverhead+BlockSize bytes (nil allocates), and returns the sealed
// slice. It seals at IV 0, so two calls under one key share a keystream.
// No controller calls it: they seal every slot at the IV of its position
// (treeCore.writeBucket).
func (c *Crypt) SealInto(dst, plaintext []byte) []byte {
	if plaintext != nil && len(plaintext) != c.blockSize {
		panic(fmt.Sprintf("oram: SealInto with %d-byte plaintext, want %d", len(plaintext), c.blockSize))
	}
	return c.sealWith(dst, 0, plaintext)
}

// sealWith seals plaintext (nil for the zero block) under an explicit
// counter into dst.
func (c *Crypt) sealWith(dst []byte, ctr uint64, plaintext []byte) []byte {
	dst = ensure(dst, c.sealedLen())
	c.sealSlots(dst, []cryptSlot{{ctr: ctr, src: plaintext}})
	return dst
}

// minEpochBits is the narrowest epoch field a sealed geometry may leave in
// a slot's IV: 2^32 reshuffles of one bucket before an IV could repeat.
const minEpochBits = 32

// ivBits returns the widths of a slot IV's slot field (enough for
// SlotsPerBucket-1) and of its epoch field, which takes what the bucket
// field (Levels bits: a tree has 2^Levels-1 buckets) and the slot field
// leave of 64 bits.
func ivBits(cfg config.ORAM) (slotBits, epochBits int) {
	slotBits = bits.Len(uint(cfg.SlotsPerBucket() - 1))
	return slotBits, 64 - cfg.Levels - slotBits
}

// checkSealGeometry rejects a tree sealed by crypt (nil for none) whose
// slot IVs leave the epoch fewer than minEpochBits bits.
func checkSealGeometry(cfg config.ORAM, crypt *Crypt) error {
	if _, eb := ivBits(cfg); crypt != nil && eb < minEpochBits {
		return fmt.Errorf("oram: %d levels of %d-slot buckets leave a %d-bit epoch in the seal IV, want at least %d",
			cfg.Levels, cfg.SlotsPerBucket(), eb, minEpochBits)
	}
	return nil
}

// OpenInto decrypts a sealed block into dst's backing array (grown only
// when too small) and returns the plaintext slice. It returns an error
// when the sealed bytes have the wrong length. dst must not alias sealed.
func (c *Crypt) OpenInto(dst, sealed []byte) ([]byte, error) {
	if len(sealed) != c.sealedLen() {
		return nil, fmt.Errorf("oram: sealed block is %d bytes, want %d", len(sealed), c.sealedLen())
	}
	dst = ensure(dst, c.blockSize)
	c.cryptSlots(dst, c.blockSize, []cryptSlot{{ctr: binary.BigEndian.Uint64(sealed[:8]), src: sealed[SealOverhead:]}})
	return dst, nil
}
