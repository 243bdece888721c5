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
)

// Crypt is the controller's encryption/decryption logic (the "E/D Logic"
// box of Fig. 1). A refill seals a whole bucket body — its slots back to
// back, BlockSize bytes each, with no header — in one AES-GCM pass under
// the nonce of the bucket's position (bucketNonce), real and dummy slots
// alike, and drops the tag: Ring ORAM opens single slots, never a whole
// bucket, so nothing would check it. The nonce is trusted controller
// metadata, never read from the store, and public: the op trace names the
// bucket, and the epoch counts its reshuffles. A bucket is rewritten only
// after a reshuffle advances its epoch, so no nonce repeats under one key
// and real blocks are indistinguishable from dummies on the bus.
//
// GCM encrypts the body in CTR mode starting at the counter block
// nonce ‖ be32(2), so body byte o is XORed with byte o%16 of the keystream
// block for nonce ‖ be32(2 + o/16). A one-slot open recomputes exactly
// that keystream (cryptAt), one AES call per counter block, so its bytes
// match the GCM pass (FuzzSealBucketMatchesGCM). Like Ring, a Crypt is
// confined to one controller goroutine: the nonce and tail scratch are
// reused across calls without synchronization.
type Crypt struct {
	block     cipher.Block
	aead      cipher.AEAD
	blockSize int

	// nonce is the current call's bucket nonce. It lives here, not on the
	// stack, so passing it through the AEAD interface does not allocate.
	nonce [12]byte
	// tail receives a keystream block that only partly overlaps a slot.
	tail [aes.BlockSize]byte
}

// SealOverhead is the number of bytes SealInto adds to a plaintext block:
// none, since the nonce comes from the slot's position.
const SealOverhead = 0

// gcmTagSize is the tag GCM appends to a sealed bucket body, which the
// seal buffer must have room for although the tag is dropped.
const gcmTagSize = 16

// The nonce is the 96-bit big-endian integer epoch<<nonceBucketBits |
// bucket. Levels ≤ 40 keeps every bucket index under 2^nonceBucketBits,
// which writeBucket asserts; the epoch takes the remaining 56 bits.
const (
	nonceBucketBits = 40
	nonceEpochBits  = 96 - nonceBucketBits
)

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
	aead, err := cipher.NewGCM(b)
	if err != nil {
		return nil, err
	}
	return &Crypt{block: b, aead: aead, blockSize: blockSize}, nil
}

// RingKey derives the sealing key of one Ring incarnation from a master
// key: HMAC-SHA256(master, ring || salt) truncated to 16 bytes. Seal
// nonces are tree positions, so two trees under one key whose contents
// differ (two Rings, or diverging copies of one) reuse keystreams: each
// Ring takes its own ring number, each incarnation its own salt (NewSalt).
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

// bucketNonce sets c.nonce to the nonce of bucket in the given reshuffle
// epoch: epoch in the high nonceEpochBits bits, bucket in the low
// nonceBucketBits.
func (c *Crypt) bucketNonce(bucket int64, epoch int) {
	binary.BigEndian.PutUint64(c.nonce[:8], uint64(epoch)<<(nonceBucketBits-32)|uint64(bucket)>>32)
	binary.BigEndian.PutUint32(c.nonce[8:], uint32(bucket))
}

// sealBucket encrypts a bucket body in place under the nonce of (bucket,
// epoch) in one GCM pass. The tag lands past the body, so cap(body) must
// leave gcmTagSize spare bytes.
func (c *Crypt) sealBucket(body []byte, bucket int64, epoch int) {
	c.bucketNonce(bucket, epoch)
	c.aead.Seal(body[:0], c.nonce[:], body, nil)
}

// counterBlock writes the counter block of body AES block i into b.
func (c *Crypt) counterBlock(b []byte, i int) {
	copy(b, c.nonce[:])
	binary.BigEndian.PutUint32(b[12:], uint32(2+i))
}

// cryptAt XORs src (nil for the zero block) with the keystream of slot
// `slot` of the body sealed at (bucket, epoch) into dst, which must be
// BlockSize bytes and must not alias src. CTR is its own inverse, so this
// both opens a stored slot and seals a lone one.
func (c *Crypt) cryptAt(dst, src []byte, bucket int64, epoch, slot int) {
	c.bucketNonce(bucket, epoch)
	off, n := slot*c.blockSize, len(dst)
	// Keystream blocks wholly inside the slot span [lead, full); the
	// bytes before and after come from blocks the slot shares with its
	// neighbours, which only a BlockSize that is no multiple of 16 has.
	lead := min(n, -off&(aes.BlockSize-1))
	full := lead + (n-lead)&^(aes.BlockSize-1)
	// Counter blocks go straight into dst, where their keystream lands;
	// the encryptions then run back to back. Writing every counter first
	// matters: AES loads each block as one 16-byte load, which cannot be
	// forwarded from the narrower stores that just wrote it, so
	// encrypting each block right after writing it stalls.
	for j := lead; j < full; j += aes.BlockSize {
		c.counterBlock(dst[j:], (off+j)/aes.BlockSize)
	}
	for j := lead; j < full; j += aes.BlockSize {
		c.block.Encrypt(dst[j:j+aes.BlockSize], dst[j:j+aes.BlockSize])
	}
	if lead > 0 {
		c.counterBlock(c.tail[:], off/aes.BlockSize)
		c.block.Encrypt(c.tail[:], c.tail[:])
		copy(dst[:lead], c.tail[off%aes.BlockSize:])
	}
	if full < n {
		c.counterBlock(c.tail[:], (off+full)/aes.BlockSize)
		c.block.Encrypt(c.tail[:], c.tail[:])
		copy(dst[full:], c.tail[:])
	}
	if src != nil {
		subtle.XORBytes(dst, dst, src)
	}
}

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
// BlockSize bytes (nil allocates), and returns the sealed slice. It seals
// as slot 0 of bucket 0 in epoch 0, so two calls under one key share a
// keystream. No controller calls it: they seal whole buckets at their
// positions (treeCore.writeBucket).
func (c *Crypt) SealInto(dst, plaintext []byte) []byte {
	if plaintext != nil && len(plaintext) != c.blockSize {
		panic(fmt.Sprintf("oram: SealInto with %d-byte plaintext, want %d", len(plaintext), c.blockSize))
	}
	dst = ensure(dst, c.blockSize)
	c.cryptAt(dst, plaintext, 0, 0, 0)
	return dst
}

// OpenInto decrypts a block SealInto sealed into dst's backing array
// (grown only when too small) and returns the plaintext slice. It returns
// an error when the sealed bytes have the wrong length. dst must not
// alias sealed.
func (c *Crypt) OpenInto(dst, sealed []byte) ([]byte, error) {
	if len(sealed) != c.blockSize {
		return nil, fmt.Errorf("oram: sealed block is %d bytes, want %d", len(sealed), c.blockSize)
	}
	dst = ensure(dst, c.blockSize)
	c.cryptAt(dst, sealed, 0, 0, 0)
	return dst, nil
}
