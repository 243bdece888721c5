package oram

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func testKey() []byte { return []byte("0123456789abcdef") }

func TestSealOpenRoundTrip(t *testing.T) {
	c, err := NewCrypt(testKey(), 64)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 64)
	for i := range plain {
		plain[i] = byte(i * 7)
	}
	sealed := c.SealInto(nil, plain)
	if len(sealed) != 64 {
		t.Fatalf("sealed length = %d, want 64", len(sealed))
	}
	got, err := c.OpenInto(nil, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("round trip corrupted data")
	}
}

func TestSealRoundTripProperty(t *testing.T) {
	c, err := NewCrypt(testKey(), 32)
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(data [32]byte) bool {
		got, err := c.OpenInto(nil, c.SealInto(nil, data[:]))
		return err == nil && bytes.Equal(got, data[:])
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestSealFreshness: the same plaintext sealed at another bucket, slot or
// epoch must produce a different ciphertext; otherwise write-backs of
// unchanged blocks would leak.
func TestSealFreshness(t *testing.T) {
	c, _ := NewCrypt(testKey(), 64)
	plain := make([]byte, 64)
	seal := func(bucket int64, epoch, slot int) []byte {
		out := make([]byte, 64)
		c.cryptAt(out, plain, bucket, epoch, slot)
		return out
	}
	a := seal(123, 5, 4)
	for _, p := range []struct {
		what        string
		bucket      int64
		epoch, slot int
	}{{"buckets", 124, 5, 4}, {"slots", 123, 5, 5}, {"epochs", 123, 6, 4}} {
		if bytes.Equal(a, seal(p.bucket, p.epoch, p.slot)) {
			t.Fatalf("two %s share a ciphertext", p.what)
		}
	}
}

func TestSealNilIsDummy(t *testing.T) {
	c, _ := NewCrypt(testKey(), 64)
	sealed := c.SealInto(nil, nil)
	got, err := c.OpenInto(nil, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("dummy seal did not decrypt to a zero block")
	}
}

func TestDummyIndistinguishableLength(t *testing.T) {
	c, _ := NewCrypt(testKey(), 64)
	real := c.SealInto(nil, bytes.Repeat([]byte{0xAA}, 64))
	dummy := c.SealInto(nil, nil)
	if len(real) != len(dummy) {
		t.Fatalf("real (%d) and dummy (%d) ciphertext lengths differ", len(real), len(dummy))
	}
}

func TestSealCiphertextNotPlaintext(t *testing.T) {
	c, _ := NewCrypt(testKey(), 64)
	plain := bytes.Repeat([]byte{0x5A}, 64)
	sealed := c.SealInto(nil, plain)
	if bytes.Contains(sealed, plain[:16]) {
		t.Fatal("ciphertext contains plaintext prefix")
	}
}

func TestOpenRejectsBadLength(t *testing.T) {
	c, _ := NewCrypt(testKey(), 64)
	if _, err := c.OpenInto(nil, make([]byte, 10)); err == nil {
		t.Fatal("Open accepted a truncated sealed block")
	}
}

func TestSealRejectsBadLength(t *testing.T) {
	c, _ := NewCrypt(testKey(), 64)
	defer func() {
		if recover() == nil {
			t.Fatal("SealInto accepted a wrong-size plaintext")
		}
	}()
	c.SealInto(nil, make([]byte, 63))
}

func TestNewCryptRejectsBadKey(t *testing.T) {
	if _, err := NewCrypt([]byte("short"), 64); err == nil {
		t.Fatal("NewCrypt accepted a short key")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	c1, _ := NewCrypt(testKey(), 64)
	c2, _ := NewCrypt([]byte("fedcba9876543210"), 64)
	plain := bytes.Repeat([]byte{1}, 64)
	s := c1.SealInto(nil, plain)
	got, err := c2.OpenInto(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, plain) {
		t.Fatal("decryption under the wrong key returned the plaintext")
	}
}

// TestStoredSlotsOpenAtPosition: a stored slot carries no header, so it
// tells an observer nothing beyond its ciphertext. After a seeded run,
// every slot the store holds, real or dummy, must be exactly BlockSize
// bytes and must open at its position (bucket, slot, the bucket's
// reshuffle epoch): a dummy to the zero block and a resident real to the
// block's last written contents. It runs on the uncached reference
// (newUncachedRing) with Compact Bucket and without it (Y = 0), and with
// the treetop cache every functional Ring runs (after Save has flushed
// it).
func TestStoredSlotsOpenAtPosition(t *testing.T) {
	for _, tc := range []struct {
		name     string
		y        int
		uncached bool
	}{
		{name: "compact", y: 2, uncached: true},
		{name: "sealed-y0", y: 0, uncached: true},
		{name: "treetop", y: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(tc.y)
			crypt, err := NewCrypt(testKey(), cfg.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			store := NewMemStore(cfg.SlotsPerBucket())
			opts := &Options{Store: store, Crypt: crypt}
			var r *Ring
			if tc.uncached {
				r = newUncachedRing(t, cfg, 0x4ead, opts)
			} else if r, err = NewRing(cfg, 0x4ead, opts); err != nil {
				t.Fatal(err)
			}
			trace := genTrace(1500, 0x9b1c)
			runSerialTrace(t, r, cfg, trace)
			saveBytes(t, r)
			latest := make(map[BlockID][]byte) // block -> last written contents
			for _, st := range trace {
				if st.write {
					latest[st.id] = blockData(cfg, st.id, st.ver)
				}
			}
			zero := make([]byte, cfg.BlockSize)
			dummies, reals := 0, 0
			store.eachBucket(func(idx int64, slots [][]byte) {
				b := r.buckets.get(idx)
				for s, sealed := range slots {
					if sealed == nil {
						continue
					}
					if len(sealed) != cfg.BlockSize {
						t.Fatalf("bucket %d slot %d stores %d bytes, want %d", idx, s, len(sealed), cfg.BlockSize)
					}
					sl := b.slot(s)
					if !sl.Valid {
						continue // consumed: may hold a copy of a block since moved
					}
					want := zero
					if sl.Real {
						want, reals = latest[sl.ID], reals+1
						if want == nil {
							want = zero
						}
					} else {
						dummies++
					}
					got := make([]byte, cfg.BlockSize)
					crypt.cryptAt(got, sealed, idx, b.Epoch, s)
					if !bytes.Equal(got, want) {
						t.Fatalf("bucket %d slot %d (real %v) opens at its position to %x, want %x", idx, s, sl.Real, got, want)
					}
				}
			})
			if dummies == 0 || reals == 0 {
				t.Fatalf("checked %d dummy and %d real slots, want both", dummies, reals)
			}
		})
	}
}

// TestSealDummyAtDeterministic: a dummy is the zero block sealed at its
// position, so sealing it at one (bucket, epoch, slot) twice must give
// identical bytes, the bucket seal's bytes for that slot, which open to
// zeros.
func TestSealDummyAtDeterministic(t *testing.T) {
	c, _ := NewCrypt(testKey(), 64)
	a, b := make([]byte, 64), make([]byte, 64)
	c.cryptAt(a, nil, 123, 5, 4)
	c.cryptAt(b, nil, 123, 5, 4)
	if !bytes.Equal(a, b) {
		t.Fatal("the position seal is not deterministic")
	}
	body := make([]byte, 6*64, 6*64+gcmTagSize)
	c.sealBucket(body, 123, 5)
	if !bytes.Equal(a, body[4*64:5*64]) {
		t.Fatal("a lone slot seal differs from the bucket seal's slot")
	}
	c.cryptAt(b, a, 123, 5, 4)
	if !bytes.Equal(b, make([]byte, 64)) {
		t.Fatal("dummy does not decrypt to zeros")
	}
}

// TestBucketNonceInjective: bucketNonce packs (epoch, bucket) into
// disjoint fields of the 96-bit nonce, so no two positions share a nonce.
// Every combination of the fields' smallest and largest values, in trees
// up to the deepest config.ORAM admits (40 levels, whose buckets must fit
// the nonceBucketBits field), must decode back to itself and be the only
// position with its nonce.
func TestBucketNonceInjective(t *testing.T) {
	type pos struct {
		bucket int64
		epoch  int
	}
	c, _ := NewCrypt(testKey(), 32)
	seen := make(map[[12]byte]pos)
	for _, levels := range []int{2, 8, 40} {
		last := NewTree(levels).Buckets() - 1
		if last >= 1<<nonceBucketBits {
			t.Fatalf("a %d-level tree's last bucket %d overflows the %d-bit nonce bucket field", levels, last, nonceBucketBits)
		}
		for _, bucket := range []int64{0, 1, 1<<32 - 1, 1 << 32, last} {
			for _, epoch := range []int{0, 1, 1<<32 - 1, 1 << 32, 1<<nonceEpochBits - 1} {
				if bucket > last {
					continue
				}
				c.bucketNonce(bucket, epoch)
				hi, lo := binary.BigEndian.Uint64(c.nonce[:8]), binary.BigEndian.Uint32(c.nonce[8:])
				got := pos{bucket: int64(hi&(1<<(nonceBucketBits-32)-1))<<32 | int64(lo), epoch: int(hi >> (nonceBucketBits - 32))}
				if prev, dup := seen[c.nonce]; got != (pos{bucket, epoch}) || dup && prev != got {
					t.Fatalf("bucketNonce(%d, %d) = %x decodes to %+v, also the nonce of %+v", bucket, epoch, c.nonce, got, prev)
				}
				seen[c.nonce] = got
			}
		}
	}
}
