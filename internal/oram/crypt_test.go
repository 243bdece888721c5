package oram

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"stringoram/internal/config"
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
	if len(sealed) != 64+SealOverhead {
		t.Fatalf("sealed length = %d, want %d", len(sealed), 64+SealOverhead)
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
	core := treeCore{cfg: smallCfg(0)}
	plain := make([]byte, 64)
	a := c.sealWith(nil, core.slotIV(123, 4, 5), plain)
	for _, p := range []struct {
		what        string
		bucket      int64
		slot, epoch int
	}{{"buckets", 124, 4, 5}, {"slots", 123, 5, 5}, {"epochs", 123, 4, 6}} {
		b := c.sealWith(nil, core.slotIV(p.bucket, p.slot, p.epoch), plain)
		if bytes.Equal(a[SealOverhead:], b[SealOverhead:]) {
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

// TestStoredHeadersArePublic: a slot's cleartext header must tell an
// observer nothing the op trace does not. After a seeded run, every slot
// the store holds, real or dummy, must carry the IV of its position
// (bucket, slot, the bucket's reshuffle epoch), with Compact Bucket,
// without it (Y = 0), and with the treetop cache (after Save has flushed
// it).
func TestStoredHeadersArePublic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		y       int
		treetop bool
	}{
		{name: "compact", y: 2},
		{name: "sealed-y0", y: 0},
		{name: "treetop", y: 2, treetop: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(tc.y)
			crypt, err := NewCrypt(testKey(), cfg.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			store := NewMemStore(cfg.SlotsPerBucket())
			r, err := NewRing(cfg, 0x4ead, &Options{Store: store, Crypt: crypt, TreetopCache: tc.treetop})
			if err != nil {
				t.Fatal(err)
			}
			runSerialTrace(t, r, cfg, genTrace(1500, 0x9b1c))
			saveBytes(t, r)
			stored, private := 0, 0
			store.eachBucket(func(idx int64, slots [][]byte) {
				b := r.buckets.get(idx)
				for s, sealed := range slots {
					if sealed == nil {
						continue
					}
					stored++
					if binary.BigEndian.Uint64(sealed) != r.slotIV(idx, s, b.Epoch) {
						private++
					}
				}
			})
			if private != 0 || stored == 0 {
				t.Fatalf("%d of %d stored slots carry a header that is not the IV of their position", private, stored)
			}
		})
	}
}

// TestSealDummyAtDeterministic: a dummy is the zero block sealed at its
// position, so sealing it at one (bucket, slot, epoch) twice must give
// identical bytes, headed by that position's IV, that open to zeros.
func TestSealDummyAtDeterministic(t *testing.T) {
	c, _ := NewCrypt(testKey(), 64)
	core := treeCore{cfg: smallCfg(0)}
	iv := core.slotIV(123, 4, 5)
	a := c.sealWith(nil, iv, nil)
	if !bytes.Equal(a, c.sealWith(nil, iv, nil)) {
		t.Fatal("the position seal is not deterministic")
	}
	if binary.BigEndian.Uint64(a) != iv {
		t.Fatalf("header %#x, want the position IV %#x", binary.BigEndian.Uint64(a), iv)
	}
	got, err := c.OpenInto(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("dummy does not decrypt to zeros")
	}
}

// TestSlotIVInjective: slotIV packs (epoch, bucket, slot) into disjoint
// fields, so no two positions share an IV. Every combination of the
// fields' smallest and largest values must decode back to itself, in a
// small tree and in the deepest geometry the sealed-tree check admits
// (an epoch field of exactly minEpochBits), which one more level fails.
func TestSlotIVInjective(t *testing.T) {
	deepest := smallCfg(0)
	slotBits, _ := ivBits(deepest)
	deepest.Levels = 64 - minEpochBits - slotBits
	crypt, _ := NewCrypt(testKey(), deepest.BlockSize)
	if err := checkSealGeometry(deepest, crypt); err != nil {
		t.Fatal(err)
	}
	tooDeep := deepest
	tooDeep.Levels++
	if checkSealGeometry(tooDeep, crypt) == nil {
		t.Fatalf("a %d-level tree leaves a %d-bit epoch, yet passed the check", tooDeep.Levels, minEpochBits-1)
	}
	if _, err := NewRing(tooDeep, 1, &Options{Store: NewMemStore(tooDeep.SlotsPerBucket()), Crypt: crypt}); err == nil {
		t.Fatal("NewRing sealed a tree whose IVs leave the epoch under 32 bits")
	}
	if _, err := NewPath(4, 33, deepest.BlockSize, 100, 1, &Options{Crypt: crypt}); err == nil {
		t.Fatal("NewPath sealed a tree whose IVs leave the epoch under 32 bits")
	}
	for _, cfg := range []config.ORAM{smallCfg(0), smallCfg(2), deepest} {
		core := treeCore{cfg: cfg}
		slotBits, epochBits := ivBits(cfg)
		seen := make(map[uint64]bool)
		for _, bucket := range []int64{0, 1, NewTree(cfg.Levels).Buckets() - 1} {
			for _, slot := range []int{0, 1, cfg.SlotsPerBucket() - 1} {
				for _, epoch := range []int{0, 1, 1<<epochBits - 1} {
					iv := core.slotIV(bucket, slot, epoch)
					gotSlot := int(iv & (1<<slotBits - 1))
					gotBucket := int64(iv >> slotBits & (1<<cfg.Levels - 1))
					gotEpoch := int(iv >> (slotBits + cfg.Levels))
					if gotSlot != slot || gotBucket != bucket || gotEpoch != epoch || seen[iv] {
						t.Fatalf("%d levels: slotIV(%d, %d, %d) = %#x decodes to (%d, %d, %d), repeated %v",
							cfg.Levels, bucket, slot, epoch, iv, gotBucket, gotSlot, gotEpoch, seen[iv])
					}
					seen[iv] = true
				}
			}
		}
	}
}
