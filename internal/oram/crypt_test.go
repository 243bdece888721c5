package oram

import (
	"bytes"
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

func TestSealFreshness(t *testing.T) {
	// Sealing the same plaintext twice must produce different bytes;
	// otherwise write-backs of unchanged blocks would leak.
	c, _ := NewCrypt(testKey(), 64)
	plain := make([]byte, 64)
	a := c.SealInto(nil, plain)
	b := c.SealInto(nil, plain)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of the same plaintext are identical")
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
