package oram

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"stringoram/internal/rng"
)

func newFunctionalPath(t *testing.T, z, levels int, seed uint64) *Path {
	t.Helper()
	crypt, err := NewCrypt(testKey(), 32)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPath(z, levels, 32, 300, seed, &Options{
		Store: NewMemStore(z),
		Crypt: crypt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPathRejectsBadParams(t *testing.T) {
	cases := []struct{ z, levels, block, stash int }{
		{0, 8, 64, 100},
		{4, 1, 64, 100},
		{4, 50, 64, 100},
		{4, 8, 0, 100},
		{4, 8, 64, 0},
	}
	for _, c := range cases {
		if _, err := NewPath(c.z, c.levels, c.block, c.stash, 1, nil); err == nil {
			t.Errorf("NewPath(%+v) accepted bad params", c)
		}
	}
}

func TestPathFunctionalRoundTrip(t *testing.T) {
	p := newFunctionalPath(t, 4, 8, 71)
	src := rng.New(73)
	ref := make(map[BlockID][]byte)
	for i := 0; i < 2000; i++ {
		id := BlockID(src.Intn(64))
		if src.Bool() {
			d := make([]byte, 32)
			for j := range d {
				d[j] = byte(int(id) + i + j)
			}
			if _, err := p.Write(id, d); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			ref[id] = d
		} else {
			got, _, err := p.Read(id)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			want := ref[id]
			if want == nil {
				want = make([]byte, 32)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: block %d corrupted", i, id)
			}
		}
		if i%500 == 0 {
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPathAccessShapeIsConstant(t *testing.T) {
	const z, levels = 4, 8
	p, err := NewPath(z, levels, 64, 300, 79, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		_, ops, err := p.Access(BlockID(i%40), i%2 == 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) != 1 {
			t.Fatalf("Path ORAM emitted %d ops, want 1", len(ops))
		}
		op := ops[0]
		if op.Reads() != z*levels || op.Writes() != z*levels {
			t.Fatalf("access %d: %d reads %d writes, want %d/%d",
				i, op.Reads(), op.Writes(), z*levels, z*levels)
		}
	}
}

func TestPathStashStaysBounded(t *testing.T) {
	p, err := NewPath(4, 10, 64, 300, 83, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i := 0; i < 5000; i++ {
		if _, _, err := p.Access(BlockID(i%256), false, nil); err != nil {
			t.Fatal(err)
		}
		if p.StashLen() > peak {
			peak = p.StashLen()
		}
	}
	// Path ORAM stash occupancy is O(log N) w.h.p.; 300 would indicate
	// a placement bug.
	if peak > 60 {
		t.Fatalf("stash peak %d is implausibly high for Z=4", peak)
	}
}

func TestPathRejectsNegativeID(t *testing.T) {
	p, _ := NewPath(4, 8, 64, 300, 1, nil)
	if _, _, err := p.Access(-1, false, nil); err == nil {
		t.Fatal("accepted negative id")
	}
}

func TestPathRejectsWrongSizeWrite(t *testing.T) {
	p := newFunctionalPath(t, 4, 6, 3)
	if _, err := p.Write(1, []byte{1}); err == nil {
		t.Fatal("accepted wrong-size write")
	}
}

// TestPathTraceGolden pins Path ORAM's complete observable behaviour for
// a seeded 2k-op mixed trace in the three store modes: every op (kind,
// path and each access's bucket, level, slot and direction), every
// returned block and the final Stats. The hashes were captured before
// Path became a client of the shared tree-ORAM core; one failing means
// the refactor changed what Path emits or returns. Sealed store bytes
// are deliberately not hashed: Path's dummies seal deterministically per
// (bucket, slot, epoch) like Ring's, which is a byte-level difference
// from the fresh-counter zero blocks it wrote before. The hashes were
// re-captured twice, each time Stats lost fields Path never bumps: the
// %+v print of Stats names every field. First XORDecodes; then
// DummyReadPaths, ReshuffledBuckets and StashHits, and re-inserting
// those three as 0 into today's print gives the previous hashes
// (6957d683…, 390302fa…, 390302fa…).
func TestPathTraceGolden(t *testing.T) {
	const z, levels, block = 4, 8, 32
	want := map[string]string{
		"timing":    "22797ef02fb0603b3718ab1cf18b07c3e7e12fbe0ae675cdec38e97a6ed8f191",
		"plaintext": "cef8f16a0aef3274af8b47de6b4f42c0fb330d03f2709aa0afc701c6533844ce",
		"sealed":    "cef8f16a0aef3274af8b47de6b4f42c0fb330d03f2709aa0afc701c6533844ce",
	}
	for _, mode := range []string{"timing", "plaintext", "sealed"} {
		t.Run(mode, func(t *testing.T) {
			var opts *Options
			if mode != "timing" {
				opts = &Options{Store: NewMemStore(z)}
			}
			if mode == "sealed" {
				crypt, err := NewCrypt(testKey(), block)
				if err != nil {
					t.Fatal(err)
				}
				opts.Crypt = crypt
			}
			p, err := NewPath(z, levels, block, 300, 0x9a7400, opts)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			word := func(vs ...int64) {
				for _, v := range vs {
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], uint64(v))
					h.Write(b[:])
				}
			}
			for _, st := range genTrace(2000, 0x9a7401) {
				var data []byte
				if st.write {
					data = make([]byte, block)
					for j := range data {
						data[j] = byte(int(st.id)*7 + st.ver + j)
					}
				}
				got, ops, err := p.Access(st.id, st.write, data)
				if err != nil {
					t.Fatalf("step %d: %v", st.ver, err)
				}
				word(int64(len(ops)))
				for i := range ops {
					word(int64(ops[i].Kind), int64(ops[i].Path), int64(len(ops[i].Accesses)))
					for _, a := range ops[i].Accesses {
						w := int64(0)
						if a.Write {
							w = 1
						}
						word(a.Bucket, int64(a.Level), int64(a.Slot), w)
					}
				}
				word(int64(len(got)))
				h.Write(got)
			}
			fmt.Fprintf(h, "%+v", p.Stats())
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[mode] {
				t.Fatalf("Path %s trace golden drifted:\n got %s\nwant %s", mode, got, want[mode])
			}
		})
	}
}
