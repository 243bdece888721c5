package oram

import (
	"bytes"
	"io"
	"testing"
)

// FuzzCryptOpen feeds arbitrary bytes to the sealed-block decoder: it
// must reject or decode without panicking, and anything SealInto produced
// must round trip.
func FuzzCryptOpen(f *testing.F) {
	c, err := NewCrypt(testKey(), 64)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(c.SealInto(nil, bytes.Repeat([]byte{7}, 64)))
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add(make([]byte, 13))

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := c.OpenInto(nil, data)
		if err != nil {
			return
		}
		if len(out) != 64 {
			t.Fatalf("Open returned %d bytes", len(out))
		}
	})
}

// FuzzRingAccessSequence drives a small functional ring with fuzzer-chosen
// access patterns and verifies data integrity against a model map plus
// the protocol invariants. Each byte of the input encodes one access:
// low 5 bits select the block, bit 5 selects read/write.
func FuzzRingAccessSequence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 32 + 1, 1, 32 + 2, 2})
	f.Add(bytes.Repeat([]byte{5, 37}, 50))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, pattern []byte) {
		if len(pattern) > 300 {
			pattern = pattern[:300]
		}
		cfg := smallCfg(2)
		crypt, err := NewCrypt(testKey(), cfg.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRing(cfg, 99, &Options{
			Store: NewMemStore(cfg.SlotsPerBucket()),
			Crypt: crypt,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := make(map[BlockID][]byte)
		for i, b := range pattern {
			id := BlockID(b & 31)
			write := b&32 != 0
			if write {
				d := blockData(cfg, id, i)
				if _, err := r.Write(id, d); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				ref[id] = d
			} else {
				got, _, err := r.Read(id)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				want := ref[id]
				if want == nil {
					want = make([]byte, cfg.BlockSize)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: block %d corrupted", i, id)
				}
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLoad feeds arbitrary bytes to the checkpoint decoder, seeded from a
// valid checkpoint and from corruptions of it: Load must return a Ring or
// an error, never panic on an index it did not check or allocate by a
// number it read, and whatever it accepts must satisfy the protocol
// invariants and checkpoint again.
func FuzzLoad(f *testing.F) {
	valid := checkpointForLoadTests(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(corruptCheckpoint(f, valid, func(s *ringSnap) { s.Buckets[0].Epoch = -1 }))
	f.Add(corruptCheckpoint(f, valid, func(s *ringSnap) { s.Cfg = wideCfg() }))
	for _, tc := range inconsistentCheckpoints(f, valid) {
		f.Add(corruptCheckpoint(f, valid, tc.corrupt))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(bytes.NewReader(data), testKey())
		if err != nil {
			return
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("Load accepted a checkpoint that breaks an invariant: %v", err)
		}
		if err := r.Save(io.Discard); err != nil {
			t.Fatalf("a loaded checkpoint does not save: %v", err)
		}
	})
}
