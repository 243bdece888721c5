package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
)

// The generator is the only source of inputs: the program under test sees
// keys, values and the order of operations, never the seed. Every value
// carries (key index, version), so a reply can be checked without a
// second copy of the data.

// valueHeader is the (key, version) prefix every value starts with.
const valueHeader = 8

// fillValue writes the value for (key, ver) into buf: the header, then a
// pattern derived from both so that a reply spliced from two versions fails.
func fillValue(buf []byte, key, ver uint32) {
	binary.LittleEndian.PutUint32(buf[0:], key)
	binary.LittleEndian.PutUint32(buf[4:], ver)
	pat := byte(key*131 + ver*31)
	for i := valueHeader; i < len(buf); i++ {
		buf[i] = pat + byte(i)
	}
}

// checkValue reports whether got is exactly the value for (key, ver).
func checkValue(got []byte, key, ver uint32) bool {
	if len(got) < valueHeader ||
		binary.LittleEndian.Uint32(got[0:]) != key ||
		binary.LittleEndian.Uint32(got[4:]) != ver {
		return false
	}
	pat := byte(key*131 + ver*31)
	for i := valueHeader; i < len(got); i++ {
		if got[i] != pat+byte(i) {
			return false
		}
	}
	return true
}

// oracle holds the last acknowledged version of every key. Keys are
// partitioned over the workers of a phase (key % workers), so each entry
// has one writer and phases run one after another: no locking.
type oracle struct {
	ver []uint32
	// diverged marks a key whose last get disagreed with ver. One fault
	// is counted once: further wrong gets of the key are not, until a get
	// agrees again or a put is acknowledged.
	diverged []bool
	// unchecked: the target moves no data (a timing-only ring), so
	// replies are not compared.
	unchecked bool
}

func newOracle(keys int) *oracle {
	return &oracle{ver: make([]uint32, keys), diverged: make([]bool, keys)}
}

// acked records an acknowledged put of the next version.
func (o *oracle) acked(key int) {
	o.ver[key]++
	o.diverged[key] = false
}

// observe checks a get's reply and reports whether it counts as a failure.
func (o *oracle) observe(key int, got []byte) (failed bool) {
	if o.unchecked || checkValue(got, uint32(key), o.ver[key]) {
		o.diverged[key] = false
		return false
	}
	failed = !o.diverged[key]
	o.diverged[key] = true
	return failed
}

// opGen draws one worker's operations: a key from the worker's partition
// (uniform, or zipf-ranked within the partition) and get-or-put.
type opGen struct {
	r      *rand.Rand
	zipf   *rand.Zipf
	worker int
	stride int // number of workers
	owned  int // keys in this worker's partition
	putPct int
	subset []int // when set, the partition is these keys
}

// newOpGen builds worker w's stream. The stream depends only on (seed,
// phase, w, workers, keys, putPct, zipf): the same arguments give the same
// operations, byte for byte.
func newOpGen(seed uint64, phase string, w, workers, keys, putPct int, zipf bool) *opGen {
	h := uint64(14695981039346656037)
	for i := 0; i < len(phase); i++ {
		h = (h ^ uint64(phase[i])) * 1099511628211
	}
	g := &opGen{
		r:      rand.New(rand.NewPCG(seed, h+uint64(w))),
		worker: w,
		stride: workers,
		owned:  (keys - w + workers - 1) / workers,
		putPct: putPct,
	}
	if g.owned <= 0 {
		panic(fmt.Sprintf("bench: worker %d of %d owns no key out of %d", w, workers, keys))
	}
	if zipf {
		g.zipf = rand.NewZipf(g.r, 1.1, 1, uint64(g.owned-1))
	}
	return g
}

// restrict makes a sole worker draw uniformly from subset only.
func (g *opGen) restrict(subset []int) {
	if g.stride != 1 || g.zipf != nil {
		panic("bench: a key subset needs one worker and uniform draws")
	}
	g.subset, g.owned = subset, len(subset)
}

// next returns the key index and whether the operation is a put.
func (g *opGen) next() (key int, put bool) {
	var local int
	if g.zipf != nil {
		local = int(g.zipf.Uint64())
	} else {
		local = g.r.IntN(g.owned)
	}
	put = g.r.IntN(100) < g.putPct
	if g.subset != nil {
		return g.subset[local], put
	}
	return g.worker + local*g.stride, put
}

// appendOps encodes the next n operations of g, for the test that pins
// one seed to one op stream.
func appendOps(dst []byte, g *opGen, n int) []byte {
	for i := 0; i < n; i++ {
		key, put := g.next()
		dst = binary.LittleEndian.AppendUint32(dst, uint32(key))
		if put {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}
