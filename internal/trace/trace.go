// Package trace provides the workload layer: the memory-trace record
// format and synthetic trace generators calibrated to the paper's Table
// IV workload suite.
//
// The paper drives USIMM with SimPoint traces of PARSEC/SPEC/BIOBENCH
// applications from the MSC contest; those traces are not publicly
// redistributable, so this package synthesizes traces with the published
// MPKI (request rate), a read/write mix, and a footprint/locality profile
// per workload. The simulator reads only a trace's name and length: behind
// an ORAM every address maps to a uniformly random path, and a model of
// cores and an LLC over these traces delivered the same stream of
// distinct-block reads for every workload (DESIGN.md), so package sim
// keeps a fixed window of such reads instead.
package trace

import (
	"errors"
	"fmt"
	"math"

	"stringoram/internal/rng"
)

// Record is one memory access in a trace: Gap non-memory instructions
// execute, then the access at Addr (a byte address) happens.
type Record struct {
	Gap   uint32
	Addr  uint64
	Write bool
}

// Trace is a named sequence of records.
type Trace struct {
	Name    string
	Records []Record
}

// Instructions returns the total instruction count the trace represents
// (each record is Gap non-memory instructions plus the access itself).
func (t *Trace) Instructions() int64 {
	var n int64
	for _, r := range t.Records {
		n += int64(r.Gap) + 1
	}
	return n
}

// MPKI returns the trace's memory accesses per kilo-instruction.
func (t *Trace) MPKI() float64 {
	ins := t.Instructions()
	if ins == 0 {
		return 0
	}
	return float64(len(t.Records)) / float64(ins) * 1000
}

// Profile describes a synthetic workload's memory behaviour.
type Profile struct {
	// Name of the workload (paper Table IV).
	Name string
	// MPKI is the target memory accesses per kilo-instruction.
	MPKI float64
	// WriteFrac is the fraction of accesses that are writes.
	WriteFrac float64
	// FootprintBytes is the touched memory region size.
	FootprintBytes int64
	// StreamFrac is the fraction of accesses that continue a sequential
	// stream (spatial locality); the rest are Zipf-distributed random
	// accesses over the footprint.
	StreamFrac float64
	// ZipfTheta shapes the random component's reuse (0 = uniform,
	// toward 1 = heavily skewed to hot blocks).
	ZipfTheta float64
	// Streams is the number of concurrent sequential streams.
	Streams int
}

// Validate reports whether the profile is generatable.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return errors.New("trace: profile needs a name")
	case p.MPKI <= 0 || p.MPKI > 1000:
		return fmt.Errorf("trace: MPKI %v out of (0, 1000]", p.MPKI)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("trace: WriteFrac %v out of [0,1]", p.WriteFrac)
	case p.FootprintBytes < 4096:
		return fmt.Errorf("trace: footprint %d too small", p.FootprintBytes)
	case p.StreamFrac < 0 || p.StreamFrac > 1:
		return fmt.Errorf("trace: StreamFrac %v out of [0,1]", p.StreamFrac)
	case p.ZipfTheta < 0 || p.ZipfTheta >= 1:
		return fmt.Errorf("trace: ZipfTheta %v out of [0,1)", p.ZipfTheta)
	case p.Streams < 1:
		return fmt.Errorf("trace: Streams %d < 1", p.Streams)
	}
	return nil
}

// zipf draws block indices in [0, n) with probability proportional to
// 1/(i+1)^theta, using inverse-CDF on a precomputed table for small n and
// rejection for large n. For simplicity and determinism we use the
// classic power-of-uniform approximation: floor(n * u^(1/(1-theta)))
// which concentrates mass on low indices as theta grows.
func zipf(src *rng.Source, n int64, theta float64) int64 {
	if theta == 0 {
		return int64(src.Uint64n(uint64(n)))
	}
	u := src.Float64()
	// u^(1/(1-theta)) in (0,1], skewed toward 0.
	v := math.Pow(u, 1/(1-theta))
	idx := int64(v * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Generate synthesizes a trace of n memory accesses following the
// profile, deterministically from seed. Block-granular addresses are
// 64-byte aligned.
func Generate(p Profile, n int, seed uint64) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("trace: n must be positive, got %d", n)
	}
	src := rng.New(seed)
	gapSrc := src.Fork()
	addrSrc := src.Fork()

	blocks := p.FootprintBytes / 64
	meanGap := 1000/p.MPKI - 1
	if meanGap < 0 {
		meanGap = 0
	}

	// Each stream walks a disjoint region of the footprint.
	streamPos := make([]int64, p.Streams)
	regions := blocks / int64(p.Streams)
	for i := range streamPos {
		streamPos[i] = int64(i) * regions
	}

	t := &Trace{Name: p.Name, Records: make([]Record, n)}
	for i := 0; i < n; i++ {
		gap := uint32(float64(meanGap) * gapSrc.Exp())
		var block int64
		if addrSrc.Float64() < p.StreamFrac {
			s := addrSrc.Intn(p.Streams)
			streamPos[s]++
			if streamPos[s] >= int64(s+1)*regions {
				streamPos[s] = int64(s) * regions
			}
			block = streamPos[s]
		} else {
			// Hash the zipf rank so hot blocks scatter over the
			// footprint instead of clustering at low addresses.
			rank := zipf(addrSrc, blocks, p.ZipfTheta)
			block = scramble(rank) % blocks
		}
		t.Records[i] = Record{
			Gap:   gap,
			Addr:  uint64(block) * 64,
			Write: addrSrc.Float64() < p.WriteFrac,
		}
	}
	return t, nil
}

// scramble is a fixed 64-bit mix (SplitMix64 finalizer) used to spread
// zipf ranks across the footprint deterministically.
func scramble(v int64) int64 {
	z := uint64(v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}
