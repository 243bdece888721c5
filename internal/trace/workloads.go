package trace

import "fmt"

// Suite returns the paper's Table IV workload suite as synthetic-trace
// profiles. MPKI values are the published ones; the footprint, write
// fraction and locality parameters are plausible characterizations of
// each application (documented inline), chosen so the suite spans
// streaming, pointer-chasing and mixed behaviour.
func Suite() []Profile {
	const MB = 1 << 20
	return []Profile{
		// PARSEC blackscholes: option pricing; small hot data, compute
		// heavy, mostly reads.
		{Name: "black", MPKI: 4.58, WriteFrac: 0.20, FootprintBytes: 64 * MB, StreamFrac: 0.50, ZipfTheta: 0.30, Streams: 4},
		// PARSEC facesim: physics solver over large meshes.
		{Name: "face", MPKI: 10.37, WriteFrac: 0.35, FootprintBytes: 192 * MB, StreamFrac: 0.55, ZipfTheta: 0.20, Streams: 8},
		// PARSEC ferret: content-based similarity search; pointer-rich.
		{Name: "ferret", MPKI: 10.42, WriteFrac: 0.25, FootprintBytes: 128 * MB, StreamFrac: 0.25, ZipfTheta: 0.40, Streams: 4},
		// PARSEC fluidanimate: particle grid; strided sweeps.
		{Name: "fluid", MPKI: 4.72, WriteFrac: 0.40, FootprintBytes: 128 * MB, StreamFrac: 0.60, ZipfTheta: 0.20, Streams: 8},
		// PARSEC freqmine: frequent itemset mining; irregular tree walks.
		{Name: "freq", MPKI: 4.42, WriteFrac: 0.25, FootprintBytes: 96 * MB, StreamFrac: 0.30, ZipfTheta: 0.45, Streams: 4},
		// SPEC leslie3d: structured-grid CFD; long unit-stride sweeps.
		{Name: "leslie", MPKI: 9.45, WriteFrac: 0.40, FootprintBytes: 256 * MB, StreamFrac: 0.80, ZipfTheta: 0.10, Streams: 8},
		// SPEC libquantum: quantum simulation; pure streaming over a
		// large vector, famously memory-bound.
		{Name: "libq", MPKI: 20.20, WriteFrac: 0.30, FootprintBytes: 256 * MB, StreamFrac: 0.90, ZipfTheta: 0.05, Streams: 2},
		// BIOBENCH mummer: genome matching via suffix trees; the
		// archetypal pointer chase, highest MPKI in the suite.
		{Name: "mummer", MPKI: 24.07, WriteFrac: 0.15, FootprintBytes: 384 * MB, StreamFrac: 0.10, ZipfTheta: 0.25, Streams: 2},
		// PARSEC streamcluster: online clustering; streaming distance
		// computations.
		{Name: "stream", MPKI: 5.57, WriteFrac: 0.20, FootprintBytes: 128 * MB, StreamFrac: 0.75, ZipfTheta: 0.15, Streams: 4},
		// PARSEC swaptions: Monte-Carlo pricing; modest mixed traffic.
		{Name: "swapt", MPKI: 5.16, WriteFrac: 0.30, FootprintBytes: 64 * MB, StreamFrac: 0.45, ZipfTheta: 0.35, Streams: 4},
	}
}

// ByName returns the suite profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range Suite() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown workload %q", name)
}

// SeedFor derives a stable per-workload generation seed from a base seed,
// so different workloads never share a random stream.
func SeedFor(base uint64, name string) uint64 {
	h := base ^ 0xcbf29ce484222325
	for _, c := range []byte(name) {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}
