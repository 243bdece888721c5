package oram

import "stringoram/internal/config"

// Bandwidth summarizes the blocks transferred per logical access for an
// ORAM construction, the metric behind the paper's introductory claim
// that Ring ORAM cuts overall bandwidth 2.3-4x and online bandwidth >60x
// versus Path ORAM.
type Bandwidth struct {
	// Online is the blocks transferred on the critical path of a read
	// (before the program's data is available).
	Online float64
	// Overall is the amortized total including evictions and reshuffles.
	Overall float64
}

// RingBandwidth returns the analytic per-access bandwidth of Ring ORAM
// with the given configuration. With the XOR technique (Ren et al.,
// USENIX Security'15) the L+1 read-path blocks are XOR-combined by the
// memory into a single block, so the online cost drops to 1.
//
// Per access: read path transfers L+1 blocks; every A accesses one
// EvictPath reads Z and writes Z+S-Y blocks per bucket on L+1 buckets.
// Early reshuffles are rare with S >= A and excluded, matching the usual
// analytic treatment.
func RingBandwidth(o config.ORAM, xor bool) Bandwidth {
	levels := float64(o.Levels)
	online := levels
	if xor {
		online = 1
	}
	evict := levels * float64(o.Z+o.SlotsPerBucket()) / float64(o.A)
	return Bandwidth{Online: online, Overall: online + evict}
}

// PathBandwidth returns the analytic per-access bandwidth of Path ORAM
// with Z-slot buckets: the full path is read and written on every access,
// and the read phase is entirely online.
func PathBandwidth(z, levels int) Bandwidth {
	per := float64(z) * float64(levels)
	return Bandwidth{Online: per, Overall: 2 * per}
}

// MeasuredBandwidth tallies the actual per-access block transfers from a
// run's protocol statistics.
func MeasuredBandwidth(s Stats) Bandwidth {
	accesses := float64(s.Reads + s.Writes)
	if accesses == 0 {
		return Bandwidth{}
	}
	total := float64(s.ReadPathBlocks + s.EvictBlocks + s.ReshuffleBlocks)
	online := float64(s.ReadPathBlocks) / float64(maxI64(s.ReadPaths+s.BackgroundDummyReads, 1))
	return Bandwidth{Online: online, Overall: total / accesses}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
