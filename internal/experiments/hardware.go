package experiments

import (
	"fmt"
	"math"

	"stringoram/internal/config"
	"stringoram/internal/stats"
)

// Hardware reproduces the paper's hardware-modification-overhead
// evaluation (Section IV-C / Fig. 9 and the contribution list): the
// on-chip SRAM the controller needs, the in-DRAM metadata the protocol
// carries per bucket, and what the String ORAM changes add on top of
// baseline Ring ORAM. Everything is a pure function of the
// configuration.
func Hardware(sys config.System) *stats.Table {
	o := sys.ORAM
	t := stats.NewTable(
		fmt.Sprintf("Hardware overhead — Z=%d S=%d Y=%d, %d levels, stash %d",
			o.Z, o.S, o.Y, o.Levels, o.StashSize),
		"component", "location", "size", "notes")

	bits := func(n int64) string {
		switch {
		case n >= 8<<30:
			return fmt.Sprintf("%.2f GB", float64(n)/8/(1<<30))
		case n >= 8<<20:
			return fmt.Sprintf("%.2f MB", float64(n)/8/(1<<20))
		case n >= 8<<10:
			return fmt.Sprintf("%.2f KB", float64(n)/8/(1<<10))
		default:
			return fmt.Sprintf("%d bits", n)
		}
	}

	leafBits := int64(o.L())
	realCapacity := o.Buckets() / 2 * int64(o.Z) // ~50% utilization working set

	// On-chip structures (the secure boundary).
	t.AddRow("stash", "SRAM",
		bits(int64(o.StashSize)*(int64(o.BlockSize)*8+leafBits+40)),
		fmt.Sprintf("%d blocks x (data + leaf label + address tag)", o.StashSize))

	topBuckets := (int64(1) << uint(o.TreeTopCacheLevels)) - 1
	t.AddRow("tree-top cache", "SRAM",
		bits(topBuckets*int64(o.SlotsPerBucket())*int64(o.BlockSize)*8),
		fmt.Sprintf("levels 0..%d: %d buckets", o.TreeTopCacheLevels-1, topBuckets))

	t.AddRow("flat position map", "SRAM",
		bits(realCapacity*leafBits),
		fmt.Sprintf("%d tracked blocks x %d-bit leaf — why recursion exists", realCapacity, leafBits))

	// A map block packs BlockSize/8 leaf labels, so each map ORAM level
	// shrinks the table by that fanout until it fits a 1,024-entry
	// on-chip table. A logical access then reads the data path plus one
	// path per map level (Path ORAM CCS'13, Sec. 4).
	fanout := int64(o.BlockSize / 8)
	levels := 0
	entries := realCapacity
	for entries > 1024 {
		entries = (entries + fanout - 1) / fanout
		levels++
	}
	t.AddRow("recursive position map (on-chip part)", "SRAM",
		bits(entries*leafBits),
		fmt.Sprintf("k=%d map ORAM levels, %d-entry on-chip table, 1+k=%d read paths per access",
			levels, entries, levels+1))

	// In-DRAM per-bucket metadata (encrypted alongside the bucket).
	perBucket := int64(o.SlotsPerBucket())*(1+1) + // valid + real bits
		int64(math.Ceil(math.Log2(float64(o.S+1)))) + // access counter
		int64(o.SlotsPerBucket())*40 // slot address tags for permutation
	t.AddRow("bucket metadata (Ring ORAM baseline)", "DRAM",
		bits(o.Buckets()*perBucket),
		fmt.Sprintf("valid/real bits, counter, permutation tags x %d buckets", o.Buckets()))

	// String ORAM additions.
	greenBits := int64(0)
	if o.Y > 0 {
		greenBits = int64(math.Ceil(math.Log2(float64(o.Y + 1))))
	}
	t.AddRow("CB green counters (String ORAM)", "DRAM",
		bits(o.Buckets()*greenBits),
		fmt.Sprintf("log2(Y+1)=%d bits per bucket", greenBits))

	saved := o.Buckets() * int64(o.Y) * int64(o.BlockSize) * 8
	t.AddRow("CB dummy-slot saving (String ORAM)", "DRAM",
		"-"+bits(saved),
		fmt.Sprintf("Y=%d slots removed per bucket", o.Y))

	t.AddRow("PB scheduler (String ORAM)", "logic",
		bits(64+int64(sys.DRAM.Channels)*32),
		"current-transaction register + per-channel scan comparators; no DIMM changes")

	return t
}
