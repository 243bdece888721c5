// Recursive: count the memory traffic of a Ring ORAM whose position map
// is itself stored in recursively smaller Ring ORAMs — the configuration
// a hardware controller needs when the flat map does not fit on chip.
// Each map level is a timing-only Ring; the example shows the cost
// structure (one extra ORAM access per recursion level) and its
// amortized read paths per logical access.
//
// The paper keeps the map on-chip (its Table III setting); this is the
// library's extension for bigger-than-on-chip deployments.
//
// Run with: go run ./examples/recursive
package main

import (
	"fmt"
	"log"

	"stringoram"
)

func main() {
	cfg := stringoram.DefaultConfig().ORAM
	cfg.Levels = 14
	cfg.TreeTopCacheLevels = 4
	cfg.Y = 0 // map levels never use CB; keep the data tree simple too

	const capacity = 1 << 15 // 32k addressable blocks
	rr, err := stringoram.NewRecursiveRing(stringoram.RecursiveConfig{
		Data:         cfg,
		Capacity:     capacity,
		OnChipCutoff: 256,
	}, 7, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("capacity %d blocks, position-map fanout %d labels/block\n", capacity, cfg.BlockSize/8)
	fmt.Printf("recursion levels: %d map ORAMs + on-chip table (cutoff 256 entries)\n\n", rr.Levels())

	// One access, dissected.
	_, ops, err := rr.Access(12345, false, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("operations emitted by ONE logical read:")
	for i, op := range ops {
		fmt.Printf("  %2d. %-16s %2d reads %3d writes\n", i+1, op.Kind, op.Reads(), op.Writes())
	}

	// Amortized cost over a workload.
	const n = 2000
	for i := 0; i < n; i++ {
		if _, _, err := rr.Access(stringoram.BlockID(i*37%capacity), i%3 == 0, nil); err != nil {
			log.Fatal(err)
		}
	}
	rp, ev := rr.TotalOps()
	fmt.Printf("\nover %d accesses: %d read paths, %d evictions across the hierarchy\n", n, rp, ev)
	fmt.Printf("  -> %.2f read paths per logical access (flat map would cost 1.00 + evictions)\n", float64(rp)/float64(n+1))
	fmt.Printf("data ring stash peak %d\n", rr.DataRing().Stats().StashPeak)
}
