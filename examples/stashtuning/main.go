// Stashtuning: explore the Compact Bucket rate / stash size tradeoff the
// paper studies in Fig. 13-15. Aggressive CB rates (large Y) save the
// most memory but pull extra "green" real blocks into the stash on every
// read path; with a small stash that triggers leakage-free background
// evictions, and in the extreme the controller reports ErrStashOverflow
// instead of leaking or corrupting. This example sweeps the space and
// shows where each regime begins.
//
// Run with: go run ./examples/stashtuning
package main

import (
	"errors"
	"fmt"
	"log"

	"stringoram"
)

func main() {
	// Green blocks enter the stash through the Y real blocks a CB read
	// path may fetch from each bucket, whatever the program reads; the
	// simulator's reads are of distinct blocks, so the trace only names
	// the run.
	tr := &stringoram.Trace{Name: "stashtuning"}

	base := stringoram.DefaultConfig()
	base.ORAM.Levels = 14
	base.ORAM.TreeTopCacheLevels = 4

	// The paper runs 500M-instruction SimPoints against a 500-block
	// stash; at this example's scale the same crossover appears with a
	// proportionally smaller stash.
	fmt.Println("stash   Y   slots/bkt  space-saved   bg-evicts  bg-dummy-reads  stash-peak  outcome")
	for _, stash := range []int{12, 16, 24, 60} {
		for _, y := range []int{0, 4, 8} {
			sys := base.WithCBRate(y).WithStashSize(stash)
			o := sys.ORAM
			res, err := stringoram.Simulate(sys, tr, stringoram.SimOptions{MaxAccesses: 1500})
			outcome := "ok"
			var bgE, bgD, peak int64
			if err != nil {
				if errors.Is(err, stringoram.ErrStashOverflow) {
					outcome = "STASH OVERFLOW (Y too aggressive for this stash)"
				} else {
					log.Fatal(err)
				}
			} else {
				bgE, bgD, peak = res.ORAM.BackgroundEvictions, res.ORAM.BackgroundDummyReads, res.ORAM.StashPeak
				if bgE > 0 {
					outcome = "ok, background eviction engaged"
				}
			}
			fmt.Printf("%5d  %2d   %9d  %10.1f%%  %10d  %14d  %10d  %s\n",
				stash, y, o.SlotsPerBucket(),
				100*float64(y)/float64(o.Z+o.S),
				bgE, bgD, peak, outcome)
		}
	}
	fmt.Println("\npaper reference (Fig. 14): stash 200 + Y>=6 starts background evictions;")
	fmt.Println("stash 500 absorbs even Y=8 with none. The stash is still tiny: 500 x 64B = 32KB.")
}
