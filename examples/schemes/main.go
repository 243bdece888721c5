// Schemes: run the full cycle-accurate system under all four
// configurations of the paper's Fig. 10 — baseline Ring ORAM, Compact
// Bucket only, Proactive Bank only, and full String ORAM — and print the
// comparison the paper's evaluation centers on. The simulator keeps 32
// reads of distinct blocks outstanding, which is what every workload of
// the paper's Table IV delivered to the ORAM, so no workload is chosen.
//
// Run with: go run ./examples/schemes
package main

import (
	"fmt"
	"log"

	"stringoram"
)

func main() {
	const accesses = 1000
	tr := &stringoram.Trace{Name: "schemes"} // names the run; no records are read
	fmt.Printf("%d ORAM reads, 32 outstanding\n\n", accesses)

	base := stringoram.DefaultConfig()
	base.ORAM.Levels = 16 // laptop-sized tree; the path length still dominates

	type scheme struct {
		name string
		sys  stringoram.SystemConfig
	}
	schemes := []scheme{
		{"Baseline (Ring ORAM)", base.WithCBRate(0)},
		{"CB  (compact bucket)", base.WithCBRate(8)},
		{"PB  (proactive bank)", base.WithCBRate(0).WithScheduler(stringoram.SchedProactiveBank)},
		{"ALL (String ORAM)   ", base.WithCBRate(8).WithScheduler(stringoram.SchedProactiveBank)},
	}

	var baseCycles int64
	fmt.Println("scheme                  cycles      norm   bank-idle  rd-conflict  early-ACT")
	for i, s := range schemes {
		res, err := stringoram.Simulate(s.sys, tr, stringoram.SimOptions{MaxAccesses: accesses})
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseCycles = res.Cycles
		}
		fmt.Printf("%s  %9d   %.3f      %4.1f%%       %4.1f%%      %4.1f%%\n",
			s.name, res.Cycles, float64(res.Cycles)/float64(baseCycles),
			100*res.BankIdle,
			100*res.Sched.ConflictRate(0), // read-path tag
			100*res.Sched.EarlyACTFrac())
	}
	fmt.Println("\npaper reference (avg over suite): CB 0.883, PB 0.811, ALL 0.700 normalized time")
}
