package experiments

import (
	"testing"

	"stringoram/internal/config"
	"stringoram/internal/sim"
	"stringoram/internal/trace"
)

// BenchmarkFullHeightAll is the simulator's host cost at the paper's tree
// height: full String ORAM (CB + PB) at Full()'s 24 levels, 32,000
// accesses per op. Run it with
//
//	go test ./internal/experiments -run '^$' -bench FullHeightAll -benchtime 1x
func BenchmarkFullHeightAll(b *testing.B) {
	sys := SchemeAll.Apply(Full().System(), config.Default().ORAM.Y)
	tr := &trace.Trace{Name: "full-height"}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sys, tr, sim.Options{MaxAccesses: 32000}); err != nil {
			b.Fatal(err)
		}
	}
}
