package experiments

import (
	"math"
	"runtime"
	"sync"

	"stringoram/internal/oram"
	"stringoram/internal/stats"
)

// StashBound estimates the stash-occupancy tail distribution by Monte
// Carlo, the way tree-ORAM papers characterize the security parameter:
// for a stash bound R, the failure probability P(occupancy > R) must be
// negligible. The experiment runs `trials` independent protocol-only
// simulations of `accesses` random accesses each at the given CB rates
// and reports, per R, the estimated -log2 P(peak > R).
//
// The paper's Fig. 14/15 observation — reverse-lexicographic eviction
// keeps the stash bounded even at aggressive Y — appears here as tails
// that fall off geometrically, shifted right as Y grows.
func (r *Runner) StashBound(trials, accesses int, rates []int) (*stats.Table, error) {
	if trials <= 0 || accesses <= 0 {
		trials, accesses = 40, 2000
	}
	if len(rates) == 0 {
		rates = []int{0, 4, 8}
	}

	type job struct {
		rate  int
		trial int
	}
	var jobs []job
	for _, y := range rates {
		for tIdx := 0; tIdx < trials; tIdx++ {
			jobs = append(jobs, job{rate: y, trial: tIdx})
		}
	}
	peaks := make([]int64, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, j := range jobs {
		wg.Add(1)
		//oramlint:allow gostmt each trial derives its seed from the job index; peaks land in index-addressed slots and wg.Wait joins before any read
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cfg := r.Scale.System().WithCBRate(j.rate).ORAM
			// A generous stash so peaks are observed, not clipped.
			cfg.StashSize = 100000
			ring, err := oram.NewRing(cfg, r.Scale.Seed+uint64(i)*7919+1, nil)
			if err != nil {
				errs[i] = err
				return
			}
			src := uint64(j.trial)*2654435761 + 11
			for a := 0; a < accesses; a++ {
				src = src*6364136223846793005 + 1442695040888963407
				id := oram.BlockID((src >> 33) % 4096)
				if _, _, err := ring.Access(id, a%3 == 0, nil); err != nil {
					errs[i] = err
					return
				}
			}
			peaks[i] = ring.Stats().StashPeak
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Tail table: for each R, fraction of trials whose peak exceeded R.
	t := stats.NewTable(
		"Stash bound — Monte Carlo tail of peak occupancy (-log2 P(peak > R); 'inf' = never observed)",
		"R", "Y=0", "Y=4", "Y=8")
	maxPeak := int64(0)
	for _, p := range peaks {
		if p > maxPeak {
			maxPeak = p
		}
	}
	cell := func(y int, bound int64) string {
		exceed, total := 0, 0
		for i, j := range jobs {
			if j.rate != y {
				continue
			}
			total++
			if peaks[i] > bound {
				exceed++
			}
		}
		if exceed == 0 {
			return "inf"
		}
		return stats.FormatFloat(-math.Log2(float64(exceed) / float64(total)))
	}
	for bound := int64(4); bound <= maxPeak+4; bound *= 2 {
		t.AddRowf(bound, cell(pick(rates, 0), bound), cell(pick(rates, 1), bound), cell(pick(rates, 2), bound))
	}
	return t, nil
}

// pick returns rates[i] or the last configured rate when fewer were given.
func pick(rates []int, i int) int {
	if i < len(rates) {
		return rates[i]
	}
	return rates[len(rates)-1]
}
