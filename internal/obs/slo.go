package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
)

// SLO evaluation: declarative objectives over registered histograms
// (latency: "quantile q stays under threshold") and counter pairs
// (errors: "bad/total stays under ratio"), each exposing an error-
// budget burn gauge and contributing to a /healthz verdict.
//
// Burn is the classic budget ratio: an objective "p99 <= 5ms" grants a
// 1% budget of slow requests; burn = badFraction / (1-q), so burn <= 1
// means the objective holds and burn 2.0 means the tail is eating
// budget twice as fast as allowed. Evaluation is windowed by Reset():
// a baseline snapshot is subtracted so gates can judge only the
// traffic after a fault was injected.

// Objective declares one SLO. Exactly one of the two forms is used:
// latency (Hists + Quantile + Threshold) or ratio (Bad/Total +
// MaxRatio).
type Objective struct {
	Name string

	// Latency form: the fraction of observations above Threshold
	// (seconds, or whatever unit the histograms use) across all Hists
	// must stay within the 1-Quantile budget.
	Hists     []*Histogram
	Quantile  float64
	Threshold float64

	// Ratio form: Bad()/Total() must stay <= MaxRatio. Both callbacks
	// must be monotone (counter-like) and scrape-safe.
	Bad, Total func() float64
	MaxRatio   float64
}

// ObjectiveVerdict is one objective's evaluation.
type ObjectiveVerdict struct {
	Name        string  `json:"name"`
	OK          bool    `json:"ok"`
	Burn        float64 `json:"burn"`         // budget burn ratio; <= 1 is healthy
	BadFraction float64 `json:"bad_fraction"` // fraction of bad observations in window
	Total       float64 `json:"total"`        // observations in window
}

// Verdict is the full SLO evaluation; OK iff every objective holds.
type Verdict struct {
	OK         bool               `json:"ok"`
	Objectives []ObjectiveVerdict `json:"objectives"`
}

// objectiveState pairs an objective with its Reset baseline.
type objectiveState struct {
	obj  Objective
	hist [][]uint64 // per-histogram bucket counts at Reset
	bad  float64
	tot  float64
}

// SLO evaluates a set of objectives. Safe for concurrent Add / Reset /
// Evaluate / HTTP serving.
type SLO struct {
	mu   sync.Mutex
	objs []*objectiveState
}

// NewSLO returns an empty objective set.
func NewSLO() *SLO { return &SLO{} }

// Add registers an objective. When reg is non-nil a
// slo_budget_burn{objective="..."} gauge is registered so the burn rate
// shows up in every scrape (and in cluster federation).
func (s *SLO) Add(reg *Registry, obj Objective) {
	st := &objectiveState{obj: obj}
	st.snapshot()
	s.mu.Lock()
	s.objs = append(s.objs, st)
	s.mu.Unlock()
	reg.GaugeFunc(
		`slo_budget_burn{objective="`+escapeLabelValue(obj.Name)+`"}`,
		"Error-budget burn ratio per objective (<=1 means the objective holds).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return st.evaluate().Burn
		})
}

// Reset re-baselines every objective: subsequent Evaluate calls judge
// only observations made after this point.
func (s *SLO) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.objs {
		st.snapshot()
	}
}

// Evaluate returns the verdict over the window since the last Reset
// (or since Add).
func (s *SLO) Evaluate() Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := Verdict{OK: true}
	for _, st := range s.objs {
		ov := st.evaluate()
		if !ov.OK {
			v.OK = false
		}
		v.Objectives = append(v.Objectives, ov)
	}
	return v
}

// Handler serves the verdict as JSON: 200 when every objective holds,
// 503 otherwise. Wire it at /healthz.
func (s *SLO) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		v := s.Evaluate()
		w.Header().Set("Content-Type", "application/json")
		if !v.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	})
}

func (st *objectiveState) snapshot() {
	st.hist = st.hist[:0]
	for _, h := range st.obj.Hists {
		base := make([]uint64, len(h.counts))
		h.AddCounts(base)
		st.hist = append(st.hist, base)
	}
	if st.obj.Bad != nil {
		st.bad = st.obj.Bad()
	}
	if st.obj.Total != nil {
		st.tot = st.obj.Total()
	}
}

// evaluate computes the verdict for the window since snapshot. Caller
// holds s.mu.
func (st *objectiveState) evaluate() ObjectiveVerdict {
	ov := ObjectiveVerdict{Name: st.obj.Name, OK: true}
	var bad, total, budget float64
	if len(st.obj.Hists) > 0 {
		for i, h := range st.obj.Hists {
			base := st.hist[i]
			// Each bucket is read once and feeds both sums, so bad <=
			// total whatever races the evaluation. Observations landing
			// in buckets whose upper bound exceeds the threshold are
			// over-SLO; the histogram resolution rounds in the
			// objective's favor only at the bucket edge.
			for j := range h.counts {
				n := float64(h.counts[j].Load() - base[j])
				total += n
				if j == len(h.bounds) || h.bounds[j] > st.obj.Threshold {
					bad += n
				}
			}
		}
		budget = 1 - st.obj.Quantile
	} else {
		bad = st.obj.Bad() - st.bad
		total = st.obj.Total() - st.tot
		budget = st.obj.MaxRatio
	}
	ov.Total = total
	if total <= 0 {
		return ov // no traffic in window: vacuously healthy
	}
	ov.BadFraction = bad / total
	if budget <= 0 {
		budget = math.SmallestNonzeroFloat64
	}
	ov.Burn = ov.BadFraction / budget
	ov.OK = ov.Burn <= 1
	return ov
}
