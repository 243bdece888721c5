package server

import (
	"fmt"
	"math"
	"time"

	"stringoram/internal/obs"
	"stringoram/internal/oram"
)

// Metrics is a point-in-time aggregate of the server's serving
// counters. All fields are cumulative since start except QueueDepths
// (instantaneous) and the two access counts, which sum the hosted
// shards' Ring records: cumulative over each shard's life, carried
// through snapshots, and the same values the oram_* series and
// ShardStats report. The latency percentiles are read from the same
// server_request_seconds histograms the Prometheus exposition and the
// SLO gate use, so the three cannot disagree; their resolution is one
// histogram bucket (see requestSecondsBounds).
type Metrics struct {
	Shards        int
	UptimeSeconds float64
	Keys          int

	Gets    uint64 // completed get requests (hits and misses)
	Puts    uint64 // completed put requests
	Applies uint64 // completed replicated writes (cluster followers)
	Misses  uint64 // gets that found no value

	Rejected uint64 // enqueue-time ErrBacklog rejections
	Expired  uint64 // requests answered with ErrDeadline
	Failed   uint64 // requests answered with any other error

	Batches         uint64  // worker wakeups
	BatchedRequests uint64  // requests served across all batches
	MaxBatch        int     // largest batch observed
	AvgBatch        float64 // BatchedRequests / Batches

	QueueDepths []int // current per-shard queue occupancy

	ORAMAccesses uint64 // logical ORAM accesses (Stats Reads+Writes)
	SlotAccesses uint64 // physical slot accesses (Stats ReadPathBlocks+EvictBlocks+ReshuffleBlocks)

	LatencySamples int64 // observations behind the percentiles
	P50Seconds     float64
	P95Seconds     float64
	P99Seconds     float64
}

// ThroughputPerSecond returns completed requests per second of uptime.
func (m Metrics) ThroughputPerSecond() float64 {
	if m.UptimeSeconds <= 0 {
		return 0
	}
	return float64(m.Gets+m.Puts) / m.UptimeSeconds
}

// requestSecondsBounds spans 1µs..~2.1s with two buckets per octave
// (adjacent bounds √2 apart): fine enough to resolve the in-process fast
// path (tens of µs), wide enough for a cross-node forwarded op under
// load. Every quantile and SLO verdict read from the histogram is
// therefore accurate to a factor of √2; an -slo-p99 threshold rounds
// down to the nearest bound.
var requestSecondsBounds = func() []float64 {
	b := make([]float64, requestSecondsBuckets-1)
	for i := range b {
		b[i] = 1e-6 * math.Exp2(float64(i)/2)
	}
	return b
}()

// requestSecondsBuckets counts that histogram's buckets, +Inf included;
// a constant so Metrics can merge the shards' counts on its stack.
const requestSecondsBuckets = 44

// LatencyHistograms returns each hosted shard's request-latency
// histogram, for wiring SLO objectives over live serving traffic.
func (s *Server) LatencyHistograms() []*obs.Histogram {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*obs.Histogram, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.m.latSecs
	}
	return out
}

// shardMetrics is one shard's counter set, held as obs instruments so a
// single update site feeds both the Prometheus exposition and the
// Metrics snapshot. Every instrument is atomic: the worker goroutine,
// the dispatcher, and scrapes touch them concurrently without a lock.
type shardMetrics struct {
	gets, puts, misses *obs.Counter
	applies            *obs.Counter
	rejected           *obs.Counter
	expired, failed    *obs.Counter

	batches, batchedReqs *obs.Counter
	maxBatch             *obs.Gauge

	keys *obs.Gauge

	// latSecs is the request-latency histogram: the one source behind
	// Prometheus aggregation, SLO evaluation and the Metrics quantiles.
	latSecs *obs.Histogram
}

// init registers shard i's instruments on reg (never nil: the Server
// creates a private registry when the Config does not supply one, so the
// counters always count).
func (m *shardMetrics) init(reg *obs.Registry, shard int) {
	l := func(fam, op string) string {
		if op == "" {
			return fmt.Sprintf(`%s{shard="%d"}`, fam, shard)
		}
		return fmt.Sprintf(`%s{shard="%d",op=%q}`, fam, shard, op)
	}
	m.gets = reg.Counter(l("server_requests_total", "get"), "Completed requests by operation.")
	m.puts = reg.Counter(l("server_requests_total", "put"), "Completed requests by operation.")
	m.applies = reg.Counter(l("server_requests_total", "apply"), "Completed requests by operation.")
	m.misses = reg.Counter(l("server_misses_total", ""), "Gets that found no value (still one real ORAM access).")
	m.rejected = reg.Counter(l("server_rejected_total", ""), "Enqueue-time backlog rejections.")
	m.expired = reg.Counter(l("server_expired_total", ""), "Requests answered with a deadline error.")
	m.failed = reg.Counter(l("server_failed_total", ""), "Requests answered with a non-retryable error.")
	m.batches = reg.Counter(l("server_batches_total", ""), "Worker wakeups.")
	m.batchedReqs = reg.Counter(l("server_batched_requests_total", ""), "Requests served across all batches.")
	m.maxBatch = reg.Gauge(l("server_max_batch", ""), "Largest batch observed.")
	m.keys = reg.Gauge(l("server_keys", ""), "Keys in the shard directory as of its last batch.")
	m.latSecs = reg.Histogram(l("server_request_seconds", ""),
		"Request latency (enqueue to response) in seconds.", requestSecondsBounds)
}

func (m *shardMetrics) noteRejected() {
	m.rejected.Inc()
}

func (m *shardMetrics) noteDone(op opKind, res result, lat time.Duration) {
	switch {
	case res.err == nil:
		switch op {
		case opGet:
			m.gets.Inc()
			if !res.found {
				m.misses.Inc()
			}
		case opApply:
			m.applies.Inc()
		case opPut:
			m.puts.Inc()
		}
	case Retryable(res.err):
		m.expired.Inc()
	default:
		m.failed.Inc()
	}
	m.latSecs.Observe(lat.Seconds())
}

func (m *shardMetrics) noteBatch(n, keys int) {
	m.batches.Inc()
	m.batchedReqs.Add(uint64(n))
	m.maxBatch.Max(int64(n))
	m.keys.Set(int64(keys))
}

// Metrics aggregates the per-shard counters into one snapshot. The
// shards' latency buckets merge into a fixed-size array, so a call
// allocates only the QueueDepths slice — see TestMetricsScrapeAllocBound.
func (s *Server) Metrics() Metrics {
	// The read lock pins the hosted-shard set for the whole scrape (no
	// copy, preserving the alloc bound); enqueues share the lock, only
	// attach/detach would wait.
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := Metrics{
		Shards:        len(s.shards),
		UptimeSeconds: time.Since(s.start).Seconds(),
		QueueDepths:   make([]int, len(s.shards)),
	}
	var lat [requestSecondsBuckets]uint64
	for i, sh := range s.shards {
		out.Gets += sh.m.gets.Value()
		out.Puts += sh.m.puts.Value()
		out.Applies += sh.m.applies.Value()
		out.Misses += sh.m.misses.Value()
		out.Rejected += sh.m.rejected.Value()
		out.Expired += sh.m.expired.Value()
		out.Failed += sh.m.failed.Value()
		out.Batches += sh.m.batches.Value()
		out.BatchedRequests += sh.m.batchedReqs.Value()
		if mb := int(sh.m.maxBatch.Value()); mb > out.MaxBatch {
			out.MaxBatch = mb
		}
		out.Keys += int(sh.m.keys.Value())
		st := sh.record()
		out.ORAMAccesses += uint64(st.Reads + st.Writes)
		out.SlotAccesses += uint64(slotAccesses(&st))
		out.LatencySamples += int64(sh.m.latSecs.AddCounts(lat[:]))
		out.QueueDepths[i] = len(sh.reqs)
	}
	if out.Batches > 0 {
		out.AvgBatch = float64(out.BatchedRequests) / float64(out.Batches)
	}
	out.P50Seconds = obs.Quantile(requestSecondsBounds, lat[:], 0.5)
	out.P95Seconds = obs.Quantile(requestSecondsBounds, lat[:], 0.95)
	out.P99Seconds = obs.Quantile(requestSecondsBounds, lat[:], 0.99)
	return out
}

// ShardStats returns each hosted shard's Ring counters, in hosting
// order: the record the shard's worker published after its last access,
// so it reflects every request acknowledged before the call.
func (s *Server) ShardStats() []oram.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]oram.Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.record()
	}
	return out
}

// slotAccesses counts the physical slot accesses behind st.
func slotAccesses(st *oram.Stats) int64 {
	return st.ReadPathBlocks + st.EvictBlocks + st.ReshuffleBlocks
}

// ringStats returns hosted shard id's published Ring counters, zero
// when the shard is not hosted.
func (s *Server) ringStats(id int) (st oram.Stats) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sh := s.byID[id]; sh != nil {
		st = sh.record()
	}
	return st
}

// ringSeries registers shard id's Ring series. Only counts of bus
// operations the bus itself tells apart are exported: every read path,
// dummy or not, is one read path there, and stash and Compact Bucket
// state never reach it. Each series reads the shard's published record
// at scrape time, so the exposition, Metrics and ShardStats cannot
// disagree: cumulative over the shard's life, carried through
// snapshots, 0 while the shard is not hosted.
func (s *Server) ringSeries(id int) {
	name := func(fam, kind string) string {
		if kind == "" {
			return fmt.Sprintf(`%s{shard="%d"}`, fam, id)
		}
		return fmt.Sprintf(`%s{shard="%d",kind=%q}`, fam, id, kind)
	}
	for _, c := range []struct {
		fam, kind, help string
		v               func(st *oram.Stats) int64
	}{
		{"server_slot_accesses_total", "", "Physical slot accesses emitted.", slotAccesses},
		{"oram_accesses_total", "", "ORAM accesses completed (reads and writes)", func(st *oram.Stats) int64 { return st.Reads + st.Writes }},
		{"oram_early_reshuffles_total", "", "buckets reshuffled after exhausting their S dummy budget", func(st *oram.Stats) int64 { return st.EarlyReshuffles }},
		{"oram_paths_total", "read", "read-path and eviction operations by kind", func(st *oram.Stats) int64 { return st.ReadPaths + st.BackgroundDummyReads }},
		{"oram_paths_total", "evict", "read-path and eviction operations by kind", func(st *oram.Stats) int64 { return st.EvictPaths }},
	} {
		s.reg.CounterFunc(name(c.fam, c.kind), c.help, func() float64 {
			st := s.ringStats(id)
			return float64(c.v(&st))
		})
	}
}
