package main

import (
	"slices"
	"sync"
	"time"

	"stringoram/internal/oram"
)

// target is what the load generator drives: one connection, or one
// embedded controller. Keys are indices; get returns nil for an absent key.
type target interface {
	get(key int) ([]byte, error)
	put(key int, val []byte) error
}

// kvStore is the call shape Server, ServerClient and ClusterRouter share.
type kvStore interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, val []byte) error
}

type kvTarget struct {
	kv    kvStore
	names []string
}

func (t kvTarget) get(key int) ([]byte, error) {
	v, found, err := t.kv.Get(t.names[key])
	if !found {
		return nil, err
	}
	return v, err
}

func (t kvTarget) put(key int, val []byte) error { return t.kv.Put(t.names[key], val) }

// ringTarget drives an embedded Ring: the key index is the block ID and a
// value is one whole block.
type ringTarget struct{ r *oram.Ring }

func (t ringTarget) get(key int) ([]byte, error) {
	data, _, err := t.r.Read(oram.BlockID(key))
	return data, err
}

func (t ringTarget) put(key int, val []byte) error {
	_, err := t.r.Write(oram.BlockID(key), val)
	return err
}

// phase is one closed-loop stretch of load: workers goroutines, each with
// one operation in flight, each owning the keys congruent to its index.
// It ends at dur or after maxOps operations per worker, whichever is set
// and comes first.
type phase struct {
	name    string // seeds the op stream together with seed
	seed    uint64
	targets []target // worker w drives targets[w%len(targets)]
	workers int
	dur     time.Duration
	maxOps  int
	putPct  int
	zipf    bool
	valLen  int
	// subset, when set, restricts a one-worker phase to these keys.
	subset []int
	// sampleCap bounds the latency samples kept per worker; operations
	// past it are still counted and verified.
	sampleCap int
	// rec, when set, receives one span per operation on rung.
	rec  *spanRecorder
	rung int
}

type phaseResult struct {
	ops, failed int64
	elapsed     time.Duration
	get, put    []uint32 // latencies in ns, sorted
	all         []uint32 // get and put merged, sorted
	window      time.Duration
	counts      []int64 // completed ops per full window
	// perWindow holds a one-worker phase's latencies window by window,
	// each sorted; phases with more workers are read for throughput only.
	perWindow [][]uint32
}

// putFlag marks a sample as a put in a worker's buffer; latencies are
// clamped below it (2.1 s).
const putFlag = 1 << 31

type workerOut struct {
	ops, failed int64
	samples     []uint32
	counts      []int64
	winStart    []int // samples[winStart[i]:] were taken from window i on
}

// phaseWindow is the window a phase is cut into. The host slows down for
// seconds at a time (see README, "noise"), so every metric is computed per
// window and the best decile of windows is reported; a quarter second
// holds thousands of operations and a phase holds dozens of windows.
func phaseWindow(dur time.Duration) time.Duration {
	if dur >= 2*time.Second || dur == 0 {
		return 250 * time.Millisecond
	}
	return dur / 8
}

// run executes the phase against the oracle's current state and leaves the
// oracle at the state the acknowledged puts produced.
func (p *phase) run(o *oracle) phaseResult {
	window := phaseWindow(p.dur)
	outs := make([]workerOut, p.workers)
	for w := range outs {
		outs[w].samples = make([]uint32, 0, p.sampleCap)
		outs[w].counts = make([]int64, 0, int(p.dur/window)+2)
		outs[w].winStart = make([]int, 0, int(p.dur/window)+2)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.work(w, o, start, window, &outs[w])
		}(w)
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start), window: window}
	for _, out := range outs {
		res.ops += out.ops
		res.failed += out.failed
		for i, c := range out.counts {
			if i >= len(res.counts) {
				res.counts = append(res.counts, 0)
			}
			res.counts[i] += c
		}
		for _, s := range out.samples {
			if s&putFlag != 0 {
				res.put = append(res.put, s&^putFlag)
			} else {
				res.get = append(res.get, s)
			}
		}
	}
	slices.Sort(res.get)
	slices.Sort(res.put)
	res.all = append(append(res.all, res.get...), res.put...)
	slices.Sort(res.all)
	if p.workers == 1 {
		out := outs[0]
		for i, from := range out.winStart {
			to := len(out.samples)
			if i+1 < len(out.winStart) {
				to = out.winStart[i+1]
			}
			win := make([]uint32, 0, to-from)
			for _, s := range out.samples[from:to] {
				win = append(win, s&^putFlag)
			}
			slices.Sort(win)
			res.perWindow = append(res.perWindow, win)
		}
	}
	if p.dur > 0 {
		res.counts = fullWindows(res.counts, func(c int64) bool { return c == 0 })
		res.perWindow = fullWindows(res.perWindow, func(w []uint32) bool { return len(w) == 0 })
	}
	return res
}

// merge appends another slice of the same phase: phases of a run are cut
// into slices and interleaved, so that a slow stretch of the host falls on
// a part of each phase and not on the whole of one.
func (r *phaseResult) merge(s phaseResult) {
	r.ops += s.ops
	r.failed += s.failed
	r.elapsed += s.elapsed
	r.window = s.window
	r.counts = append(r.counts, s.counts...)
	r.perWindow = append(r.perWindow, s.perWindow...)
	r.get = append(r.get, s.get...)
	r.put = append(r.put, s.put...)
	r.all = append(r.all, s.all...)
	slices.Sort(r.get)
	slices.Sort(r.put)
	slices.Sort(r.all)
}

// doOp performs one operation on t and checks the reply against the oracle.
// Only the call itself lies between t0 and t1. val is the caller's scratch
// value buffer.
func doOp(t target, o *oracle, key int, put bool, val []byte) (ok bool, t0, t1 time.Time) {
	var (
		got []byte
		err error
	)
	if put {
		fillValue(val, uint32(key), o.ver[key]+1)
		t0 = time.Now()
		err = t.put(key, val)
	} else {
		t0 = time.Now()
		got, err = t.get(key)
	}
	t1 = time.Now()
	switch {
	case err != nil:
		return false, t0, t1
	case put:
		o.acked(key)
	case o.observe(key, got):
		return false, t0, t1
	}
	return true, t0, t1
}

func (p *phase) work(w int, o *oracle, start time.Time, window time.Duration, out *workerOut) {
	g := newOpGen(p.seed, p.name, w, p.workers, len(o.ver), p.putPct, p.zipf)
	if p.subset != nil {
		g.restrict(p.subset)
	}
	t := p.targets[w%len(p.targets)]
	val := make([]byte, p.valLen)
	for n := 0; p.maxOps == 0 || n < p.maxOps; n++ {
		key, put := g.next()
		ok, t0, t1 := doOp(t, o, key, put, val)
		out.ops++
		if !ok {
			out.failed++
		}
		since := t1.Sub(start)
		idx := int(since / window)
		for len(out.counts) <= idx {
			out.counts = append(out.counts, 0)
			out.winStart = append(out.winStart, len(out.samples))
		}
		out.counts[idx]++
		if len(out.samples) < cap(out.samples) {
			ns := uint32(min(t1.Sub(t0), putFlag-1))
			if put {
				ns |= putFlag
			}
			out.samples = append(out.samples, ns)
		}
		if p.rec != nil && w == 0 {
			p.rec.add(p.rung, n, put, t0.Sub(p.rec.epoch), t1.Sub(p.rec.epoch))
		}
		if p.dur > 0 && since >= p.dur {
			break
		}
	}
}

// preload writes version 1 of every key through the targets, workers at a
// time, and returns how many writes were attempted and how many failed.
func preload(o *oracle, targets []target, workers, valLen int) (attempted, failed int64) {
	fails := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := targets[w%len(targets)]
			val := make([]byte, valLen)
			for key := w; key < len(o.ver); key += workers {
				fillValue(val, uint32(key), 1)
				if err := t.put(key, val); err != nil {
					fails[w]++
					continue
				}
				o.ver[key] = 1
			}
		}(w)
	}
	wg.Wait()
	for _, f := range fails {
		failed += f
	}
	return int64(len(o.ver)), failed
}

// openResult is one open-loop rate point.
type openResult struct {
	ops, failed int64
	lat         []uint32 // ns from the intended send time, sorted
	lateMax     time.Duration
}

// runOpen sends on a fixed schedule of rate ops/s for dur, whatever the
// replies do, and times each operation from when it was due. Each of the
// workers owns a key partition and executes its share in order, so a
// reply is still checkable; an operation that finds its worker busy waits
// in that worker's queue and the wait counts. The dispatcher sleeps to
// each millisecond tick and releases everything due; how late it woke is
// reported, because on a small box that lateness is most of the answer.
func runOpen(o *oracle, name string, seed uint64, targets []target, workers int, rate float64, dur time.Duration, putPct, valLen int) openResult {
	queues := make([]chan time.Duration, workers) // intended send times
	outs := make([]workerOut, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range queues {
		// Room for a full second of this worker's share: a stall shorter
		// than that delays operations instead of blocking the schedule.
		queues[w] = make(chan time.Duration, int(rate)/workers+1)
		outs[w].samples = make([]uint32, 0, int(rate*dur.Seconds())/workers+1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := newOpGen(seed, name, w, workers, len(o.ver), putPct, false)
			t := targets[w%len(targets)]
			val := make([]byte, valLen)
			out := &outs[w]
			for due := range queues[w] {
				key, put := g.next()
				ok, _, t1 := doOp(t, o, key, put, val)
				out.ops++
				if !ok {
					out.failed++
				}
				out.samples = append(out.samples, uint32(min(t1.Sub(start)-due, putFlag-1)))
			}
		}(w)
	}
	var res openResult
	gap := time.Duration(float64(time.Second) / rate)
	next, n := time.Duration(0), 0
	for next < dur {
		now := time.Since(start)
		if now < next {
			time.Sleep(min(next-now, time.Millisecond))
			continue
		}
		res.lateMax = max(res.lateMax, now-next)
		for next <= now && next < dur {
			queues[n%workers] <- next
			n++
			next += gap
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for _, out := range outs {
		res.ops += out.ops
		res.failed += out.failed
		res.lat = append(res.lat, out.samples...)
	}
	slices.Sort(res.lat)
	return res
}
