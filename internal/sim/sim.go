// Package sim wires the full String ORAM system together and runs it:
// trace-driven cores issue accesses through the shared LLC; misses become
// Ring ORAM operations; each operation's physical block accesses map
// through the subtree layout onto DRAM coordinates and execute as one
// memory transaction under the configured scheduler (baseline
// transaction-based or Proactive Bank).
//
// The simulator advances event-to-event: while any core can retire it
// steps cycle by cycle (cores are cheap), and while everything waits on
// DRAM it jumps straight to the controller's next actionable cycle.
package sim

import (
	"errors"
	"fmt"
	"strings"

	"stringoram/internal/addrmap"
	"stringoram/internal/cache"
	"stringoram/internal/config"
	"stringoram/internal/cpu"
	"stringoram/internal/dram"
	"stringoram/internal/invariant"
	"stringoram/internal/obs"
	"stringoram/internal/oram"
	"stringoram/internal/sched"
	"stringoram/internal/trace"
)

// Options tunes one simulation run.
type Options struct {
	// MaxAccesses stops trace consumption after this many logical ORAM
	// accesses (LLC misses + writebacks); 0 means run the whole trace.
	MaxAccesses int
	// CollectStash records the stash occupancy after every ORAM access
	// into Result.StashSamples (Fig. 15).
	CollectStash bool
	// BalanceChannels enables imbalance-aware dummy-slot selection
	// (Che et al., ICCD'19): among equally valid dummy slots, the
	// controller picks the one on the least-loaded memory channel.
	BalanceChannels bool
	// OnCommand, when set, observes every DRAM command the memory
	// controller issues (for the Fig. 6/8 timeline renderings).
	OnCommand func(sched.CommandEvent)
	// PathORAM replaces the Ring ORAM protocol with the Path ORAM
	// baseline (Z real slots per bucket, full-path read and write per
	// access) so the two protocols can be compared in execution time on
	// the same memory system. S, Y and A of the ORAM config are ignored.
	PathORAM bool
	// FlightRecorder, when set, captures typed events the simulator reads
	// off its own run (op lists, protocol Stats, the controller's command
	// stream), stamped with the DRAM cycle — never wall clock, so runs
	// stay seed deterministic.
	FlightRecorder *obs.Recorder[obs.Event]
}

// protocol abstracts the ORAM engine the simulator drives; both *oram.Ring
// and *oram.Path satisfy it.
type protocol interface {
	Access(id oram.BlockID, write bool, data []byte) ([]byte, []oram.Op, error)
	Stats() oram.Stats
	StashLen() int
}

// Result carries everything the experiment harness reads off one run.
type Result struct {
	Workload  string
	Scheduler config.SchedulerKind
	CBRate    int

	// Cycles is the total execution time in memory-controller cycles.
	Cycles int64
	// PhaseCycles attributes execution time to the ORAM operation the
	// memory system was servicing (read path / evict / reshuffle).
	PhaseCycles [sched.NumTags]int64
	// OtherCycles is time with no ORAM transaction in flight (compute,
	// refresh-only gaps, drain tails).
	OtherCycles int64

	Retired      int64   // instructions retired
	PerCore      []int64 // instructions retired per core (fairness studies)
	ORAMAccesses int64   // logical ORAM accesses serviced
	LLCHitRate   float64

	ORAM  oram.Stats
	Sched sched.Stats

	// BankIdle is the average fraction of execution time each bank
	// spent idle (Fig. 12(a)).
	BankIdle float64

	// StashSamples, when requested, is the stash occupancy after every
	// ORAM access.
	StashSamples []int
}

// PhaseFor maps an ORAM operation kind to its statistics tag.
func PhaseFor(k oram.OpKind) sched.Tag {
	switch k {
	case oram.OpEvictPath:
		return sched.TagEvict
	case oram.OpEarlyReshuffle:
		return sched.TagReshuffle
	default:
		return sched.TagReadPath
	}
}

// txnWork is one ORAM operation's pending memory transaction.
type txnWork struct {
	id   int64
	tag  sched.Tag
	reqs []*sched.Request
	next int
	born int64 // cycle the transaction was created (latency spans)
}

// waiter ties a core's outstanding miss to the transaction whose
// completion delivers its data.
type waiter struct {
	core int
	txn  int64
}

// tagWindow maps transaction ids to their phase tag over the sliding
// window [base, nextTxn), replacing a map[int64]sched.Tag on the per-tick
// attribution path. Slots are addressed id&mask; growth keeps the live
// span alias-free.
type tagWindow struct {
	tags []sched.Tag
	base int64
	mask int64
}

func newTagWindow() tagWindow {
	const initial = 1024 // power of two
	return tagWindow{tags: make([]sched.Tag, initial), mask: initial - 1}
}

// set records the tag of transaction id (ids arrive in increasing order).
func (w *tagWindow) set(id int64, tag sched.Tag) {
	if invariant.Enabled {
		invariant.Assertf(id >= w.base, "tag window write for pruned txn %d (window base %d)", id, w.base)
	}
	if id-w.base >= int64(len(w.tags)) {
		n := len(w.tags)
		for int64(n) <= id-w.base {
			n *= 2
		}
		tags := make([]sched.Tag, n)
		for i := w.base; i < id; i++ {
			tags[i&int64(n-1)] = w.tags[i&w.mask]
		}
		w.tags = tags
		w.mask = int64(n - 1)
	}
	if invariant.Enabled {
		// The live span [base, id] must fit in the ring or slot id&mask
		// would alias another live transaction's tag.
		invariant.Assertf(id-w.base < int64(len(w.tags)), "tag window span [%d, %d] exceeds ring size %d after growth", w.base, id, len(w.tags))
	}
	w.tags[id&w.mask] = tag
}

// get returns the tag of transaction id and whether id is inside the
// window (ids below base have been pruned; ids at or above hi were never
// assigned).
func (w *tagWindow) get(id, hi int64) (sched.Tag, bool) {
	if id < w.base || id >= hi {
		return 0, false
	}
	if invariant.Enabled {
		// A read inside [base, hi) is alias-free only while the whole
		// live span fits in the ring.
		invariant.Assertf(hi-w.base <= int64(len(w.tags)), "tag window read of txn %d with live span [%d, %d) wider than ring size %d", id, w.base, hi, len(w.tags))
	}
	return w.tags[id&w.mask], true
}

// prune forgets all transactions below cur.
func (w *tagWindow) prune(cur int64) {
	if cur > w.base {
		w.base = cur
	}
}

// Sim is one configured simulation instance.
type Sim struct {
	sys    config.System
	proto  protocol
	mapper *addrmap.Mapper
	ctrl   *sched.Controller
	llc    *cache.Cache
	clus   *cpu.Cluster

	// pending and inflight are FIFOs with explicit heads so their backing
	// arrays (and the txnWork/Request objects flowing through them, via
	// the freelists) are recycled instead of reallocated: steady-state
	// simulation performs no per-transaction heap allocation here.
	pending  []*txnWork
	pendHead int
	inflight []*txnWork
	inflHead int
	freeReq  []*sched.Request
	freeWork []*txnWork

	tags     tagWindow
	nextTxn  int64
	waiters  []waiter
	accesses int64
	// stash appends the Ring's occupancy after each access to
	// res.StashSamples (Options.CollectStash).
	stash bool

	// now mirrors the run loop's current cycle so recorded events and
	// transaction birth stamps read the simulated time, not wall clock.
	now int64
	rec *obs.Recorder[obs.Event]
	// last is the protocol's Stats after the last recorded access.
	last oram.Stats

	res *Result
}

// getWork returns a recycled (or new) txnWork.
func (s *Sim) getWork(id int64, tag sched.Tag) *txnWork {
	if n := len(s.freeWork); n > 0 {
		w := s.freeWork[n-1]
		s.freeWork = s.freeWork[:n-1]
		w.id, w.tag, w.next, w.born = id, tag, 0, s.now
		w.reqs = w.reqs[:0]
		return w
	}
	return &txnWork{id: id, tag: tag, born: s.now}
}

// getReq returns a recycled (or new) request, zeroed.
func (s *Sim) getReq() *sched.Request {
	if n := len(s.freeReq); n > 0 {
		r := s.freeReq[n-1]
		s.freeReq = s.freeReq[:n-1]
		*r = sched.Request{}
		return r
	}
	return &sched.Request{}
}

// New builds a simulation of the given system over the given trace.
func New(sys config.System, tr *trace.Trace, opts Options) (*Sim, error) {
	return newSim(sys, []*trace.Trace{tr}, tr.Name, opts)
}

// NewMulti builds a heterogeneous multiprogrammed simulation: one trace
// per core (repeating round-robin when fewer traces than cores).
func NewMulti(sys config.System, trs []*trace.Trace, opts Options) (*Sim, error) {
	if len(trs) == 0 {
		return nil, errors.New("sim: NewMulti needs at least one trace")
	}
	names := make([]string, len(trs))
	for i, tr := range trs {
		names[i] = tr.Name
	}
	return newSim(sys, trs, "mix("+strings.Join(names, "+")+")", opts)
}

func newSim(sys config.System, trs []*trace.Trace, name string, opts Options) (*Sim, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	mapperCfg := sys.ORAM
	if opts.PathORAM {
		// Path ORAM buckets hold exactly Z slots; satisfy the config
		// invariants with the degenerate S=Y=A=1 so SlotsPerBucket==Z.
		mapperCfg.S, mapperCfg.Y, mapperCfg.A = 1, 1, 1
		mapperCfg.WarmFill = 0
	}
	mapper, err := addrmap.NewLayout(mapperCfg, sys.DRAM, sys.Layout)
	if err != nil {
		return nil, err
	}
	var ringOpts oram.Options
	res := &Result{Workload: name, Scheduler: sys.Scheduler, CBRate: sys.ORAM.Y}
	if opts.BalanceChannels {
		load := make([]int64, sys.DRAM.Channels)
		ringOpts.SlotBalancer = func(bucket int64, _ int, cands []int) int {
			best, bestLoad := 0, int64(1)<<62
			for i, s := range cands {
				if l := load[mapper.MapAccess(bucket, s).Channel]; l < bestLoad {
					best, bestLoad = i, l
				}
			}
			load[mapper.MapAccess(bucket, cands[best]).Channel]++
			return best
		}
	}
	var proto protocol
	if opts.PathORAM {
		proto, err = oram.NewPath(sys.ORAM.Z, sys.ORAM.Levels, sys.ORAM.BlockSize,
			sys.ORAM.StashSize, sys.Seed, &ringOpts)
	} else {
		proto, err = oram.NewRing(sys.ORAM, sys.Seed, &ringOpts)
	}
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(sys.Cache)
	if err != nil {
		return nil, err
	}
	ctrl := sched.New(sys.DRAM, sys.Scheduler)
	ctrl.OnCommand = opts.OnCommand
	if rec := opts.FlightRecorder; rec != nil {
		next, banks := opts.OnCommand, sys.DRAM.Banks
		ctrl.OnCommand = func(e sched.CommandEvent) {
			if e.Early {
				kind := obs.EvEarlyACT
				if e.Kind == dram.CmdPRE {
					kind = obs.EvEarlyPRE
				}
				rec.Emit(obs.Event{TS: e.Cycle, Kind: kind, Track: int32(e.Channel),
					Arg0: int64(e.Channel), Arg1: int64(e.Rank*banks + e.Bank)})
			}
			if next != nil {
				next(e)
			}
		}
	}
	var clus *cpu.Cluster
	if len(trs) == 1 {
		// Homogeneous run: shard the trace across cores (the paper's
		// CMP setting runs one application on all cores).
		clus = cpu.NewCluster(trs[0], sys.CPU, sys.DRAM.CPUClockMul)
	} else {
		clus = cpu.NewClusterMulti(trs, sys.CPU, sys.DRAM.CPUClockMul)
	}
	s := &Sim{
		sys:    sys,
		proto:  proto,
		mapper: mapper,
		ctrl:   ctrl,
		llc:    llc,
		clus:   clus,
		tags:   newTagWindow(),
		res:    res,
		rec:    opts.FlightRecorder,
		stash:  opts.CollectStash,
	}
	return s, nil
}

// oramAccess pushes one logical access through the protocol and turns its
// operations into pending transactions. It returns the transaction id of
// the access's read path (the one whose completion returns data).
func (s *Sim) oramAccess(blockID oram.BlockID, write bool) (int64, error) {
	_, ops, err := s.proto.Access(blockID, write, nil)
	if err != nil {
		return 0, fmt.Errorf("sim: oram access of block %d: %w", blockID, err)
	}
	s.accesses++
	if s.stash {
		s.res.StashSamples = append(s.res.StashSamples, s.proto.StashLen())
	}
	if s.rec != nil {
		s.record(ops)
	}
	dataTxn := int64(-1)
	for _, op := range ops {
		id := s.nextTxn
		s.nextTxn++
		tag := PhaseFor(op.Kind)
		s.tags.set(id, tag)
		w := s.getWork(id, tag)
		for _, a := range op.Accesses {
			// The tree-top cache absorbs the shallow levels; the Ring
			// engine filters them itself but the Path engine emits the
			// full path.
			if a.Level < s.sys.ORAM.TreeTopCacheLevels {
				continue
			}
			r := s.getReq()
			r.Txn = id
			r.Coord = s.mapper.MapAccess(a.Bucket, a.Slot)
			r.Write = a.Write
			r.Tag = tag
			w.reqs = append(w.reqs, r)
		}
		s.pending = append(s.pending, w)
		if op.Kind == oram.OpReadPath && dataTxn < 0 {
			dataTxn = id
		}
	}
	if dataTxn < 0 {
		// Every access issues exactly one real read path; its absence
		// is a protocol bug.
		return 0, errors.New("sim: access produced no read path operation")
	}
	return dataTxn, nil
}

// record stamps one access's flight-recorder events at s.now: one per
// early reshuffle and background dummy read in ops, the green fetches and
// background evictions it added to the protocol's Stats, and the access.
func (s *Sim) record(ops []oram.Op) {
	dummies := int64(0)
	for _, op := range ops {
		switch op.Kind {
		case oram.OpEarlyReshuffle:
			a := op.Accesses[0]
			s.rec.Emit(obs.Event{TS: s.now, Kind: obs.EvEarlyReshuffle, Arg0: int64(a.Level), Arg1: a.Bucket})
		case oram.OpDummyReadPath:
			dummies++
			s.rec.Emit(obs.Event{TS: s.now, Kind: obs.EvBackgroundDummy, Arg0: dummies, Arg1: int64(op.Path)})
		}
	}
	st := s.proto.Stats()
	if n := st.GreenFetches - s.last.GreenFetches; n > 0 {
		s.rec.Emit(obs.Event{TS: s.now, Kind: obs.EvGreenFetch, Arg0: n, Arg1: st.GreenFetches})
	}
	if n := st.BackgroundEvictions - s.last.BackgroundEvictions; n > 0 {
		s.rec.Emit(obs.Event{TS: s.now, Kind: obs.EvBackgroundEviction, Arg0: n, Arg1: st.BackgroundEvictions})
	}
	s.last = st
	s.rec.Emit(obs.Event{TS: s.now, Kind: obs.EvAccess,
		Arg0: int64(s.proto.StashLen()), Arg1: int64(len(ops))})
}

// feed streams pending transactions into the controller, in order, as
// queue space allows. Fully enqueued transactions move to the inflight
// FIFO, where they stay until drained and their requests can be recycled.
func (s *Sim) feed(now int64) {
	for s.pendHead < len(s.pending) {
		w := s.pending[s.pendHead]
		for w.next < len(w.reqs) && s.ctrl.Enqueue(w.reqs[w.next], now) {
			w.next++
		}
		if w.next < len(w.reqs) {
			return
		}
		s.ctrl.CloseTxn(w.id)
		s.pendHead++
		s.inflight = append(s.inflight, w)
	}
	s.pending = s.pending[:0]
	s.pendHead = 0
}

// completeWaiters unblocks cores whose data transaction has drained and
// recycles the memory of fully drained transactions, emitting each
// drained transaction's latency span on the way out.
func (s *Sim) completeWaiters(now int64) {
	cur := s.ctrl.CurrentTxn()
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if w.txn < cur {
			s.clus.Cores[w.core].Complete()
		} else {
			kept = append(kept, w)
		}
	}
	s.waiters = kept
	// Prune the phase window and return drained transactions' requests
	// to the freelists.
	s.tags.prune(cur)
	for s.inflHead < len(s.inflight) && s.inflight[s.inflHead].id < cur {
		w := s.inflight[s.inflHead]
		s.rec.Emit(obs.Event{TS: w.born, Dur: now - w.born, Kind: obs.EvTxn,
			Track: int32(w.tag), Arg0: int64(w.tag), Arg1: int64(len(w.reqs))})
		s.freeReq = append(s.freeReq, w.reqs...)
		s.freeWork = append(s.freeWork, w)
		s.inflHead++
	}
	if s.inflHead == len(s.inflight) {
		s.inflight = s.inflight[:0]
		s.inflHead = 0
	}
}

// handleAccesses routes core accesses through the LLC and the ORAM.
func (s *Sim) handleAccesses(acc []cpu.Access, opts Options) error {
	for _, a := range acc {
		r := s.llc.Access(a.Addr, a.Write)
		if r.Hit {
			// LLC hits return within the core's pipeline; the miss
			// slot frees immediately in the memory clock domain.
			s.clus.Cores[a.Core].Complete()
		} else {
			txn, err := s.oramAccess(oram.BlockID(a.Addr/uint64(s.sys.ORAM.BlockSize)), false)
			if err != nil {
				return err
			}
			s.waiters = append(s.waiters, waiter{core: a.Core, txn: txn})
		}
		if r.Writeback {
			if _, err := s.oramAccess(oram.BlockID(r.WritebackAddr/uint64(s.sys.ORAM.BlockSize)), true); err != nil {
				return err
			}
		}
		if opts.MaxAccesses > 0 && s.accesses >= int64(opts.MaxAccesses) {
			break
		}
	}
	return nil
}

// Run executes the simulation to completion and returns the result.
func Run(sys config.System, tr *trace.Trace, opts Options) (*Result, error) {
	s, err := New(sys, tr, opts)
	if err != nil {
		return nil, err
	}
	return s.run(opts)
}

// RunMulti executes a heterogeneous multiprogrammed simulation.
func RunMulti(sys config.System, trs []*trace.Trace, opts Options) (*Result, error) {
	s, err := NewMulti(sys, trs, opts)
	if err != nil {
		return nil, err
	}
	return s.run(opts)
}

func (s *Sim) run(opts Options) (*Result, error) {
	now := int64(0)
	const maxIters = 2_000_000_000
	tracing := true // still consuming the trace
	for iter := 0; ; iter++ {
		if iter > maxIters {
			return nil, errors.New("sim: exceeded iteration budget; likely deadlock")
		}
		s.now = now
		s.feed(now)

		if tracing && opts.MaxAccesses > 0 && s.accesses >= int64(opts.MaxAccesses) {
			tracing = false
		}
		if tracing && s.clus.Active() {
			if err := s.handleAccesses(s.clus.Tick(), opts); err != nil {
				return nil, err
			}
			s.feed(now)
		}
		if tracing && s.clus.Done() {
			tracing = false
		}

		next := s.ctrl.Tick(now)
		s.completeWaiters(now)

		memDone := s.pendHead == len(s.pending) && s.ctrl.Pending() == 0
		if !tracing && memDone {
			// Account the final cycle (the Tick that drained the last
			// command) before stopping.
			s.attribute(now, now+1)
			now++
			s.now = now
			break
		}

		// Choose the next cycle and attribute the elapsed interval to
		// the phase being serviced.
		var nxt int64
		if (tracing && s.clus.Active()) || !memDone && next <= now {
			nxt = now + 1
		} else if memDone {
			// Memory idle but cores blocked? That means waiters wait
			// on transactions that never existed — a wiring bug.
			if !tracing || !s.clus.Active() {
				return nil, errors.New("sim: stalled with idle memory")
			}
			nxt = now + 1
		} else if next == int64(1<<63-1) {
			nxt = now + 1
		} else {
			nxt = next
		}
		s.attribute(now, nxt)
		now = nxt
	}

	return s.finalize(now), nil
}

// attribute charges the interval [from, to) to the phase of the
// transaction currently being serviced (or "other" when none).
func (s *Sim) attribute(from, to int64) {
	if to <= from {
		return
	}
	delta := to - from
	if s.ctrl.Pending() == 0 && s.pendHead == len(s.pending) {
		s.res.OtherCycles += delta
		return
	}
	if tag, ok := s.tags.get(s.ctrl.CurrentTxn(), s.nextTxn); ok {
		s.res.PhaseCycles[tag] += delta
		return
	}
	s.res.OtherCycles += delta
}

// finalize gathers statistics into the result.
func (s *Sim) finalize(cycles int64) *Result {
	r := s.res
	r.Cycles = cycles
	r.Retired = s.clus.Retired()
	for _, core := range s.clus.Cores {
		r.PerCore = append(r.PerCore, core.Retired())
	}
	r.ORAMAccesses = s.accesses
	r.LLCHitRate = s.llc.HitRate()
	r.ORAM = s.proto.Stats()
	r.Sched = *s.ctrl.Stats()

	var busy int64
	banks := 0
	for c := 0; c < s.sys.DRAM.Channels; c++ {
		dev := s.ctrl.Channel(c)
		for rank := 0; rank < s.sys.DRAM.Ranks; rank++ {
			for b := 0; b < s.sys.DRAM.Banks; b++ {
				busy += dev.BankBusyCycles(rank, b)
				banks++
			}
		}
	}
	if cycles > 0 && banks > 0 {
		r.BankIdle = 1 - float64(busy)/float64(cycles)/float64(banks)
	}
	return r
}
