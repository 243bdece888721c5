// Package config defines the parameter sets for every component of the
// String ORAM simulator and carries the presets used by the paper's
// evaluation (Tables I-III, the Fig. 4 Ring ORAM configurations, and the
// Table V Compact Bucket configurations).
//
// All sizes are in bytes and all times in memory-controller clock cycles
// unless a field says otherwise.
package config

import (
	"errors"
	"fmt"
)

// ORAM holds the Ring ORAM / String ORAM protocol parameters (paper
// Table III plus the CB extension).
type ORAM struct {
	// Z is the number of real block slots per bucket.
	Z int
	// S is the nominal number of dummy block slots per bucket. With the
	// Compact Bucket scheme the bucket physically reserves only S-Y dummy
	// slots but still supports S accesses between reshuffles.
	S int
	// Y is the CB rate: how many real blocks per bucket may be consumed
	// as dummies ("green blocks") during read path operations. Y = 0
	// disables Compact Bucket and yields baseline Ring ORAM.
	Y int
	// A is the eviction rate: one eviction is issued after every A read
	// path operations (Ring ORAM's deterministic reverse-lexicographic
	// eviction order).
	A int
	// Levels is the number of tree levels L+1; the root is level 0 and
	// leaves are at level L = Levels-1.
	Levels int
	// TreeTopCacheLevels is how many levels from the root are cached in
	// the on-chip controller and never generate DRAM traffic.
	TreeTopCacheLevels int
	// BlockSize is the data block size in bytes (one cache line).
	BlockSize int
	// StashSize is the stash capacity in blocks.
	StashSize int
	// BackgroundEvictThreshold is the stash occupancy (in blocks) at
	// which background eviction engages. Zero means "90% of StashSize".
	BackgroundEvictThreshold int
	// WarmFill models a steady-state-loaded tree: each lazily
	// materialized bucket starts with synthetic resident real blocks —
	// leaves hold Binomial(Z, WarmFill) blocks, interior buckets one
	// block with probability WarmFill — and a uniformly random phase
	// within its reshuffle period (pre-consumed dummy/green budget),
	// instead of starting empty and fresh. The paper's evaluation
	// assumes a memory full of real data in steady state (that is what
	// Compact Bucket borrows for obfuscation); 0 disables warming.
	WarmFill float64
	// UniformSelect switches read-path dummy selection from the default
	// dummy-first policy (reserved dummies are spent before green
	// blocks — the behaviour the paper's modest green-blocks-per-read
	// measurements imply, and the stash-thrifty choice) to a uniform
	// choice among all valid selectable slots.
	UniformSelect bool
}

// L returns the leaf level index (levels are 0..L).
func (o ORAM) L() int { return o.Levels - 1 }

// Buckets returns the total number of buckets in the tree: 2^Levels - 1.
func (o ORAM) Buckets() int64 { return (int64(1) << uint(o.Levels)) - 1 }

// Leaves returns the number of leaves (and therefore paths): 2^L.
func (o ORAM) Leaves() int64 { return int64(1) << uint(o.L()) }

// SlotsPerBucket returns the number of physical block slots per bucket,
// accounting for the Compact Bucket reduction.
func (o ORAM) SlotsPerBucket() int { return o.Z + o.S - o.Y }

// ReservedDummies returns the number of physical dummy slots per bucket.
func (o ORAM) ReservedDummies() int { return o.S - o.Y }

// RealCapacityBytes returns the bytes devoted to real block slots.
func (o ORAM) RealCapacityBytes() int64 {
	return o.Buckets() * int64(o.Z) * int64(o.BlockSize)
}

// DummyCapacityBytes returns the bytes devoted to reserved dummy slots.
func (o ORAM) DummyCapacityBytes() int64 {
	return o.Buckets() * int64(o.ReservedDummies()) * int64(o.BlockSize)
}

// TotalCapacityBytes returns the full ORAM tree footprint in memory.
func (o ORAM) TotalCapacityBytes() int64 {
	return o.Buckets() * int64(o.SlotsPerBucket()) * int64(o.BlockSize)
}

// SpaceEfficiency returns the fraction of the tree footprint that stores
// real blocks (the paper's "memory space efficiency").
func (o ORAM) SpaceEfficiency() float64 {
	return float64(o.Z) / float64(o.SlotsPerBucket())
}

// DummyPercentage returns the fraction of the footprint that is reserved
// dummy slots, as reported in Table V.
func (o ORAM) DummyPercentage() float64 {
	return float64(o.ReservedDummies()) / float64(o.SlotsPerBucket())
}

// EvictThreshold returns the effective background-eviction trigger level.
func (o ORAM) EvictThreshold() int {
	if o.BackgroundEvictThreshold > 0 {
		return o.BackgroundEvictThreshold
	}
	return o.StashSize * 9 / 10
}

// WithLevels returns the configuration on a tree of the given number of
// levels, its tree-top cache shrunk to levels/3 when the configured one
// would leave fewer than three uncached levels.
func (o ORAM) WithLevels(levels int) ORAM {
	o.Levels = levels
	if o.TreeTopCacheLevels+2 >= levels {
		o.TreeTopCacheLevels = levels / 3
	}
	return o
}

// The serving tree-top budget. A software controller's trusted memory is
// process memory, not the paper's on-chip SRAM, so a serving Ring caches
// every level but the bottom servingUncachedLevels (at most 1/64 of the
// buckets), up to servingTreeTopBytes of worst-case plaintext.
const (
	servingUncachedLevels = 6
	servingTreeTopBytes   = 2 << 20
)

// WithServingLevels returns the configuration on a tree of the given
// number of levels with the serving tree-top cache: every level except
// the bottom six, capped where (2^C-1) × SlotsPerBucket × BlockSize would
// exceed 2 MiB, and never fewer levels than WithLevels caches. Cached
// buckets carry no access budget, so Compact Bucket's green blocks and
// early reshuffles happen only in the uncached levels; six of them keep
// both in play.
func (o ORAM) WithServingLevels(levels int) ORAM {
	o = o.WithLevels(levels)
	perBucket := int64(o.SlotsPerBucket()) * int64(o.BlockSize)
	c := levels - servingUncachedLevels
	for c > o.TreeTopCacheLevels && ((int64(1)<<uint(c))-1)*perBucket > servingTreeTopBytes {
		c--
	}
	o.TreeTopCacheLevels = max(o.TreeTopCacheLevels, c)
	return o
}

// Validate reports whether the ORAM parameters are internally consistent.
func (o ORAM) Validate() error {
	switch {
	case o.Z <= 0:
		return fmt.Errorf("config: Z must be positive, got %d", o.Z)
	case o.S <= 0:
		return fmt.Errorf("config: S must be positive, got %d", o.S)
	case o.Y < 0 || o.Y > o.S:
		return fmt.Errorf("config: Y must be in [0, S=%d], got %d", o.S, o.Y)
	case o.Y > o.Z:
		return fmt.Errorf("config: Y (%d) cannot exceed Z (%d): a bucket cannot lend more green blocks than it has real slots", o.Y, o.Z)
	case o.A <= 0:
		return fmt.Errorf("config: A must be positive, got %d", o.A)
	case o.S < o.A:
		// Ring ORAM requires S = A + X with X >= 0 so that early
		// reshuffles stay rare.
		return fmt.Errorf("config: S (%d) must be >= A (%d)", o.S, o.A)
	case o.Levels < 2 || o.Levels > 40:
		return fmt.Errorf("config: Levels must be in [2, 40], got %d", o.Levels)
	case o.TreeTopCacheLevels < 0 || o.TreeTopCacheLevels >= o.Levels:
		return fmt.Errorf("config: TreeTopCacheLevels must be in [0, Levels), got %d", o.TreeTopCacheLevels)
	case o.BlockSize <= 0 || o.BlockSize&(o.BlockSize-1) != 0:
		return fmt.Errorf("config: BlockSize must be a positive power of two, got %d", o.BlockSize)
	case o.StashSize <= 0:
		return fmt.Errorf("config: StashSize must be positive, got %d", o.StashSize)
	case o.BackgroundEvictThreshold < 0 || o.BackgroundEvictThreshold > o.StashSize:
		return fmt.Errorf("config: BackgroundEvictThreshold must be in [0, StashSize], got %d", o.BackgroundEvictThreshold)
	case o.WarmFill < 0 || o.WarmFill > 0.9:
		return fmt.Errorf("config: WarmFill must be in [0, 0.9], got %v", o.WarmFill)
	}
	return nil
}

// DRAMTiming holds the JEDEC-style timing constraints of the device, in
// memory-controller clock cycles. Defaults follow DDR3-1600 (tCK=1.25ns).
type DRAMTiming struct {
	CL   int // CAS latency: RD to first data beat
	CWL  int // CAS write latency: WR to first data beat
	TRCD int // ACT to RD/WR on the same bank
	TRP  int // PRE to ACT on the same bank
	TRAS int // ACT to PRE on the same bank
	TRC  int // ACT to ACT on the same bank
	TCCD int // column command to column command, same rank
	TRRD int // ACT to ACT across banks, same rank
	TFAW int // window for at most four ACTs, same rank
	TWTR int // end of write data to read command, same rank
	TWR  int // end of write data to PRE, same bank
	TRTP int // RD to PRE, same bank
	TBUS int // data burst duration on the bus (BL8 on DDR => 4 cycles)
	TRFC int // refresh command duration
	REFI int // average refresh interval
}

// DRAMEnergy holds per-operation DRAM energies in nanojoules plus the
// background power, for first-order energy accounting (IDD-derived
// DDR3-1600 x8 ballpark values).
type DRAMEnergy struct {
	ACT         float64 // row activation (includes the eventual restore)
	PRE         float64 // precharge
	RD          float64 // read burst
	WR          float64 // write burst
	REF         float64 // one refresh command
	BackgroundW float64 // background power per rank, watts
	CycleNS     float64 // memory-controller cycle time, nanoseconds
}

// DDR31600Energy returns first-order DDR3-1600 energy parameters.
func DDR31600Energy() DRAMEnergy {
	return DRAMEnergy{
		ACT: 15.0, PRE: 5.0, RD: 13.0, WR: 13.0, REF: 48.0,
		BackgroundW: 0.10, CycleNS: 1.25,
	}
}

// DDR31600Timing returns DDR3-1600K timing in 800MHz cycles.
func DDR31600Timing() DRAMTiming {
	return DRAMTiming{
		CL: 11, CWL: 8,
		TRCD: 11, TRP: 11, TRAS: 28, TRC: 39,
		TCCD: 4, TRRD: 5, TFAW: 24,
		TWTR: 6, TWR: 12, TRTP: 6,
		TBUS: 4,
		TRFC: 208, REFI: 6240,
	}
}

// Validate reports whether the timing constraints are plausible.
func (t DRAMTiming) Validate() error {
	type c struct {
		name string
		v    int
	}
	for _, x := range []c{
		{"CL", t.CL}, {"CWL", t.CWL}, {"TRCD", t.TRCD}, {"TRP", t.TRP},
		{"TRAS", t.TRAS}, {"TRC", t.TRC}, {"TCCD", t.TCCD}, {"TRRD", t.TRRD},
		{"TFAW", t.TFAW}, {"TWTR", t.TWTR}, {"TWR", t.TWR}, {"TRTP", t.TRTP},
		{"TBUS", t.TBUS}, {"TRFC", t.TRFC}, {"REFI", t.REFI},
	} {
		if x.v <= 0 {
			return fmt.Errorf("config: DRAM timing %s must be positive, got %d", x.name, x.v)
		}
	}
	if t.TRC < t.TRAS+t.TRP {
		return fmt.Errorf("config: tRC (%d) must be >= tRAS+tRP (%d)", t.TRC, t.TRAS+t.TRP)
	}
	return nil
}

// PagePolicy selects the row-buffer management policy.
type PagePolicy int

const (
	// OpenPage keeps rows open after column commands (the paper's
	// assumption; subtree layout exists to exploit it).
	OpenPage PagePolicy = iota
	// ClosePage precharges a bank as soon as no queued request wants
	// its open row (an ablation knob).
	ClosePage
)

// String implements fmt.Stringer.
func (p PagePolicy) String() string {
	switch p {
	case OpenPage:
		return "open-page"
	case ClosePage:
		return "close-page"
	default:
		return fmt.Sprintf("PagePolicy(%d)", int(p))
	}
}

// DRAM holds the memory-system organization (paper Table II).
type DRAM struct {
	Channels   int
	Ranks      int // per channel
	Banks      int // per rank
	Rows       int // per bank
	Columns    int // cache lines per row
	ReadQueue  int // entries per channel
	WriteQueue int // entries per channel
	Timing     DRAMTiming
	// Policy is the row-buffer management policy (default OpenPage).
	Policy PagePolicy
	// StarvationLimit caps FR-FCFS reordering: once the oldest pending
	// request of the current transaction has waited this many cycles,
	// the controller serves it before younger row hits. 0 disables the
	// guard (pure FR-FCFS; transaction barriers already bound waiting).
	StarvationLimit int
}

// RowBytes returns the row-buffer capacity in bytes for blockSize-byte lines.
func (d DRAM) RowBytes(blockSize int) int64 {
	return int64(d.Columns) * int64(blockSize)
}

// CapacityBytes returns the total DRAM capacity for blockSize-byte lines.
func (d DRAM) CapacityBytes(blockSize int) int64 {
	return int64(d.Channels) * int64(d.Ranks) * int64(d.Banks) *
		int64(d.Rows) * d.RowBytes(blockSize)
}

// TotalBanks returns the number of independently schedulable banks.
func (d DRAM) TotalBanks() int { return d.Channels * d.Ranks * d.Banks }

// Validate reports whether the organization is internally consistent.
func (d DRAM) Validate() error {
	for _, x := range []struct {
		name string
		v    int
	}{
		{"Channels", d.Channels}, {"Ranks", d.Ranks}, {"Banks", d.Banks},
		{"Rows", d.Rows}, {"Columns", d.Columns},
		{"ReadQueue", d.ReadQueue}, {"WriteQueue", d.WriteQueue},
	} {
		if x.v <= 0 {
			return fmt.Errorf("config: DRAM %s must be positive, got %d", x.name, x.v)
		}
	}
	for _, x := range []struct {
		name string
		v    int
	}{
		{"Channels", d.Channels}, {"Ranks", d.Ranks}, {"Banks", d.Banks},
		{"Rows", d.Rows}, {"Columns", d.Columns},
	} {
		if x.v&(x.v-1) != 0 {
			return fmt.Errorf("config: DRAM %s must be a power of two for address bit slicing, got %d", x.name, x.v)
		}
	}
	return d.Timing.Validate()
}

// SchedulerKind selects the memory-controller command scheduling policy.
type SchedulerKind int

const (
	// SchedTransaction is the baseline transaction-based scheduler
	// (paper Algorithm 1): every command of ORAM access i issues before
	// any command of access i+1.
	SchedTransaction SchedulerKind = iota
	// SchedProactiveBank is the PB scheduler (paper Algorithm 2):
	// PRE/ACT of access i+1 may issue early on inter-transaction
	// row-buffer conflicts.
	SchedProactiveBank
)

// String implements fmt.Stringer.
func (k SchedulerKind) String() string {
	switch k {
	case SchedTransaction:
		return "transaction"
	case SchedProactiveBank:
		return "proactive-bank"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(k))
	}
}

// LayoutKind selects the ORAM-tree-to-physical-address mapping.
type LayoutKind int

const (
	// LayoutSubtree is the subtree layout of Ren et al. [19] (the
	// paper's default): h-level subtrees packed into row buffers.
	LayoutSubtree LayoutKind = iota
	// LayoutFlat stores buckets in plain heap order (an ablation knob
	// showing what the subtree layout buys).
	LayoutFlat
)

// String implements fmt.Stringer.
func (k LayoutKind) String() string {
	switch k {
	case LayoutSubtree:
		return "subtree"
	case LayoutFlat:
		return "flat"
	default:
		return fmt.Sprintf("LayoutKind(%d)", int(k))
	}
}

// System bundles the full simulator configuration.
type System struct {
	ORAM      ORAM
	DRAM      DRAM
	Scheduler SchedulerKind
	Layout    LayoutKind
	Seed      uint64
}

// Validate checks every sub-configuration and the cross-component
// constraint that the ORAM tree fits in DRAM.
func (s System) Validate() error {
	if err := s.ORAM.Validate(); err != nil {
		return err
	}
	if err := s.DRAM.Validate(); err != nil {
		return err
	}
	if s.Scheduler != SchedTransaction && s.Scheduler != SchedProactiveBank {
		return errors.New("config: unknown scheduler kind")
	}
	if s.Layout != LayoutSubtree && s.Layout != LayoutFlat {
		return errors.New("config: unknown layout kind")
	}
	if s.DRAM.Policy != OpenPage && s.DRAM.Policy != ClosePage {
		return errors.New("config: unknown page policy")
	}
	need := s.ORAM.TotalCapacityBytes()
	have := s.DRAM.CapacityBytes(s.ORAM.BlockSize)
	if need > have {
		return fmt.Errorf("config: ORAM tree needs %d bytes but DRAM only has %d", need, have)
	}
	return nil
}

// Default returns the paper's default String ORAM system configuration
// (Tables I, II and III): Z=8, S=12, Y=8, 24 levels, 6 cached levels,
// stash 500, DDR3-1600 with 4 channels x 1 rank x 8 banks.
func Default() System {
	return System{
		ORAM: ORAM{
			Z: 8, S: 12, Y: 8, A: 8,
			Levels:             24,
			TreeTopCacheLevels: 6,
			BlockSize:          64,
			StashSize:          500,
		},
		DRAM: DRAM{
			Channels: 4, Ranks: 1, Banks: 8,
			// Paper Table II says 16384 rows and 128 columns, which
			// yields only 1 GB/channel; we keep 128 columns (8 KB
			// rows) and raise rows to 2^17 so a channel genuinely
			// holds 8 GB as the table's capacity line requires.
			Rows: 1 << 17, Columns: 128,
			ReadQueue: 64, WriteQueue: 64,
			Timing: DDR31600Timing(),
		},
		Scheduler: SchedTransaction,
		Seed:      0x57524e47, // "WRNG"
	}
}

// RingConfig is one of the bandwidth-optimal Ring ORAM parameter points
// from the paper's Fig. 4 (derived from Ren et al., USENIX Security'15).
type RingConfig struct {
	Name string
	Z    int
	A    int
	X    int // S = A + X
	S    int
}

// Fig4Configs returns the four Ring ORAM configurations of Fig. 4.
func Fig4Configs() []RingConfig {
	return []RingConfig{
		{Name: "Config-1", Z: 4, A: 3, X: 2, S: 5},
		{Name: "Config-2", Z: 8, A: 8, X: 4, S: 12},
		{Name: "Config-3", Z: 16, A: 20, X: 7, S: 27},
		{Name: "Config-4", Z: 32, A: 46, X: 12, S: 58},
	}
}

// ORAMForRing builds an ORAM config for a Fig. 4 Ring configuration at the
// paper's L=23 (24 levels), 64 B blocks.
func ORAMForRing(rc RingConfig) ORAM {
	return ORAM{
		Z: rc.Z, S: rc.S, Y: 0, A: rc.A,
		Levels:             24,
		TreeTopCacheLevels: 6,
		BlockSize:          64,
		StashSize:          500,
	}
}

// CBConfig is one of the Table V Compact Bucket configurations.
type CBConfig struct {
	Name string
	Y    int
}

// TableVConfigs returns the five CB configurations of Table V / Fig. 13.
// "Baseline" is Y=0, Config-4 (Y=8) is the paper default.
func TableVConfigs() []CBConfig {
	return []CBConfig{
		{Name: "Baseline", Y: 0},
		{Name: "Config-1", Y: 2},
		{Name: "Config-2", Y: 4},
		{Name: "Config-3", Y: 6},
		{Name: "Config-4", Y: 8},
	}
}

// WithCBRate returns a copy of the system with the CB rate set to y.
func (s System) WithCBRate(y int) System {
	s.ORAM.Y = y
	return s
}

// WithScheduler returns a copy of the system with the given scheduler.
func (s System) WithScheduler(k SchedulerKind) System {
	s.Scheduler = k
	return s
}

// WithStashSize returns a copy of the system with the given stash capacity.
func (s System) WithStashSize(n int) System {
	s.ORAM.StashSize = n
	return s
}

// WithLayout returns a copy of the system with the given address layout.
func (s System) WithLayout(k LayoutKind) System {
	s.Layout = k
	return s
}

// WithPagePolicy returns a copy of the system with the given row-buffer
// policy.
func (s System) WithPagePolicy(p PagePolicy) System {
	s.DRAM.Policy = p
	return s
}

// ScaledDefault returns the default configuration shrunk to a tree of the
// given number of levels so that unit and integration tests run fast while
// exercising identical code paths. DRAM is shrunk proportionally.
func ScaledDefault(levels int) System {
	s := Default()
	s.ORAM = s.ORAM.WithLevels(levels)
	// Shrink rows so the address space stays dense but sufficient.
	need := s.ORAM.TotalCapacityBytes()
	rowBytes := s.DRAM.RowBytes(s.ORAM.BlockSize)
	perChan := int64(s.DRAM.Ranks) * int64(s.DRAM.Banks) * rowBytes
	rows := int64(1)
	for rows*perChan*int64(s.DRAM.Channels) < need*2 {
		rows <<= 1
	}
	if rows < 4 {
		rows = 4
	}
	s.DRAM.Rows = int(rows)
	return s
}
