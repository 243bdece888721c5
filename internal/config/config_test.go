package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesPaperTables(t *testing.T) {
	s := Default()
	o := s.ORAM
	if o.Z != 8 || o.S != 12 || o.Y != 8 || o.Levels != 24 ||
		o.TreeTopCacheLevels != 6 || o.BlockSize != 64 || o.StashSize != 500 {
		t.Fatalf("ORAM defaults diverge from Table III: %+v", o)
	}
	if s.DRAM.Channels != 4 || s.DRAM.Banks != 8 || s.DRAM.ReadQueue != 64 {
		t.Fatalf("DRAM defaults diverge from Table II: %+v", s.DRAM)
	}
}

func TestBucketsLeaves(t *testing.T) {
	o := ORAM{Levels: 4}
	if got := o.Buckets(); got != 15 {
		t.Errorf("Buckets() = %d, want 15", got)
	}
	if got := o.Leaves(); got != 8 {
		t.Errorf("Leaves() = %d, want 8", got)
	}
	if got := o.L(); got != 3 {
		t.Errorf("L() = %d, want 3", got)
	}
}

// TestFig4Capacities checks the headline numbers the paper reads off
// Fig. 4: Config-1 stores 4 GB of real blocks; Config-4 stores 32 GB of
// real blocks and needs 58 GB of dummies, for 35.56% space efficiency.
func TestFig4Capacities(t *testing.T) {
	cfgs := Fig4Configs()
	wantRealGB := []float64{4, 8, 16, 32}
	for i, rc := range cfgs {
		o := ORAMForRing(rc)
		if err := o.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", rc.Name, err)
		}
		gb := float64(o.RealCapacityBytes()) / float64(1<<30)
		// 2^24-1 buckets is within 1e-5 of 2^24, so compare loosely.
		if diff := gb - wantRealGB[i]; diff < -0.01 || diff > 0.01 {
			t.Errorf("%s real capacity = %.3f GB, want ~%.0f GB", rc.Name, gb, wantRealGB[i])
		}
		if rc.S != rc.A+rc.X {
			t.Errorf("%s: S (%d) != A+X (%d)", rc.Name, rc.S, rc.A+rc.X)
		}
	}
	c4 := ORAMForRing(cfgs[3])
	eff := c4.SpaceEfficiency()
	if eff < 0.3550 || eff > 0.3562 {
		t.Errorf("Config-4 space efficiency = %.4f, want ~0.3556", eff)
	}
	dummyGB := float64(c4.DummyCapacityBytes()) / float64(1<<30)
	if dummyGB < 57.9 || dummyGB > 58.1 {
		t.Errorf("Config-4 dummy capacity = %.2f GB, want ~58 GB", dummyGB)
	}
}

// TestTableVSpace checks Table V: with Z=8, S=12, L=23 the total memory
// space for Y = 0,2,4,6,8 is 20,18,16,14,12 GB and the dummy percentage is
// 60, 55.6, 50, 42.9, 33.3.
func TestTableVSpace(t *testing.T) {
	wantGB := []float64{20, 18, 16, 14, 12}
	wantDummyPct := []float64{60, 55.6, 50, 42.9, 33.3}
	for i, cb := range TableVConfigs() {
		o := Default().WithCBRate(cb.Y).ORAM
		gb := float64(o.TotalCapacityBytes()) / float64(1<<30)
		if diff := gb - wantGB[i]; diff < -0.01 || diff > 0.01 {
			t.Errorf("%s (Y=%d): total = %.3f GB, want ~%.0f GB", cb.Name, cb.Y, gb, wantGB[i])
		}
		pct := o.DummyPercentage() * 100
		if diff := pct - wantDummyPct[i]; diff < -0.1 || diff > 0.1 {
			t.Errorf("%s (Y=%d): dummy%% = %.2f, want ~%.1f", cb.Name, cb.Y, pct, wantDummyPct[i])
		}
	}
}

func TestORAMValidateRejections(t *testing.T) {
	base := Default().ORAM
	cases := []struct {
		name   string
		mutate func(*ORAM)
		want   string
	}{
		{"zero Z", func(o *ORAM) { o.Z = 0 }, "Z must be positive"},
		{"negative S", func(o *ORAM) { o.S = -1 }, "S must be positive"},
		{"negative Y", func(o *ORAM) { o.Y = -1 }, "Y must be in"},
		{"Y above S", func(o *ORAM) { o.Y = o.S + 1 }, "Y must be in"},
		{"Y above Z", func(o *ORAM) { o.Z = 4; o.Y = 5 }, "cannot exceed Z"},
		{"zero A", func(o *ORAM) { o.A = 0 }, "A must be positive"},
		{"S below A", func(o *ORAM) { o.A = o.S + 1 }, "must be >= A"},
		{"tiny tree", func(o *ORAM) { o.Levels = 1 }, "Levels must be in"},
		{"huge tree", func(o *ORAM) { o.Levels = 41 }, "Levels must be in"},
		{"negative top cache", func(o *ORAM) { o.TreeTopCacheLevels = -1 }, "TreeTopCacheLevels"},
		{"cache whole tree", func(o *ORAM) { o.TreeTopCacheLevels = o.Levels }, "TreeTopCacheLevels"},
		{"zero block size", func(o *ORAM) { o.BlockSize = 0 }, "power of two"},
		{"odd block size", func(o *ORAM) { o.BlockSize = 48 }, "power of two"},
		{"zero stash", func(o *ORAM) { o.StashSize = 0 }, "StashSize must be positive"},
		{"negative threshold", func(o *ORAM) { o.BackgroundEvictThreshold = -1 }, "BackgroundEvictThreshold"},
		{"threshold above stash", func(o *ORAM) { o.BackgroundEvictThreshold = o.StashSize + 1 }, "BackgroundEvictThreshold"},
		{"negative warm fill", func(o *ORAM) { o.WarmFill = -0.1 }, "WarmFill"},
		{"warm fill too high", func(o *ORAM) { o.WarmFill = 0.95 }, "WarmFill"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			tc.mutate(&o)
			err := o.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestDRAMValidateRejections(t *testing.T) {
	base := Default().DRAM
	cases := []struct {
		name   string
		mutate func(*DRAM)
	}{
		{"zero channels", func(d *DRAM) { d.Channels = 0 }},
		{"zero ranks", func(d *DRAM) { d.Ranks = 0 }},
		{"zero banks", func(d *DRAM) { d.Banks = 0 }},
		{"zero rows", func(d *DRAM) { d.Rows = 0 }},
		{"zero columns", func(d *DRAM) { d.Columns = 0 }},
		{"zero read queue", func(d *DRAM) { d.ReadQueue = 0 }},
		{"zero write queue", func(d *DRAM) { d.WriteQueue = 0 }},
		{"non-pow2 channels", func(d *DRAM) { d.Channels = 3 }},
		{"non-pow2 ranks", func(d *DRAM) { d.Ranks = 3 }},
		{"non-pow2 banks", func(d *DRAM) { d.Banks = 6 }},
		{"non-pow2 rows", func(d *DRAM) { d.Rows = 1000 }},
		{"non-pow2 columns", func(d *DRAM) { d.Columns = 100 }},
		{"bad tRC", func(d *DRAM) { d.Timing.TRC = d.Timing.TRAS }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := base
			tc.mutate(&d)
			if d.Validate() == nil {
				t.Fatal("expected validation error, got nil")
			}
		})
	}
}

// TestDRAMTimingValidateRejections zeroes each timing field in turn: every
// constraint in the Validate loop must trip and name the field.
func TestDRAMTimingValidateRejections(t *testing.T) {
	fields := []struct {
		name string
		zero func(*DRAMTiming)
	}{
		{"CL", func(tm *DRAMTiming) { tm.CL = 0 }},
		{"CWL", func(tm *DRAMTiming) { tm.CWL = 0 }},
		{"TRCD", func(tm *DRAMTiming) { tm.TRCD = 0 }},
		{"TRP", func(tm *DRAMTiming) { tm.TRP = 0 }},
		{"TRAS", func(tm *DRAMTiming) { tm.TRAS = 0 }},
		{"TRC", func(tm *DRAMTiming) { tm.TRC = 0 }},
		{"TCCD", func(tm *DRAMTiming) { tm.TCCD = 0 }},
		{"TRRD", func(tm *DRAMTiming) { tm.TRRD = 0 }},
		{"TFAW", func(tm *DRAMTiming) { tm.TFAW = 0 }},
		{"TWTR", func(tm *DRAMTiming) { tm.TWTR = 0 }},
		{"TWR", func(tm *DRAMTiming) { tm.TWR = 0 }},
		{"TRTP", func(tm *DRAMTiming) { tm.TRTP = 0 }},
		{"TBUS", func(tm *DRAMTiming) { tm.TBUS = 0 }},
		{"TRFC", func(tm *DRAMTiming) { tm.TRFC = 0 }},
		{"REFI", func(tm *DRAMTiming) { tm.REFI = 0 }},
	}
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			tm := DDR31600Timing()
			f.zero(&tm)
			err := tm.Validate()
			if err == nil {
				t.Fatalf("expected error for zero %s, got nil", f.name)
			}
			if !strings.Contains(err.Error(), f.name) {
				t.Fatalf("error %q does not name field %s", err, f.name)
			}
		})
	}
	if err := DDR31600Timing().Validate(); err != nil {
		t.Fatalf("DDR3-1600 timing invalid: %v", err)
	}
}

// TestSystemEnumValidation covers the unknown-enum branches of
// System.Validate: scheduler kind, layout kind, and page policy.
func TestSystemEnumValidation(t *testing.T) {
	s := Default()
	s.Scheduler = SchedulerKind(42)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "scheduler") {
		t.Fatalf("expected unknown-scheduler error, got %v", err)
	}

	s = Default()
	s.Layout = LayoutKind(42)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "layout") {
		t.Fatalf("expected unknown-layout error, got %v", err)
	}

	s = Default()
	s.DRAM.Policy = PagePolicy(42)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "page policy") {
		t.Fatalf("expected unknown-page-policy error, got %v", err)
	}
}

// TestSystemSubValidationPropagates checks that System.Validate surfaces
// errors from each sub-config's Validate.
func TestSystemSubValidationPropagates(t *testing.T) {
	s := Default()
	s.ORAM.Z = 0
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "Z must be positive") {
		t.Fatalf("expected ORAM error, got %v", err)
	}

	s = Default()
	s.DRAM.Channels = 0
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "Channels") {
		t.Fatalf("expected DRAM error, got %v", err)
	}
}

func TestSystemCrossValidation(t *testing.T) {
	s := Default()
	s.DRAM.Rows = 4 // tree no longer fits
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "DRAM only has") {
		t.Fatalf("expected capacity error, got %v", err)
	}
}

func TestTreeFitsInDefaultDRAM(t *testing.T) {
	s := Default()
	need := s.ORAM.TotalCapacityBytes()
	have := s.DRAM.CapacityBytes(s.ORAM.BlockSize)
	if need > have {
		t.Fatalf("tree (%d bytes) does not fit in DRAM (%d bytes)", need, have)
	}
	// The paper's 20 GB tree in a 32 GB memory.
	if gb := float64(need) / float64(1<<30); gb < 11.9 || gb > 12.1 {
		// Default has Y=8 so the tree is 12 GB; Y=0 is 20 GB.
		t.Errorf("default (Y=8) tree = %.2f GB, want ~12 GB", gb)
	}
	y0 := Default().WithCBRate(0).ORAM
	if gb := float64(y0.TotalCapacityBytes()) / float64(1<<30); gb < 19.9 || gb > 20.1 {
		t.Errorf("Y=0 tree = %.2f GB, want ~20 GB", gb)
	}
	if gb := float64(have) / float64(1<<30); gb != 32 {
		t.Errorf("DRAM capacity = %.2f GB, want 32 GB", gb)
	}
}

func TestScaledDefaultValidates(t *testing.T) {
	for _, levels := range []int{6, 8, 10, 12, 14} {
		s := ScaledDefault(levels)
		if err := s.Validate(); err != nil {
			t.Errorf("ScaledDefault(%d) invalid: %v", levels, err)
		}
	}
}

// TestWithLevelsScalesTreeTop pins the paper's tree-top sizing rule, which
// ScaledDefault (and so the simulator) uses and the serving rule never
// goes below: the default cache (6 levels) stays while it leaves at least
// three uncached levels, and shrinks to levels/3 otherwise.
func TestWithLevelsScalesTreeTop(t *testing.T) {
	for _, tc := range []struct{ levels, want int }{{2, 0}, {5, 1}, {8, 2}, {9, 6}, {24, 6}} {
		o := Default().ORAM.WithLevels(tc.levels)
		if o.Levels != tc.levels || o.TreeTopCacheLevels != tc.want {
			t.Errorf("WithLevels(%d) = %d levels, %d cached; want %d cached", tc.levels, o.Levels, o.TreeTopCacheLevels, tc.want)
		}
		if got := ScaledDefault(tc.levels).ORAM.TreeTopCacheLevels; got != tc.want {
			t.Errorf("ScaledDefault(%d) caches %d levels, want %d", tc.levels, got, tc.want)
		}
	}
}

func TestSchedulerKindString(t *testing.T) {
	if SchedTransaction.String() != "transaction" {
		t.Error("bad string for SchedTransaction")
	}
	if SchedProactiveBank.String() != "proactive-bank" {
		t.Error("bad string for SchedProactiveBank")
	}
	if !strings.Contains(SchedulerKind(42).String(), "42") {
		t.Error("bad string for unknown kind")
	}
}

func TestWithHelpers(t *testing.T) {
	s := Default()
	s2 := s.WithCBRate(4).WithScheduler(SchedProactiveBank).WithStashSize(300)
	if s2.ORAM.Y != 4 || s2.Scheduler != SchedProactiveBank || s2.ORAM.StashSize != 300 {
		t.Fatalf("With helpers did not apply: %+v", s2)
	}
	if s.ORAM.Y != 8 || s.Scheduler != SchedTransaction || s.ORAM.StashSize != 500 {
		t.Fatalf("With helpers mutated the receiver: %+v", s)
	}
}

func TestEvictThresholdDefault(t *testing.T) {
	o := Default().ORAM
	if got := o.EvictThreshold(); got != 450 {
		t.Errorf("default threshold = %d, want 450 (90%% of 500)", got)
	}
	o.BackgroundEvictThreshold = 123
	if got := o.EvictThreshold(); got != 123 {
		t.Errorf("explicit threshold = %d, want 123", got)
	}
}

func TestRowBytes(t *testing.T) {
	d := Default().DRAM
	if got := d.RowBytes(64); got != 8192 {
		t.Errorf("RowBytes = %d, want 8192 (128 lines x 64 B)", got)
	}
	if got := d.TotalBanks(); got != 32 {
		t.Errorf("TotalBanks = %d, want 32", got)
	}
}
