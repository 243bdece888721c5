package oram

import (
	"testing"

	"stringoram/internal/config"
)

// TestRingVsPathOverallBandwidth checks the paper's introductory claim:
// Ring ORAM (with the XOR technique) reduces overall bandwidth by roughly
// 2.3x-4x versus Path ORAM (Z=4) across the bandwidth-optimal configs.
func TestRingVsPathOverallBandwidth(t *testing.T) {
	path := PathBandwidth(4, 24)
	for _, rc := range config.Fig4Configs() {
		o := config.ORAMForRing(rc)
		o.TreeTopCacheLevels = 0 // pure-protocol comparison
		ring := RingBandwidth(o, true)
		ratio := path.Overall / ring.Overall
		if ratio < 1.4 || ratio > 5 {
			t.Errorf("%s: overall ratio Path/Ring = %.2f, expected ~2.3-4x territory", rc.Name, ratio)
		}
		t.Logf("%s: Ring overall %.1f blocks/access, Path %.1f, ratio %.2fx", rc.Name, ring.Overall, path.Overall, ratio)
	}
}

// TestRingOnlineBandwidthWithXOR checks the >60x online claim: the XOR
// technique returns a single block per read path while Path ORAM's online
// phase moves Z*(L+1) blocks.
func TestRingOnlineBandwidthWithXOR(t *testing.T) {
	path := PathBandwidth(4, 24)
	ring := RingBandwidth(config.ORAMForRing(config.Fig4Configs()[0]), true)
	if ring.Online != 1 {
		t.Fatalf("XOR online = %.1f blocks, want 1", ring.Online)
	}
	if ratio := path.Online / ring.Online; ratio < 60 {
		t.Fatalf("online ratio = %.1fx, want > 60x", ratio)
	}
}

func TestRingBandwidthWithoutXOR(t *testing.T) {
	o := config.ORAMForRing(config.Fig4Configs()[1])
	bw := RingBandwidth(o, false)
	if bw.Online != float64(o.Levels) {
		t.Fatalf("online without XOR = %.1f, want %d", bw.Online, o.Levels)
	}
	if bw.Overall <= bw.Online {
		t.Fatal("overall must exceed online (evictions cost bandwidth)")
	}
}

// TestMeasuredBandwidthMatchesAnalytic runs a real Ring instance and
// compares its measured per-access block traffic to the analytic model.
func TestMeasuredBandwidthMatchesAnalytic(t *testing.T) {
	cfg := smallCfg(0)
	cfg.TreeTopCacheLevels = 0
	r, err := NewRing(cfg, 89, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if _, _, err := r.Access(BlockID(i%64), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := MeasuredBandwidth(r.Stats())
	want := RingBandwidth(cfg, false)
	// Early reshuffles add a little on top of the analytic floor.
	if got.Overall < want.Overall*0.99 || got.Overall > want.Overall*1.3 {
		t.Fatalf("measured overall %.2f blocks/access, analytic %.2f", got.Overall, want.Overall)
	}
	if got.Online != want.Online {
		t.Fatalf("measured online %.2f, analytic %.2f", got.Online, want.Online)
	}
}

func TestMeasuredBandwidthEmptyStats(t *testing.T) {
	if bw := MeasuredBandwidth(Stats{}); bw.Online != 0 || bw.Overall != 0 {
		t.Fatalf("empty stats produced %+v", bw)
	}
}

func TestOpKindStrings(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpReadPath:       "read-path",
		OpDummyReadPath:  "dummy-read-path",
		OpEvictPath:      "evict-path",
		OpEarlyReshuffle: "early-reshuffle",
	} {
		if k.String() != want {
			t.Errorf("OpKind %d = %q, want %q", k, k.String(), want)
		}
	}
	if OpKind(99).String() == "" {
		t.Error("unknown OpKind produced empty string")
	}
}

func TestGreenPerReadPathZeroDivision(t *testing.T) {
	var s Stats
	if s.GreenPerReadPath() != 0 {
		t.Fatal("zero read paths must yield 0 green/read")
	}
}

// TestXOROnlineBandwidth: in the analytic model the XOR technique's
// online transfer per read path is a single block, independent of the
// configuration and the tree height.
func TestXOROnlineBandwidth(t *testing.T) {
	for _, rc := range config.Fig4Configs() {
		o := config.ORAMForRing(rc)
		for _, levels := range []int{8, 16, 24} {
			o.Levels = levels
			if bw := RingBandwidth(o, true); bw.Online != 1 {
				t.Fatalf("%s, %d levels: XOR online bandwidth = %v blocks, want 1", rc.Name, levels, bw.Online)
			}
		}
	}
}
