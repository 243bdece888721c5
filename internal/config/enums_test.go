package config

import (
	"strings"
	"testing"
)

func TestPagePolicyString(t *testing.T) {
	if OpenPage.String() != "open-page" || ClosePage.String() != "close-page" {
		t.Fatal("bad page policy strings")
	}
	if !strings.Contains(PagePolicy(9).String(), "9") {
		t.Fatal("unknown policy string")
	}
}

func TestLayoutKindString(t *testing.T) {
	if LayoutSubtree.String() != "subtree" || LayoutFlat.String() != "flat" {
		t.Fatal("bad layout strings")
	}
	if !strings.Contains(LayoutKind(9).String(), "9") {
		t.Fatal("unknown layout string")
	}
}

func TestSystemRejectsUnknownEnums(t *testing.T) {
	s := Default()
	s.Layout = LayoutKind(42)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "layout") {
		t.Fatalf("bad layout accepted: %v", err)
	}
	s = Default()
	s.DRAM.Policy = PagePolicy(42)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "page policy") {
		t.Fatalf("bad policy accepted: %v", err)
	}
}

func TestWithLayoutAndPolicy(t *testing.T) {
	s := Default().WithLayout(LayoutFlat).WithPagePolicy(ClosePage)
	if s.Layout != LayoutFlat || s.DRAM.Policy != ClosePage {
		t.Fatal("With helpers did not apply")
	}
	// The receiver stays untouched.
	if d := Default(); d.Layout != LayoutSubtree || d.DRAM.Policy != OpenPage {
		t.Fatal("defaults changed")
	}
}

func TestWarmFillValidation(t *testing.T) {
	o := Default().ORAM
	o.WarmFill = 0.91
	if o.Validate() == nil {
		t.Fatal("WarmFill 0.91 accepted")
	}
	o.WarmFill = -0.1
	if o.Validate() == nil {
		t.Fatal("negative WarmFill accepted")
	}
	o.WarmFill = 0.9
	if err := o.Validate(); err != nil {
		t.Fatalf("WarmFill 0.9 rejected: %v", err)
	}
}

func TestDDR31600EnergyPlausible(t *testing.T) {
	e := DDR31600Energy()
	for name, v := range map[string]float64{
		"ACT": e.ACT, "PRE": e.PRE, "RD": e.RD, "WR": e.WR,
		"REF": e.REF, "BackgroundW": e.BackgroundW, "CycleNS": e.CycleNS,
	} {
		if v <= 0 {
			t.Errorf("energy parameter %s = %v, want positive", name, v)
		}
	}
	// tCK of DDR3-1600 is 1.25 ns.
	if e.CycleNS != 1.25 {
		t.Errorf("CycleNS = %v, want 1.25", e.CycleNS)
	}
}

func TestRingConfigSEqualsAPlus(t *testing.T) {
	for _, rc := range Fig4Configs() {
		if rc.S != rc.A+rc.X {
			t.Errorf("%s: S=%d != A+X=%d", rc.Name, rc.S, rc.A+rc.X)
		}
	}
}
