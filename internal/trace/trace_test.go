package trace

import (
	"math"
	"testing"
)

func TestSuiteMatchesTableIV(t *testing.T) {
	want := map[string]float64{
		"black": 4.58, "face": 10.37, "ferret": 10.42, "fluid": 4.72,
		"freq": 4.42, "leslie": 9.45, "libq": 20.20, "mummer": 24.07,
		"stream": 5.57, "swapt": 5.16,
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d workloads, want %d", len(suite), len(want))
	}
	for _, p := range suite {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid profile: %v", p.Name, err)
		}
		if w, ok := want[p.Name]; !ok || math.Abs(p.MPKI-w) > 1e-9 {
			t.Errorf("%s: MPKI %v, want %v", p.Name, p.MPKI, w)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("libq")
	if err != nil || p.Name != "libq" {
		t.Fatalf("ByName(libq) = %+v, %v", p, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown workload")
	}
}

func TestGenerateMPKICalibration(t *testing.T) {
	for _, p := range Suite() {
		tr, err := Generate(p, 20000, SeedFor(1, p.Name))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := tr.MPKI()
		// Exponential gaps: the sample MPKI should sit within 10% of
		// the target.
		if got < p.MPKI*0.9 || got > p.MPKI*1.1 {
			t.Errorf("%s: generated MPKI %.2f, want ~%.2f", p.Name, got, p.MPKI)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Suite()[0]
	a, _ := Generate(p, 5000, 42)
	b, _ := Generate(p, 5000, 42)
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c, _ := Generate(p, 5000, 43)
	same := 0
	for i := range a.Records {
		if a.Records[i] == c.Records[i] {
			same++
		}
	}
	if same == len(a.Records) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateAddressesInFootprint(t *testing.T) {
	p := Suite()[1]
	tr, _ := Generate(p, 10000, 7)
	for i, r := range tr.Records {
		if r.Addr >= uint64(p.FootprintBytes) {
			t.Fatalf("record %d: addr %d beyond footprint %d", i, r.Addr, p.FootprintBytes)
		}
		if r.Addr%64 != 0 {
			t.Fatalf("record %d: addr %d not block aligned", i, r.Addr)
		}
	}
}

func TestGenerateWriteFraction(t *testing.T) {
	p := Profile{Name: "wtest", MPKI: 10, WriteFrac: 0.40, FootprintBytes: 1 << 24, StreamFrac: 0.5, ZipfTheta: 0.2, Streams: 2}
	tr, err := Generate(p, 50000, 9)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, r := range tr.Records {
		if r.Write {
			writes++
		}
	}
	frac := float64(writes) / float64(len(tr.Records))
	if frac < 0.37 || frac > 0.43 {
		t.Fatalf("write fraction %.3f, want ~0.40", frac)
	}
}

func TestStreamingProfileHasSpatialLocality(t *testing.T) {
	// A streaming-heavy profile must produce many +64B successors;
	// a pointer-chasing profile must not.
	count := func(name string) float64 {
		p, _ := ByName(name)
		tr, _ := Generate(p, 20000, 11)
		seq := 0
		seen := make(map[uint64]bool)
		for _, r := range tr.Records {
			if seen[r.Addr-64] {
				seq++
			}
			seen[r.Addr] = true
		}
		return float64(seq) / float64(len(tr.Records))
	}
	libq, mummer := count("libq"), count("mummer")
	if libq <= mummer {
		t.Fatalf("libq sequentiality (%.3f) not above mummer (%.3f)", libq, mummer)
	}
}

func TestZipfSkew(t *testing.T) {
	srcUniform, _ := Generate(Profile{Name: "u", MPKI: 10, WriteFrac: 0, FootprintBytes: 1 << 22, StreamFrac: 0, ZipfTheta: 0, Streams: 1}, 30000, 13)
	srcSkew, _ := Generate(Profile{Name: "s", MPKI: 10, WriteFrac: 0, FootprintBytes: 1 << 22, StreamFrac: 0, ZipfTheta: 0.8, Streams: 1}, 30000, 13)
	distinct := func(tr *Trace) int {
		m := make(map[uint64]bool)
		for _, r := range tr.Records {
			m[r.Addr] = true
		}
		return len(m)
	}
	u, s := distinct(srcUniform), distinct(srcSkew)
	if s >= u {
		t.Fatalf("skewed profile touched %d distinct blocks, uniform %d; zipf reuse broken", s, u)
	}
}

func TestGenerateRejectsBadInputs(t *testing.T) {
	good := Suite()[0]
	if _, err := Generate(good, 0, 1); err == nil {
		t.Fatal("accepted n=0")
	}
	bad := good
	bad.MPKI = 0
	if _, err := Generate(bad, 10, 1); err == nil {
		t.Fatal("accepted MPKI=0")
	}
	bad = good
	bad.StreamFrac = 2
	if _, err := Generate(bad, 10, 1); err == nil {
		t.Fatal("accepted StreamFrac=2")
	}
	bad = good
	bad.Streams = 0
	if _, err := Generate(bad, 10, 1); err == nil {
		t.Fatal("accepted Streams=0")
	}
}

func TestSeedForStable(t *testing.T) {
	if SeedFor(1, "libq") != SeedFor(1, "libq") {
		t.Fatal("SeedFor not stable")
	}
	if SeedFor(1, "libq") == SeedFor(1, "mummer") {
		t.Fatal("SeedFor collides across names")
	}
	if SeedFor(1, "libq") == SeedFor(2, "libq") {
		t.Fatal("SeedFor ignores base seed")
	}
}

func TestInstructionsEmptyTrace(t *testing.T) {
	tr := &Trace{Name: "empty"}
	if tr.Instructions() != 0 || tr.MPKI() != 0 {
		t.Fatal("empty trace produced nonzero metrics")
	}
}
