package stringoram_test

import (
	"bytes"
	"errors"
	"testing"

	"stringoram"
)

// These tests exercise the repository's public facade exactly as an
// importing project would, without touching internal packages directly.

func TestPublicDefaultConfig(t *testing.T) {
	cfg := stringoram.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.ORAM.Z != 8 || cfg.ORAM.Y != 8 {
		t.Fatalf("unexpected defaults: %+v", cfg.ORAM)
	}
}

func TestPublicFunctionalRing(t *testing.T) {
	cfg := stringoram.ScaledConfig(10).ORAM
	ring, err := stringoram.NewFunctionalRing(cfg, 1, []byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, cfg.BlockSize)
	copy(data, "public api")
	if _, err := ring.Write(9, data); err != nil {
		t.Fatal(err)
	}
	got, ops, err := ring.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted data")
	}
	if len(ops) == 0 {
		t.Fatal("no operations reported")
	}
}

func TestPublicFunctionalRingRejectsBadKey(t *testing.T) {
	cfg := stringoram.ScaledConfig(10).ORAM
	if _, err := stringoram.NewFunctionalRing(cfg, 1, []byte("short")); err == nil {
		t.Fatal("bad key accepted")
	}
}

// A non-positive block size is a configuration error, reported before the
// sealer sizes any buffer by it.
func TestPublicFunctionalRingRejectsBadBlockSize(t *testing.T) {
	for _, size := range []int{0, -1} {
		cfg := stringoram.ScaledConfig(10).ORAM
		cfg.BlockSize = size
		if _, err := stringoram.NewFunctionalRing(cfg, 1, []byte("0123456789abcdef")); err == nil {
			t.Fatalf("BlockSize %d accepted", size)
		}
	}
}

func TestPublicTimingRing(t *testing.T) {
	ring, err := stringoram.NewRing(stringoram.ScaledConfig(10).ORAM, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := ring.Access(stringoram.BlockID(i), i%2 == 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if ring.Stats().ReadPaths != 100 {
		t.Fatalf("ReadPaths = %d", ring.Stats().ReadPaths)
	}
}

func TestPublicPathORAM(t *testing.T) {
	p, err := stringoram.NewPathORAM(4, 8, 64, 200, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Access(1, false, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPublicWorkloads(t *testing.T) {
	if len(stringoram.WorkloadSuite()) != 10 {
		t.Fatal("suite size wrong")
	}
	p, err := stringoram.WorkloadByName("libq")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := stringoram.GenerateTrace(p, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1000 {
		t.Fatalf("trace length %d", len(tr.Records))
	}
}

func TestPublicSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	sys := stringoram.ScaledConfig(12)
	p, _ := stringoram.WorkloadByName("black")
	tr, err := stringoram.GenerateTrace(p, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stringoram.Simulate(sys, tr, stringoram.SimOptions{MaxAccesses: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.ORAMAccesses == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestPublicSchedulerKinds(t *testing.T) {
	sys := stringoram.DefaultConfig().WithScheduler(stringoram.SchedProactiveBank)
	if sys.Scheduler != stringoram.SchedProactiveBank {
		t.Fatal("WithScheduler did not apply")
	}
}

func TestPublicStashOverflowSurfaces(t *testing.T) {
	cfg := stringoram.ScaledConfig(8).ORAM
	cfg.Levels = 3
	cfg.TreeTopCacheLevels = 0
	cfg.StashSize = 12
	ring, err := stringoram.NewRing(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	var sawOverflow bool
	for i := 0; i < 300; i++ {
		if _, _, err := ring.Access(stringoram.BlockID(i), true, nil); err != nil {
			if errors.Is(err, stringoram.ErrStashOverflow) {
				sawOverflow = true
				break
			}
			t.Fatal(err)
		}
	}
	if !sawOverflow {
		t.Fatal("overfull tiny tree never reported ErrStashOverflow")
	}
}

func TestPublicExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments in -short mode")
	}
	scale := stringoram.QuickScale()
	scale.Accesses = 100
	scale.Levels = 10
	r := stringoram.NewExperiments(scale)
	tb, err := r.Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() == 0 {
		t.Fatal("empty figure")
	}
}

// TestPublicSnapshotRoundTrip exercises the persistence path through
// the facade alone (the same API cmd/oramd uses): write through a
// functional ring, Save, LoadRing, and verify both the restored data
// and that the restored ring keeps serving accesses.
func TestPublicSnapshotRoundTrip(t *testing.T) {
	key := []byte("0123456789abcdef")
	cfg := stringoram.ScaledConfig(10).ORAM
	ring, err := stringoram.NewFunctionalRing(cfg, 11, key)
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[stringoram.BlockID]string{3: "alpha", 17: "beta", 29: "gamma"}
	for id, s := range blocks {
		data := make([]byte, cfg.BlockSize)
		copy(data, s)
		if _, err := ring.Write(id, data); err != nil {
			t.Fatal(err)
		}
	}

	var snap bytes.Buffer
	if err := ring.Save(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := stringoram.LoadRing(bytes.NewReader(snap.Bytes()), key)
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range blocks {
		want := make([]byte, cfg.BlockSize)
		copy(want, s)
		got, _, err := restored.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d after restore = %q, want %q", id, got, want)
		}
	}
	// The restored ring must keep serving: a fresh write and read-back.
	data := make([]byte, cfg.BlockSize)
	copy(data, "post-restore")
	if _, err := restored.Write(41, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := restored.Read(41)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-restore write corrupted")
	}
	// The checkpoint is sealed: loading without a key is refused.
	if _, err := stringoram.LoadRing(bytes.NewReader(snap.Bytes()), nil); err == nil {
		t.Fatal("sealed checkpoint loaded without a key")
	}
}

// TestPublicServer drives the serving facade end to end: in-process
// puts/gets, typed backpressure classification, metrics, and the
// snapshot directory round trip across a simulated restart.
func TestPublicServer(t *testing.T) {
	dir := t.TempDir()
	cfg := stringoram.DefaultServerConfig()
	cfg.Shards = 2
	cfg.ORAM = stringoram.DefaultServerORAM(8)
	cfg.Seed = 5
	cfg.SnapshotDir = dir
	srv, err := stringoram.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Put("paper", []byte("hpca21")); err != nil {
		t.Fatal(err)
	}
	v, found, err := srv.Get("paper")
	if err != nil || !found || string(v) != "hpca21" {
		t.Fatalf("Get = %q found=%v err=%v", v, found, err)
	}
	if m := srv.Metrics(); m.Puts != 1 || m.Gets != 1 || m.Shards != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	if stringoram.RetryableServerError(stringoram.ErrServerClosed) ||
		!stringoram.RetryableServerError(stringoram.ErrServerBacklog) ||
		!stringoram.RetryableServerError(stringoram.ErrServerDeadline) {
		t.Fatal("retryable classification wrong through facade")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(srv.Put("x", []byte("y")), stringoram.ErrServerClosed) {
		t.Fatal("post-Close put not ErrServerClosed")
	}

	srv2, err := stringoram.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	v, found, err = srv2.Get("paper")
	if err != nil || !found || string(v) != "hpca21" {
		t.Fatalf("after restart Get = %q found=%v err=%v", v, found, err)
	}
}
