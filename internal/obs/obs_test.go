package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_hist", "", []float64{1, 2})
	r.CounterFunc("x_fn_total", "", func() float64 { return 1 })
	r.GaugeFunc("x_fn", "", func() float64 { return 1 })
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must return nil instruments, got %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(3)
	g.Set(9)
	g.Add(-2)
	g.Max(5)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry exposition should be empty, got %q", buf.String())
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	g.Max(10)
	g.Max(2)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge after Max = %d, want 10", got)
	}
}

func TestRegistrationIdempotentAndKindChecked(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h")
	b := r.Counter("c_total", "h")
	if a != b {
		t.Fatal("re-registering the same counter series must return the same instrument")
	}
	l1 := r.Counter(`c_total{shard="0"}`, "h")
	l2 := r.Counter(`c_total{shard="1"}`, "h")
	if l1 == l2 || l1 == a {
		t.Fatal("distinct label blocks must be distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering c_total as a gauge should panic")
		}
	}()
	r.Gauge("c_total", "h")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "has space", "brace{unclosed", "bad-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q should panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); math.Abs(got-1556.5) > 1e-9 {
		t.Fatalf("sum = %g, want 1556.5", got)
	}
	want := []uint64{2, 1, 1, 2} // (-inf,1], (1,10], (10,100], (100,+inf)
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets with factor 1 should panic")
		}
	}()
	ExpBuckets(1, 1, 3)
}

func TestWritePrometheusFormatAndDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter(`b_total{shard="1"}`, "b help").Add(2)
	r.Counter(`b_total{shard="0"}`, "b help").Add(1)
	r.Gauge("a_gauge", "a help").Set(-3)
	r.Histogram("h_cycles", "cycles", []float64{10, 100}).Observe(42)
	r.CounterFunc("fn_total", "fn", func() float64 { return 7 })

	var first bytes.Buffer
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := r.WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatal("exposition output must be deterministic across scrapes")
		}
	}
	out := first.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge",
		"# TYPE b_total counter",
		`b_total{shard="0"} 1`,
		`b_total{shard="1"} 2`,
		"a_gauge -3",
		`h_cycles_bucket{le="10"} 0`,
		`h_cycles_bucket{le="100"} 1`,
		`h_cycles_bucket{le="+Inf"} 1`,
		"h_cycles_sum 42",
		"h_cycles_count 1",
		"fn_total 7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families sorted: a_gauge before b_total; labels sorted within family.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") {
		t.Fatal("families must be emitted in sorted order")
	}
	if strings.Index(out, `shard="0"`) > strings.Index(out, `shard="1"`) {
		t.Fatal("series must be emitted in sorted label order")
	}
	if err := ValidateExposition(first.Bytes()); err != nil {
		t.Fatalf("own exposition output must validate: %v", err)
	}
}

func TestValidateExpositionRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":  "foo 1\n",
		"bad value":            "# TYPE foo counter\nfoo nope\n",
		"bad metric name":      "# TYPE foo counter\n2foo 1\n",
		"unterminated label":   "# TYPE foo counter\nfoo{a=\"x 1\n",
		"unquoted label value": "# TYPE foo counter\nfoo{a=x} 1\n",
		"unknown type":         "# TYPE foo widget\nfoo 1\n",
		"malformed comment":    "# NOPE foo counter\n",
		"short TYPE":           "# TYPE foo\nfoo 1\n",
	}
	for name, in := range cases {
		if err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: ValidateExposition accepted %q", name, in)
		}
	}
	good := "# HELP foo help text\n# TYPE foo counter\nfoo{a=\"x\",b=\"y\"} 12 1700000000\n\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 9.5\nh_count 3\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("ValidateExposition rejected valid input: %v", err)
	}
}

func TestInstrumentUpdatesAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", ExpBuckets(1, 4, 8))
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(2)
		g.Set(5)
		g.Add(1)
		g.Max(3)
		h.Observe(17)
	}); n != 0 {
		t.Fatalf("enabled instrument updates allocate %.1f times per op, want 0", n)
	}
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	if n := testing.AllocsPerRun(200, func() {
		nc.Inc()
		ng.Set(1)
		nh.Observe(1)
	}); n != 0 {
		t.Fatalf("nil instrument updates allocate %.1f times per op, want 0", n)
	}
}

func TestInstrumentsConcurrencySafe(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	peak := r.Gauge("peak", "")
	h := r.Histogram("h", "", []float64{8})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				peak.Max(int64(w*per + i))
				h.Observe(float64(i % 16))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge = %d, want %d", got, workers*per)
	}
	if got := peak.Value(); got != workers*per-1 {
		t.Fatalf("peak gauge = %d, want %d", got, workers*per-1)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestScrapeConsistentUnderObserve: readers racing Observe never see a
// histogram contradict itself. Every exposition validates (+Inf bucket
// == _count, buckets cumulative) and every SLO window has bad <= total,
// because each reader derives its totals from one pass over the bucket
// counters rather than from a second counter read at a different time.
func TestScrapeConsistentUnderObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram(`lat_seconds{shard="0"}`, "latency", ExpBuckets(1e-6, 2, 20))
	slo := NewSLO()
	// Every observation below is over the threshold, so a total read
	// before the buckets would report bad > total.
	slo.Add(reg, Objective{Name: "all_bad", Hists: []*Histogram{h}, Quantile: 0.5, Threshold: 1e-9})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(uint64(1)<<((w+i)%20)) * 1e-6)
			}
		}(w)
	}
	var buf bytes.Buffer
	for i := 0; i < 300; i++ {
		buf.Reset()
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition(buf.Bytes()); err != nil {
			t.Errorf("scrape %d: torn exposition: %v", i, err)
			break
		}
		if ov := slo.Evaluate().Objectives[0]; ov.BadFraction > 1 {
			t.Errorf("scrape %d: SLO window has more bad than total observations: %+v", i, ov)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestQuantile pins the histogram-quantile estimate every latency
// percentile in the repo is read from.
func TestQuantile(t *testing.T) {
	bounds := ExpBuckets(1, math.Sqrt2, 24) // 1 .. ~2896
	h := NewRegistry().Histogram("h", "", bounds)
	counts := make([]uint64, len(bounds)+1)

	if got := Quantile(bounds, counts, 0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}

	// A known sample: 1..1000. The estimate must land in the bucket of
	// the exact quantile, i.e. within one bucket ratio of it.
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	if total := h.AddCounts(counts); total != 1000 || h.Count() != 1000 {
		t.Fatalf("AddCounts total = %d, Count = %d, want 1000", total, h.Count())
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		exact := math.Ceil(q * 1000)
		got := Quantile(bounds, counts, q)
		if got < exact/math.Sqrt2 || got > exact*math.Sqrt2 {
			t.Errorf("q%g = %v, exact %v: off by more than one bucket ratio", q, got, exact)
		}
	}

	// Exact at bucket edges: when the rank is a bucket's last
	// observation the estimate is that bucket's upper bound.
	edges := []float64{1, 10, 100}
	eh := NewRegistry().Histogram("e", "", edges)
	for _, v := range []float64{0.5, 1, 5, 10, 50, 100, 5000, 5000} {
		eh.Observe(v)
	}
	ec := make([]uint64, len(edges)+1)
	eh.AddCounts(ec)
	for _, c := range []struct{ q, want float64 }{
		{0.25, 1}, {0.5, 10}, {0.75, 100},
		{0.375, 5.5}, // halfway through the (1,10] bucket
		{1, 100},     // the +Inf bucket reports the highest finite bound
	} {
		if got := Quantile(edges, ec, c.q); got != c.want {
			t.Errorf("edge histogram q%g = %v, want %v", c.q, got, c.want)
		}
	}
}
