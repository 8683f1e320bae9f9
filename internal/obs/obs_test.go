package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Every representative value must land back in its own bucket, and
	// the midpoint must stay within the documented relative error.
	for _, v := range []int64{0, 1, 5, 63, 64, 65, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		mid := bucketMid(idx)
		if v < exactMax {
			if mid != v {
				t.Fatalf("exact bucket %d: mid = %d", v, mid)
			}
			continue
		}
		if relErr := math.Abs(float64(mid-v)) / float64(v); relErr > 1.0/float64(subBuckets) {
			t.Fatalf("value %d: bucket mid %d, relative error %.4f", v, mid, relErr)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram("ns")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("Count = %d, want 1000", got)
	}
	if got := h.Sum(); got != 500500 {
		t.Fatalf("Sum = %d, want 500500", got)
	}
	checks := []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if relErr := math.Abs(float64(got-c.want)) / float64(c.want); relErr > 0.03 {
			t.Errorf("Quantile(%.2f) = %d, want %d ±3%%", c.q, got, c.want)
		}
	}
	s := h.Snapshot()
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("Min/Max = %d/%d, want 1/1000", s.Min, s.Max)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := newHistogram("bytes")
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	s := h.Snapshot()
	if s.Min != 0 || s.Max != 0 || s.Count != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	h.Observe(-17) // clamps to 0
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile after negative observe = %d, want 0", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("a", "ns") != r.Histogram("a", "ns") {
		t.Fatal("Histogram not idempotent")
	}
	if got := r.Histogram("a", "bytes").Unit(); got != "ns" {
		t.Fatalf("unit changed on re-lookup: %q", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := New()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("events").Inc()
				r.Gauge("level").Add(1)
				r.Histogram("latency", "ns").Observe(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent readers must not race
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("events").Value(); got != goroutines*perG {
		t.Fatalf("events = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("level").Value(); got != goroutines*perG {
		t.Fatalf("level = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("latency", "ns").Count(); got != goroutines*perG {
		t.Fatalf("latency count = %d, want %d", got, goroutines*perG)
	}
}

func TestSpan(t *testing.T) {
	r := New()
	h := r.Histogram("stage.demo_ns", "ns")
	sp := h.Span()
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Fatalf("span too short: %v", d)
	}
	if h.Count() != 1 || h.Sum() < int64(time.Millisecond) {
		t.Fatalf("span not recorded: count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestDebugMux(t *testing.T) {
	r := New()
	r.Counter("x").Inc()
	mux := DebugMux(r)
	for _, path := range []string{"/debug/metrics", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
	}
}

func TestStageTable(t *testing.T) {
	r := New()
	r.Histogram("stage.session_ns", "ns").ObserveDuration(3 * time.Millisecond)
	r.Histogram("stage.filter_ns", "ns").ObserveDuration(40 * time.Microsecond)
	r.Histogram("proxy.flow_bytes", "bytes").Observe(2048)
	table := r.Snapshot().StageTable("stage.")
	if !strings.Contains(table, "session_ns") || !strings.Contains(table, "filter_ns") {
		t.Fatalf("missing stages:\n%s", table)
	}
	if strings.Contains(table, "proxy.flow_bytes") {
		t.Fatalf("non-stage histogram leaked into table:\n%s", table)
	}
	if !strings.Contains(table, "ms") {
		t.Fatalf("durations not humanized:\n%s", table)
	}
	if got := r.Snapshot().StageTable("nomatch."); got != "" {
		t.Fatalf("empty prefix match should render nothing, got:\n%s", got)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    int64
		unit string
		want string
	}{
		{1500, "ns", "2µs"},
		{int64(2500 * time.Millisecond), "ns", "2.50s"},
		{int64(3 * time.Millisecond), "ns", "3.0ms"},
		{999, "ns", "999ns"},
		{512, "bytes", "512B"},
		{4096, "bytes", "4.0KiB"},
		{3 << 20, "bytes", "3.0MiB"},
		{12, "count", "12"},
	}
	for _, c := range cases {
		if got := formatValue(c.v, c.unit); got != c.want {
			t.Errorf("formatValue(%d, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}
