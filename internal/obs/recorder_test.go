package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecorderSeries(t *testing.T) {
	r := New()
	c := r.Counter("work.items_total")
	h := r.Histogram("work.latency_ns", "ns")
	rec := NewRecorder(r, RecorderOptions{Interval: time.Millisecond})
	if r.Recorder() != rec {
		t.Fatal("NewRecorder did not attach to the registry")
	}

	c.Add(10)
	h.Observe(1000)
	rec.Tick()
	time.Sleep(20 * time.Millisecond)
	c.Add(40)
	h.Observe(3000)
	rec.Tick()

	s := rec.Series()
	if s.Samples != 2 {
		t.Fatalf("samples = %d, want 2", s.Samples)
	}
	if len(s.Windows) != 3 {
		t.Fatalf("windows = %v, want 3 defaults", s.Windows)
	}
	cs := s.Counters["work.items_total"]
	if cs.Value != 50 {
		t.Fatalf("counter value = %d, want 50", cs.Value)
	}
	// Both ticks are inside every default window, so each rate is computed
	// over the same partial window: delta 40 over the real elapsed time.
	for _, w := range s.Windows {
		rate, ok := cs.Rates[w]
		if !ok {
			t.Fatalf("no rate for window %s: %+v", w, cs.Rates)
		}
		if rate <= 0 || rate > 40/0.02+1 {
			t.Errorf("window %s rate = %v, want positive and bounded by delta/sleep", w, rate)
		}
	}
	hs := s.Histograms["work.latency_ns"]
	if hs.Count != 2 {
		t.Fatalf("histogram count = %d, want 2", hs.Count)
	}
	if mean := hs.Mean["10s"]; mean != 3000 {
		t.Errorf("window mean = %v, want 3000 (only the second observation is in the window delta)", mean)
	}
	// The recorder samples the Go runtime into gauges on every tick.
	if g := s.Gauges["runtime.goroutines"]; g <= 0 {
		t.Errorf("runtime.goroutines = %d, want > 0", g)
	}
	if g := s.Gauges["runtime.heap_bytes"]; g <= 0 {
		t.Errorf("runtime.heap_bytes = %d, want > 0", g)
	}
}

func TestRecorderRingBounded(t *testing.T) {
	r := New()
	rec := NewRecorder(r, RecorderOptions{Interval: time.Millisecond, Capacity: 4})
	for i := 0; i < 10; i++ {
		rec.Tick()
	}
	if got := rec.Series().Samples; got != 4 {
		t.Fatalf("samples = %d, want ring capacity 4", got)
	}
}

func TestBaseline(t *testing.T) {
	base := time.Unix(1000, 0)
	mk := func(secs ...int) []tickSample {
		out := make([]tickSample, len(secs))
		for i, s := range secs {
			out[i] = tickSample{at: base.Add(time.Duration(s) * time.Second)}
		}
		return out
	}
	now := base.Add(10 * time.Second)

	if _, ok := baseline(mk(10), now, time.Minute); ok {
		t.Error("single tick must report no baseline")
	}
	// Newest tick that is at least the window old.
	ticks := mk(0, 4, 8, 10)
	if got, _ := baseline(ticks, now, 5*time.Second); !got.at.Equal(base.Add(4 * time.Second)) {
		t.Errorf("baseline(5s) = t+%v, want t+4s", got.at.Sub(base))
	}
	// Window longer than the ring: fall back to the oldest (partial window).
	if got, _ := baseline(ticks, now, time.Hour); !got.at.Equal(base) {
		t.Errorf("baseline(1h) = t+%v, want oldest", got.at.Sub(base))
	}
}

func TestRecorderHandlerViaDebugMux(t *testing.T) {
	r := New()
	r.Counter("x_total").Add(5)
	rec := NewRecorder(r, RecorderOptions{Interval: time.Millisecond})
	rec.Tick()

	mux := DebugMux(r)
	req := httptest.NewRequest("GET", "/debug/metrics/series", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("series = %d, want 200", w.Code)
	}
	var s SeriesSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &s); err != nil {
		t.Fatalf("series JSON: %v", err)
	}
	if s.Counters["x_total"].Value != 5 {
		t.Fatalf("series counters = %+v", s.Counters)
	}
	if s.IntervalS != 0.001 {
		t.Errorf("interval_s = %v, want 0.001", s.IntervalS)
	}
}

func TestWatchTripAndRecover(t *testing.T) {
	r := New()
	g := r.Gauge("queue.depth")
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	rec := NewRecorder(r, RecorderOptions{
		Interval: time.Millisecond,
		Watches:  []Watch{{Name: "queue-deep", Gauge: "queue.depth", Op: ">", Threshold: 100}},
		Logger:   logger,
	})
	trips := r.Counter("obs.watch.trips_total")

	g.Set(50)
	rec.Tick()
	if trips.Value() != 0 {
		t.Fatal("tripped below threshold")
	}
	g.Set(150)
	rec.Tick()
	if trips.Value() != 1 {
		t.Fatalf("trips = %d after crossing, want 1", trips.Value())
	}
	if !strings.Contains(logBuf.String(), "watch tripped") || !strings.Contains(logBuf.String(), "queue-deep") {
		t.Fatalf("no structured trip warning logged: %s", logBuf.String())
	}
	// Staying tripped is silent: the transition fired, not the level.
	logBuf.Reset()
	g.Set(200)
	rec.Tick()
	if trips.Value() != 1 {
		t.Fatalf("trips = %d while staying tripped, want 1", trips.Value())
	}
	if logBuf.Len() != 0 {
		t.Fatalf("logged while staying tripped: %s", logBuf.String())
	}
	// Recovery logs at info; a later re-cross trips again.
	g.Set(50)
	rec.Tick()
	if !strings.Contains(logBuf.String(), "watch recovered") {
		t.Fatalf("no recovery line: %s", logBuf.String())
	}
	g.Set(150)
	rec.Tick()
	if trips.Value() != 2 {
		t.Fatalf("trips = %d after re-cross, want 2", trips.Value())
	}
}

func TestWatchRateAndQuantile(t *testing.T) {
	r := New()
	c := r.Counter("errs_total")
	h := r.Histogram("lat_ns", "ns")
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	rec := NewRecorder(r, RecorderOptions{
		Interval: time.Millisecond,
		Watches: []Watch{
			{Name: "err-rate", Rate: "errs_total", Window: time.Minute, Threshold: 10},
			{Name: "slow-p99", Quantile: "lat_ns", Q: "p99", Threshold: 5000},
		},
		Logger: logger,
	})
	trips := r.Counter("obs.watch.trips_total")

	rec.Tick()
	time.Sleep(10 * time.Millisecond)
	// ~100 err/s over the partial window (threshold 10/s) and a p99 well
	// above 5000ns: both rules trip on the second tick.
	c.Add(1000)
	h.Observe(1_000_000)
	rec.Tick()
	if trips.Value() != 2 {
		t.Fatalf("trips = %d, want both rules tripped; log: %s", trips.Value(), logBuf.String())
	}
}

func TestFmtWindow(t *testing.T) {
	cases := map[time.Duration]string{
		10 * time.Second: "10s",
		time.Minute:      "1m",
		5 * time.Minute:  "5m",
		90 * time.Second: "90s",
	}
	for d, want := range cases {
		if got := fmtWindow(d); got != want {
			t.Errorf("fmtWindow(%v) = %q, want %q", d, got, want)
		}
	}
}

// fillRing writes n ticks one second apart into rec's ring, calling
// before(i) ahead of each snapshot, so tests and benchmarks get a ring of
// known age without sleeping.
func fillRing(rec *Recorder, n int, before func(i int)) {
	base := time.Unix(1000, 0)
	for i := 0; i < n; i++ {
		before(i)
		rec.ring[rec.next] = tickSample{at: base.Add(time.Duration(i) * time.Second), snap: rec.reg.Snapshot()}
		rec.next = (rec.next + 1) % len(rec.ring)
		rec.count = min(rec.count+1, len(rec.ring))
	}
}

// TestRecorderSeriesWindowSpan: while the ring is younger than a window,
// the window's rates cover only the ring's age, and window_span_s says so;
// once the ring is old enough each window spans its full length.
func TestRecorderSeriesWindowSpan(t *testing.T) {
	r := New()
	c := r.Counter("work.items_total")
	rec := NewRecorder(r, RecorderOptions{})
	fillRing(rec, 2, func(int) { c.Add(10) })

	s := rec.Series()
	for _, w := range s.Windows {
		if got := s.WindowSpanS[w]; got != 1 {
			t.Errorf("2-tick ring: window %s spans %vs, want 1s", w, got)
		}
		if got := s.Counters["work.items_total"].Rates[w]; got != 10 {
			t.Errorf("2-tick ring: window %s rate = %v, want 10/s", w, got)
		}
	}

	fillRing(rec, len(rec.ring), func(int) { c.Add(10) })
	s = rec.Series()
	want := map[string]float64{"10s": 10, "1m": 60, "5m": 300}
	for w, span := range want {
		if got := s.WindowSpanS[w]; got != span {
			t.Errorf("full ring: window %s spans %vs, want %vs", w, got, span)
		}
	}

	one := New()
	rec = NewRecorder(one, RecorderOptions{})
	rec.Tick()
	if s := rec.Series(); len(s.WindowSpanS) != 0 {
		t.Errorf("1-tick ring: window_span_s = %v, want empty", s.WindowSpanS)
	}
}

// BenchmarkRecorderSeries measures one /debug/metrics/series answer over a
// full default ring (301 ticks) of 150 counters and 20 histograms.
func BenchmarkRecorderSeries(b *testing.B) {
	r := New()
	var counters []*Counter
	for i := 0; i < 150; i++ {
		counters = append(counters, r.Counter(fmt.Sprintf("bench.c%d_total", i)))
	}
	var hists []*Histogram
	for i := 0; i < 20; i++ {
		hists = append(hists, r.Histogram(fmt.Sprintf("bench.h%d_ns", i), "ns"))
	}
	rec := NewRecorder(r, RecorderOptions{})
	fillRing(rec, len(rec.ring), func(i int) {
		for _, c := range counters {
			c.Add(int64(i))
		}
		for _, h := range hists {
			h.Observe(int64(1000 + i))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := rec.Series(); len(s.Counters) < len(counters) {
			b.Fatalf("series holds %d counters, want >= %d", len(s.Counters), len(counters))
		}
	}
}
