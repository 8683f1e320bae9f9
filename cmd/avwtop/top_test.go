package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"appvsweb/internal/obs"
)

// newTestServer boots the real observability surface in-process: a
// registry with a Recorder the test steps with Tick, served by
// obs.DebugMux over httptest.
func newTestServer(t *testing.T) (*httptest.Server, *obs.Registry, *obs.Recorder) {
	t.Helper()
	reg := obs.New()
	rec := obs.NewRecorder(reg, obs.RecorderOptions{Interval: time.Millisecond})
	srv := httptest.NewServer(obs.DebugMux(reg))
	t.Cleanup(srv.Close)
	return srv, reg, rec
}

func TestFetchComputeRender(t *testing.T) {
	srv, reg, rec := newTestServer(t)
	url := srv.URL + "/debug/metrics/series"

	reg.Counter("serve.requests_total").Add(100)
	reg.CounterVec("serve.responses", "class").WithLabelValues("2xx").Add(95)
	reg.CounterVec("serve.responses", "class").WithLabelValues("5xx").Add(5)
	reg.Counter("analysis.cache_hits_total").Add(30)
	reg.Counter("analysis.cache_misses_total").Add(10)
	reg.Gauge("serve.sse_subscribers").Set(2)
	reg.CounterVec("pii.match.hits", "encoding").WithLabelValues("identity").Add(8)
	reg.CounterVec("pii.match.hits", "encoding").WithLabelValues("md5").Add(3)
	h := reg.Histogram("serve.request_ns", "ns")
	for _, v := range []int64{1_000_000, 2_000_000, 50_000_000} {
		h.Observe(v)
	}
	rec.Tick()
	time.Sleep(20 * time.Millisecond)
	reg.Counter("serve.requests_total").Add(50)
	reg.CounterVec("pii.match.hits", "encoding").WithLabelValues("identity").Add(4)
	rec.Tick()

	s, err := fetchSeries(srv.Client(), url)
	if err != nil {
		t.Fatal(err)
	}
	st, err := computeStats(s, "10s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 150 {
		t.Fatalf("requests = %d, want 150", st.Requests)
	}
	if st.RPS <= 0 {
		t.Fatalf("rps = %v, want > 0", st.RPS)
	}
	if st.Samples != 2 || st.Window != "10s" {
		t.Fatalf("samples = %d window = %q, want 2 and 10s", st.Samples, st.Window)
	}
	if st.Classes["2xx"] != 95 || st.Classes["5xx"] != 5 {
		t.Fatalf("classes = %+v", st.Classes)
	}
	if st.HitRatio != 0.75 {
		t.Fatalf("hit ratio = %v, want 0.75", st.HitRatio)
	}
	if st.SSESubs != 2 {
		t.Fatalf("sse = %d, want 2", st.SSESubs)
	}
	if st.P99ns == 0 || st.P50ns == 0 {
		t.Fatalf("latency quantiles empty: %+v", st)
	}
	// PII rows sort by total: identity (12) before md5 (3); only identity
	// moved between ticks, so only it carries a rate.
	if len(st.PII) != 2 || st.PII[0].Encoding != "identity" || st.PII[0].Total != 12 {
		t.Fatalf("pii rows = %+v", st.PII)
	}
	if st.PII[0].Rate <= 0 || st.PII[1].Rate != 0 {
		t.Fatalf("pii rates = %+v", st.PII)
	}
	// The ticked Recorder populated the runtime gauges.
	if st.Goroutines <= 0 || st.HeapBytes <= 0 {
		t.Fatalf("runtime stats empty: goroutines=%d heap=%d", st.Goroutines, st.HeapBytes)
	}

	var buf strings.Builder
	render(&buf, url, st, false)
	out := buf.String()
	for _, want := range []string{
		"req/s", "p99", "hit ratio 75.0%", "subscribers 2",
		"goroutines", "identity", "md5", "(10s rates over ", "ms, 2 ticks)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// The two ticks lie ~20ms apart, far short of the 10s window, and the
	// header says so; a window the ring fully covers shows no span.
	if st.Span <= 0 || st.Span >= 10 {
		t.Errorf("span = %vs, want the ticks' distance, under 10s", st.Span)
	}
	full := st
	full.Span = 0
	buf.Reset()
	render(&buf, url, full, false)
	if !strings.Contains(buf.String(), "(10s rates, 2 ticks)") {
		t.Errorf("full-window frame header:\n%s", buf.String())
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("plain frame contains ANSI control codes")
	}

	var color strings.Builder
	render(&color, url, st, true)
	if !strings.Contains(color.String(), ansiBold) {
		t.Error("color frame missing ANSI bold")
	}
}

// TestComputeStatsWindow: one tick fills the cumulative columns with zero
// rates, and a window the recorder does not keep is an error, not a row
// of silent zeros.
func TestComputeStatsWindow(t *testing.T) {
	srv, reg, rec := newTestServer(t)
	reg.Counter("serve.requests_total").Add(7)
	rec.Tick()
	s, err := fetchSeries(srv.Client(), srv.URL+"/debug/metrics/series")
	if err != nil {
		t.Fatal(err)
	}
	st, err := computeStats(s, "1m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 7 || st.RPS != 0 || st.Samples != 1 {
		t.Fatalf("one tick: requests=%d rps=%v samples=%d, want 7, 0, 1", st.Requests, st.RPS, st.Samples)
	}
	if _, err := computeStats(s, "2m"); err == nil || !strings.Contains(err.Error(), "10s, 1m, 5m") {
		t.Fatalf("unknown window: err = %v", err)
	}
}

// TestRunOnceWaitsForRates: -once polls a recorder with a single tick
// until a second one lands, then gates on the request rate it reads.
func TestRunOnceWaitsForRates(t *testing.T) {
	srv, reg, rec := newTestServer(t)
	url := srv.URL + "/debug/metrics/series"
	rec.Tick()
	go func() {
		time.Sleep(30 * time.Millisecond)
		reg.Counter("serve.requests_total").Add(10)
		rec.Tick()
	}()
	if code := runOnce(srv.Client(), url, "10s", 5*time.Millisecond, 1, nil); code != 0 {
		t.Fatalf("runOnce = %d, want 0", code)
	}
	if code := runOnce(srv.Client(), url, "10s", 5*time.Millisecond, 1e9, nil); code != 1 {
		t.Fatalf("runOnce with unmet -min-rps = %d, want 1", code)
	}
}

func TestFetchSeriesErrors(t *testing.T) {
	// A debug mux without a Recorder answers the series view with 404.
	srv := httptest.NewServer(obs.DebugMux(obs.New()))
	defer srv.Close()
	if _, err := fetchSeries(srv.Client(), srv.URL+"/debug/metrics/series"); err == nil {
		t.Fatal("want error on non-200")
	}
	if _, err := fetchSeries(&http.Client{Timeout: time.Second}, "http://127.0.0.1:1/debug/metrics/series"); err == nil {
		t.Fatal("want error on refused connection")
	}
}

func TestCSVRow(t *testing.T) {
	st := stats{
		At: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC), RPS: 12.5,
		P50ns: 1000, P95ns: 2000, P99ns: 3000, HitRatio: 0.5,
		SSESubs: 1, Goroutines: 10, HeapBytes: 1 << 20,
	}
	row := csvRow(st)
	if fields := strings.Split(row, ","); len(fields) != len(strings.Split(csvHeader(), ",")) {
		t.Fatalf("row width %d != header width: %s", len(fields), row)
	}
	if !strings.HasPrefix(row, "2026-08-08T12:00:00Z,12.500,1000,2000,3000,") {
		t.Fatalf("row = %s", row)
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtNS(1_500_000); got != "1.50ms" {
		t.Errorf("fmtNS = %q", got)
	}
	if got := fmtNS(2_500_000_000); got != "2.50s" {
		t.Errorf("fmtNS = %q", got)
	}
	if got := fmtBytes(3 << 20); got != "3.0MiB" {
		t.Errorf("fmtBytes = %q", got)
	}
}
