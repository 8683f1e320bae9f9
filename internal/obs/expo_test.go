package obs

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a deterministic registry exercising every metric
// kind: plain counter/gauge/histogram, all three vec kinds (including a
// multi-label family and label values needing escaping), and a rollup.
func goldenRegistry() *Registry {
	r := New()
	r.Counter("pii.scan.calls_total").Add(42)
	r.Counter("proxy.flows_total").Add(7)
	r.Gauge("serve.sse_subscribers").Set(3)
	h := r.Histogram("serve.request_ns", "ns")
	for _, v := range []int64{1000, 2000, 4000, 8000, 100000} {
		h.Observe(v)
	}

	cv := r.CounterVec("pii.match.hits", "encoding")
	cv.WithLabelValues("identity").Add(10)
	cv.WithLabelValues("md5").Add(2)
	cv.WithLabelValues(`we"ird\enc`).Inc() // label-value escaping

	gv := r.GaugeVec("journal.depth", "shard", "state")
	gv.WithLabelValues("0", "live").Set(5)
	gv.WithLabelValues("1", "idle").Set(1)

	hv := r.HistogramVec("stage", "ns", "stage")
	hv.WithLabelValues("session").Observe(1500)
	hv.WithLabelValues("session").Observe(2500)
	hv.WithLabelValues("detect").Observe(300)

	r.HistogramVec("analysis.compute", "ns", "artifact").
		WithRollup("analysis.compute_ns").
		WithLabelValues("report").Observe(5000)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom", buf.Bytes())
}

// TestExpositionWellFormed checks structural invariants beyond the golden
// bytes: every sample line belongs to a declared family, names stay in the
// prom alphabet, and no family is declared twice.
func TestExpositionWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	types := make(map[string]string)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Errorf("family %s declared twice", parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		if strings.ContainsAny(name, ".-") {
			t.Errorf("unsanitized sample name %q", name)
		}
		found := false
		for fam := range types {
			if name == fam || strings.HasPrefix(name, fam+"_") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sample %q has no declared family", name)
		}
	}
	if len(types) == 0 {
		t.Fatal("no TYPE lines emitted")
	}
}

// TestHandlerNegotiation pins that /debug/metrics negotiates nothing: every
// request, whatever its ?format= or Accept header, gets the Prometheus text
// format 0.0.4 with the registry's full exposition.
func TestHandlerNegotiation(t *testing.T) {
	r := goldenRegistry()
	var want bytes.Buffer
	if err := r.WriteProm(&want); err != nil {
		t.Fatal(err)
	}
	mux := DebugMux(r)
	for _, c := range []struct{ target, accept string }{
		{"/debug/metrics", ""},
		{"/debug/metrics?format=json", ""},
		{"/debug/metrics?format=openmetrics", ""},
		{"/debug/metrics?format=prom", "application/json"},
		{"/debug/metrics", "application/openmetrics-text;version=1.0.0"},
		{"/debug/metrics", "application/json"},
	} {
		req := httptest.NewRequest("GET", c.target, nil)
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("%s (Accept %q): content type = %q", c.target, c.accept, ct)
		}
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s (Accept %q): body differs from WriteProm:\n%s", c.target, c.accept, w.Body.String())
		}
	}
}

// TestDebugMuxPprof pins the profiler mounts: /debug/pprof/heap and
// /debug/pprof/goroutine must resolve through DebugMux (they route via
// pprof.Index's path dispatch, which a refactor could silently drop).
func TestDebugMuxPprof(t *testing.T) {
	mux := DebugMux(New())
	for _, path := range []string{
		"/debug/pprof/heap?debug=1",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/",
	} {
		req := httptest.NewRequest("GET", path, nil)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, w.Code)
		}
		if w.Body.Len() == 0 {
			t.Errorf("GET %s returned empty body", path)
		}
	}
}

func TestDebugMuxSeriesWithoutRecorder(t *testing.T) {
	mux := DebugMux(New())
	req := httptest.NewRequest("GET", "/debug/metrics/series", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Errorf("series without recorder = %d, want 404", w.Code)
	}
}
