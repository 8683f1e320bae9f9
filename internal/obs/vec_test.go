package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterVecGetOrCreate(t *testing.T) {
	r := New()
	v := r.CounterVec("pii.match.hits", "encoding")
	if v != r.CounterVec("pii.match.hits", "encoding") {
		t.Fatal("CounterVec not idempotent")
	}
	a := v.WithLabelValues("md5")
	if a != v.WithLabelValues("md5") {
		t.Fatal("series not idempotent")
	}
	a.Add(3)
	v.WithLabelValues("hex").Inc()
	snap := r.Snapshot()
	if snap.Counters["pii.match.hits.md5"] != 3 {
		t.Fatalf("legacy flat name missing: %+v", snap.Counters)
	}
	if snap.Counters["pii.match.hits.hex"] != 1 {
		t.Fatalf("legacy flat name missing: %+v", snap.Counters)
	}
	if got := v.Labels(); len(got) != 1 || got[0] != "encoding" {
		t.Fatalf("Labels = %v", got)
	}
}

func TestVecWrongArityPanics(t *testing.T) {
	r := New()
	v := r.CounterVec("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.WithLabelValues("only-one")
}

func TestGaugeVecSnapshot(t *testing.T) {
	r := New()
	v := r.GaugeVec("shard.depth", "shard")
	v.WithLabelValues("0").Set(7)
	v.WithLabelValues("1").Set(9)
	r.GaugeVec("journal.depth", "shard", "state").WithLabelValues("0", "live").Set(5)
	snap := r.Snapshot()
	if snap.Gauges["shard.depth.0"] != 7 || snap.Gauges["shard.depth.1"] != 9 ||
		snap.Gauges["journal.depth.0.live"] != 5 {
		t.Fatalf("gauge vec flat names wrong: %+v", snap.Gauges)
	}
}

func TestHistogramVecLegacyNamesAndRollup(t *testing.T) {
	r := New()
	v := r.HistogramVec("stage", "ns", "stage")
	v.WithLabelValues("session").Observe(1000)
	v.WithLabelValues("session").Observe(3000)
	v.WithLabelValues("filter").Observe(50)
	snap := r.Snapshot()
	if h := snap.Histograms["stage.session_ns"]; h.Count != 2 || h.Unit != "ns" {
		t.Fatalf("stage.session_ns = %+v", h)
	}
	if h := snap.Histograms["stage.filter_ns"]; h.Count != 1 {
		t.Fatalf("stage.filter_ns = %+v", h)
	}

	// A rollup must equal a plain histogram fed the same observations.
	v2 := r.HistogramVec("analysis.compute", "ns", "artifact").WithRollup("analysis.compute_ns")
	plain := newHistogram("ns")
	for i, id := range []string{"report", "table1", "report", "figure-1a.svg"} {
		val := int64(1000 * (i + 1))
		v2.WithLabelValues(id).Observe(val)
		plain.Observe(val)
	}
	snap = r.Snapshot()
	roll, ok := snap.Histograms["analysis.compute_ns"]
	if !ok {
		t.Fatal("rollup name missing from snapshot")
	}
	if want := plain.Snapshot(); roll != want {
		t.Fatalf("rollup = %+v, want %+v", roll, want)
	}
	if h := snap.Histograms["analysis.compute.figure-1a.svg_ns"]; h.Count != 1 {
		t.Fatalf("per-artifact series missing: %+v", h)
	}
}

// TestCounterVecCardinalityBound: beyond the per-family series bound, new
// label tuples collapse into one shared overflow series — the registry
// cannot be grown without bound by a label that mistakenly carries a
// per-flow value — and obs.cardinality_limited_total counts the collapsed
// resolutions.
func TestCounterVecCardinalityBound(t *testing.T) {
	limited := &Counter{}
	v := &CounterVec{v: newVec[Counter]("leaks", []string{"host"}, 4, limited)}
	for i := 0; i < 4; i++ {
		v.WithLabelValues(string(rune('a' + i))).Inc()
	}
	over1 := v.WithLabelValues("evil-1")
	over2 := v.WithLabelValues("evil-2")
	if over1 != over2 {
		t.Fatal("overflow tuples must share one series")
	}
	over1.Inc()
	over2.Inc()
	if got := limited.Value(); got != 2 {
		t.Fatalf("cardinality_limited = %d, want 2", got)
	}
	// 4 real series + 1 overflow, never more.
	if got := v.v.len(); got != 5 {
		t.Fatalf("series count = %d, want 5", got)
	}
	var names []string
	v.v.series(func(vals []string, c *Counter) { names = append(names, flatName("leaks", vals, "")) })
	if want := "leaks." + OverflowLabel; !strings.Contains(strings.Join(names, " "), want) {
		t.Fatalf("overflow series %q missing from %v", want, names)
	}
	// A tuple that existed before the bound still resolves to its own series.
	if v.WithLabelValues("a") == over1 {
		t.Fatal("pre-bound series collapsed into overflow")
	}
}

// TestVecConcurrent races get-or-create against Snapshot and exposition
// on all three vec kinds (run under -race via make race).
func TestVecConcurrent(t *testing.T) {
	r := New()
	const goroutines = 8
	const perG = 400
	labels := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lv := labels[i%len(labels)]
				r.CounterVec("c.vec", "l").WithLabelValues(lv).Inc()
				r.GaugeVec("g.vec", "l").WithLabelValues(lv).Add(1)
				r.HistogramVec("h.vec", "ns", "l").WithLabelValues(lv).Observe(int64(i))
				if i%97 == 0 {
					_ = r.Snapshot()
					_ = r.WriteProm(discard{})
				}
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total int64
	for _, l := range labels {
		total += snap.Counters["c.vec."+l]
	}
	if want := int64(goroutines * perG); total != want {
		t.Fatalf("counter vec total = %d, want %d", total, want)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestUnitAndLabelConflicts(t *testing.T) {
	r := New()
	r.Histogram("lat", "ns")
	r.Histogram("lat", "bytes") // conflicting unit: kept as ns, counted
	if got := r.Histogram("lat", "ns").Unit(); got != "ns" {
		t.Fatalf("unit = %q, want first-caller ns", got)
	}
	if got := r.Counter("obs.unit_conflicts_total").Value(); got != 1 {
		t.Fatalf("unit_conflicts = %d, want 1", got)
	}
	r.HistogramVec("lat.vec", "ns", "l")
	r.HistogramVec("lat.vec", "bytes", "l")
	if got := r.Counter("obs.unit_conflicts_total").Value(); got != 2 {
		t.Fatalf("unit_conflicts = %d, want 2", got)
	}
	r.CounterVec("cv", "a")
	r.CounterVec("cv", "b")
	if got := r.Counter("obs.label_conflicts_total").Value(); got != 1 {
		t.Fatalf("label_conflicts = %d, want 1", got)
	}
}

// BenchmarkCounterVec quantifies the labeled hot path against a plain
// Counter: /resolved is the documented pattern (resolve the series once,
// Inc atomics thereafter — must be within 2x of BenchmarkCounter), and
// /lookup pays the canonical-key map read on every update.
func BenchmarkCounter(b *testing.B) {
	r := New()
	c := r.Counter("bench.plain")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterVec(b *testing.B) {
	b.Run("resolved", func(b *testing.B) {
		r := New()
		c := r.CounterVec("bench.vec", "l").WithLabelValues("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("lookup", func(b *testing.B) {
		r := New()
		v := r.CounterVec("bench.vec", "l")
		v.WithLabelValues("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.WithLabelValues("x").Inc()
		}
	})
}
