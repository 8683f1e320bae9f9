package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime/metrics"
	"sync"
	"time"
)

// Recorder turns the registry's cumulative metrics into time series: it
// self-scrapes a Snapshot on a ticker into a fixed-size ring and answers
// windowed deltas and per-second rates over it (10s/1m/5m by default) —
// "what is the leak rate right now", not "how many leaks since boot".
// Each tick it also samples the Go runtime (goroutines, heap, GC cycles
// via runtime/metrics) into runtime.* gauges, so one scrape carries both
// workload and process health. The series view is served as JSON at
// /debug/metrics/series by DebugMux once a Recorder attaches to the
// registry, and Watch rules are evaluated against every tick.
//
// Memory is bounded by construction: Capacity ticks of one Snapshot each
// (the ring never grows), and the scrape itself is read-only against the
// wait-free metric cells.
type Recorder struct {
	reg      *Registry
	interval time.Duration
	windows  []time.Duration
	logger   *slog.Logger
	trips    *Counter
	watches  []*watchState

	runtimeSamples []metrics.Sample
	runtimeGauges  []*Gauge

	mu    sync.RWMutex
	ring  []tickSample
	next  int
	count int
}

// tickSample is one scrape: when it happened and what the registry held.
type tickSample struct {
	at   time.Time
	snap Snapshot
}

// RecorderOptions configure a Recorder.
type RecorderOptions struct {
	// Interval is the self-scrape cadence. Default 1s.
	Interval time.Duration
	// Capacity is the ring size in ticks. Default covers the longest
	// window plus one tick (301 at the defaults).
	Capacity int
	// Windows are the rate windows exposed by Series. Default 10s, 1m, 5m.
	Windows []time.Duration
	// Watches are threshold rules evaluated on every tick.
	Watches []Watch
	// Logger receives watch trip/recover lines. Nil uses slog.Default.
	Logger *slog.Logger
}

// runtimeMetricNames maps runtime/metrics keys onto the runtime.* gauges
// every recorder maintains (documented in docs/metrics.md).
var runtimeMetricNames = []struct{ key, gauge string }{
	{"/sched/goroutines:goroutines", "runtime.goroutines"},
	{"/memory/classes/heap/objects:bytes", "runtime.heap_bytes"},
	{"/gc/heap/allocs:bytes", "runtime.alloc_bytes"},
	{"/gc/cycles/total:gc-cycles", "runtime.gc_cycles"},
}

// NewRecorder builds a recorder over reg and attaches it, so DebugMux(reg)
// starts serving /debug/metrics/series. Call Run to start the ticker (or
// Tick manually, e.g. from tests).
func NewRecorder(reg *Registry, opts RecorderOptions) *Recorder {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if len(opts.Windows) == 0 {
		opts.Windows = []time.Duration{10 * time.Second, time.Minute, 5 * time.Minute}
	}
	if opts.Capacity <= 0 {
		longest := opts.Windows[0]
		for _, w := range opts.Windows {
			if w > longest {
				longest = w
			}
		}
		opts.Capacity = int(longest/opts.Interval) + 1
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	rec := &Recorder{
		reg:      reg,
		interval: opts.Interval,
		windows:  opts.Windows,
		logger:   opts.Logger,
		trips:    reg.Counter("obs.watch.trips_total"),
		ring:     make([]tickSample, opts.Capacity),
	}
	for _, w := range opts.Watches {
		rec.watches = append(rec.watches, &watchState{Watch: w.withDefaults()})
	}
	for _, rm := range runtimeMetricNames {
		rec.runtimeSamples = append(rec.runtimeSamples, metrics.Sample{Name: rm.key})
		rec.runtimeGauges = append(rec.runtimeGauges, reg.Gauge(rm.gauge))
	}
	reg.recorder.Store(rec)
	return rec
}

// Interval reports the scrape cadence.
func (rec *Recorder) Interval() time.Duration { return rec.interval }

// Run scrapes on the configured interval until ctx is canceled.
func (rec *Recorder) Run(ctx context.Context) {
	t := time.NewTicker(rec.interval)
	defer t.Stop()
	rec.Tick()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rec.Tick()
		}
	}
}

// Tick performs one scrape: runtime sampling, a registry snapshot into
// the ring, and watch evaluation.
func (rec *Recorder) Tick() {
	rec.sampleRuntime()
	now := time.Now()
	snap := rec.reg.Snapshot()
	rec.mu.Lock()
	rec.ring[rec.next] = tickSample{at: now, snap: snap}
	rec.next = (rec.next + 1) % len(rec.ring)
	if rec.count < len(rec.ring) {
		rec.count++
	}
	rec.mu.Unlock()
	rec.evalWatches()
}

// sampleRuntime reads the Go runtime metrics into the runtime.* gauges.
func (rec *Recorder) sampleRuntime() {
	metrics.Read(rec.runtimeSamples)
	for i, s := range rec.runtimeSamples {
		if s.Value.Kind() != metrics.KindUint64 {
			continue // metric not supported by this runtime build
		}
		v := s.Value.Uint64()
		if v > math.MaxInt64 {
			v = math.MaxInt64
		}
		rec.runtimeGauges[i].Set(int64(v))
	}
}

// ticks returns the held samples, oldest first.
func (rec *Recorder) ticks() []tickSample {
	rec.mu.RLock()
	defer rec.mu.RUnlock()
	out := make([]tickSample, 0, rec.count)
	start := rec.next - rec.count
	if start < 0 {
		start += len(rec.ring)
	}
	for i := 0; i < rec.count; i++ {
		out = append(out, rec.ring[(start+i)%len(rec.ring)])
	}
	return out
}

// CounterSeries is the windowed view of one counter.
type CounterSeries struct {
	Value int64              `json:"value"`
	Rates map[string]float64 `json:"rates_per_s,omitempty"`
}

// HistogramSeries is the windowed view of one histogram: the cumulative
// snapshot plus observation rates and windowed mean values.
type HistogramSeries struct {
	HistogramSnapshot
	Rates map[string]float64 `json:"rates_per_s,omitempty"`
	Mean  map[string]float64 `json:"window_mean,omitempty"`
}

// SeriesSnapshot is the /debug/metrics/series wire format: the latest
// cumulative values joined with per-window rates computed from the ring.
// WindowSpanS holds the seconds each window's rates actually cover: the
// full window once the ring is old enough, less while it is younger.
type SeriesSnapshot struct {
	At          time.Time                  `json:"at"`
	IntervalS   float64                    `json:"interval_s"`
	Windows     []string                   `json:"windows"`
	WindowSpanS map[string]float64         `json:"window_span_s,omitempty"`
	Samples     int                        `json:"samples"`
	Counters    map[string]CounterSeries   `json:"counters"`
	Gauges      map[string]int64           `json:"gauges"`
	Histograms  map[string]HistogramSeries `json:"histograms"`
}

// Series computes the windowed view from the ring. With fewer than two
// ticks the rates maps are empty; the cumulative values still serve.
func (rec *Recorder) Series() SeriesSnapshot {
	ticks := rec.ticks()
	out := SeriesSnapshot{
		IntervalS:   rec.interval.Seconds(),
		WindowSpanS: make(map[string]float64),
		Samples:     len(ticks),
		Counters:    make(map[string]CounterSeries),
		Gauges:      make(map[string]int64),
		Histograms:  make(map[string]HistogramSeries),
	}
	for _, w := range rec.windows {
		out.Windows = append(out.Windows, fmtWindow(w))
	}
	if len(ticks) == 0 {
		return out
	}
	cur := ticks[len(ticks)-1]
	out.At = cur.at
	for name, v := range cur.snap.Gauges {
		out.Gauges[name] = v
	}
	// The baseline depends only on the window: pick each once, then apply
	// it to every metric.
	type span struct {
		name    string
		then    Snapshot
		elapsed float64
	}
	var spans []span
	for _, w := range rec.windows {
		then, ok := baseline(ticks, cur.at, w)
		if !ok {
			continue
		}
		elapsed := cur.at.Sub(then.at).Seconds()
		if elapsed <= 0 {
			continue
		}
		name := fmtWindow(w)
		spans = append(spans, span{name, then.snap, elapsed})
		out.WindowSpanS[name] = elapsed
	}
	for name, v := range cur.snap.Counters {
		cs := CounterSeries{Value: v, Rates: make(map[string]float64, len(spans))}
		for _, sp := range spans {
			cs.Rates[sp.name] = float64(v-sp.then.Counters[name]) / sp.elapsed
		}
		out.Counters[name] = cs
	}
	for name, h := range cur.snap.Histograms {
		hs := HistogramSeries{
			HistogramSnapshot: h,
			Rates:             make(map[string]float64, len(spans)),
			Mean:              make(map[string]float64, len(spans)),
		}
		for _, sp := range spans {
			prev := sp.then.Histograms[name]
			dc := h.Count - prev.Count
			hs.Rates[sp.name] = float64(dc) / sp.elapsed
			if dc > 0 {
				hs.Mean[sp.name] = float64(h.Sum-prev.Sum) / float64(dc)
			}
		}
		out.Histograms[name] = hs
	}
	return out
}

// baseline picks the comparison tick for a window: the newest tick at
// least window old, or the oldest tick held (a partial window — the rate
// is still computed over the true elapsed time). Reports false when no
// earlier tick exists.
func baseline(ticks []tickSample, now time.Time, window time.Duration) (tickSample, bool) {
	if len(ticks) < 2 {
		return tickSample{}, false
	}
	cutoff := now.Add(-window)
	best := ticks[0]
	for _, t := range ticks[:len(ticks)-1] {
		if t.at.After(cutoff) {
			break
		}
		best = t
	}
	return best, true
}

// Handler serves the series view as JSON.
func (rec *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rec.Series())
	})
}

// fmtWindow renders a window duration compactly ("10s", "1m", "5m").
func fmtWindow(d time.Duration) string {
	if d >= time.Minute && d%time.Minute == 0 {
		return fmt.Sprintf("%dm", int(d.Minutes()))
	}
	return fmt.Sprintf("%ds", int(math.Round(d.Seconds())))
}
