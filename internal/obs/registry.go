package obs

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process-wide namespace of metrics. Lookups are
// get-or-create: the first caller of a name allocates the metric, later
// callers (and exporters) share it. A Registry is safe for concurrent use;
// hot paths should resolve metric pointers once and reuse them.
type Registry struct {
	mu            sync.RWMutex
	counters      map[string]*Counter
	gauges        map[string]*Gauge
	histograms    map[string]*Histogram
	counterVecs   map[string]*CounterVec
	gaugeVecs     map[string]*GaugeVec
	histogramVecs map[string]*HistogramVec

	// recorder, when a Recorder has attached itself, backs the
	// /debug/metrics/series endpoint of DebugMux.
	recorder atomic.Pointer[Recorder]
}

// Default is the process-wide registry. Instrumented packages record here
// unless the caller injects a private Registry.
var Default = New()

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:      make(map[string]*Counter),
		gauges:        make(map[string]*Gauge),
		histograms:    make(map[string]*Histogram),
		counterVecs:   make(map[string]*CounterVec),
		gaugeVecs:     make(map[string]*GaugeVec),
		histogramVecs: make(map[string]*HistogramVec),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with the
// given unit label ("ns", "bytes"). The unit is fixed by the first caller;
// a later caller asking for a different unit gets the original histogram
// back, with a warning logged and obs.unit_conflicts_total incremented —
// two call sites disagreeing about a metric's unit is an instrumentation
// bug that silent precedence used to hide.
func (r *Registry) Histogram(name, unit string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h == nil {
		r.mu.Lock()
		if h = r.histograms[name]; h == nil {
			h = newHistogram(unit)
			r.histograms[name] = h
		}
		r.mu.Unlock()
	}
	if h.unit != unit {
		r.unitConflict(name, h.unit, unit)
	}
	return h
}

// unitConflict records a histogram registered twice with disagreeing
// units. The counter lives in the same registry, so the conflict is
// visible in the snapshot it corrupts.
func (r *Registry) unitConflict(name, have, want string) {
	r.Counter("obs.unit_conflicts_total").Inc()
	slog.Warn("obs: histogram unit conflict; keeping first unit",
		"metric", name, "unit", have, "conflicting_unit", want)
}

// CounterVec returns the named counter family with the given label
// dimensions, creating it on first use. The label set is fixed by the
// first caller; a later caller asking for different labels gets the
// original family back, with a warning logged and
// obs.label_conflicts_total incremented.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	r.mu.RLock()
	v := r.counterVecs[name]
	r.mu.RUnlock()
	if v == nil {
		limited := r.Counter("obs.cardinality_limited_total")
		r.mu.Lock()
		if v = r.counterVecs[name]; v == nil {
			v = &CounterVec{v: newVec[Counter](name, labels, 0, limited)}
			r.counterVecs[name] = v
		}
		r.mu.Unlock()
	}
	r.checkLabels(name, v.v.labels, labels)
	return v
}

// GaugeVec returns the named gauge family with the given label dimensions,
// creating it on first use.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	r.mu.RLock()
	v := r.gaugeVecs[name]
	r.mu.RUnlock()
	if v == nil {
		limited := r.Counter("obs.cardinality_limited_total")
		r.mu.Lock()
		if v = r.gaugeVecs[name]; v == nil {
			v = &GaugeVec{v: newVec[Gauge](name, labels, 0, limited)}
			r.gaugeVecs[name] = v
		}
		r.mu.Unlock()
	}
	r.checkLabels(name, v.v.labels, labels)
	return v
}

// HistogramVec returns the named histogram family with the given unit and
// label dimensions, creating it on first use. Unit conflicts are handled
// like Registry.Histogram's.
func (r *Registry) HistogramVec(name, unit string, labels ...string) *HistogramVec {
	r.mu.RLock()
	v := r.histogramVecs[name]
	r.mu.RUnlock()
	if v == nil {
		limited := r.Counter("obs.cardinality_limited_total")
		r.mu.Lock()
		if v = r.histogramVecs[name]; v == nil {
			v = &HistogramVec{v: newVec[Histogram](name, labels, 0, limited), unit: unit}
			r.histogramVecs[name] = v
		}
		r.mu.Unlock()
	}
	if v.unit != unit {
		r.unitConflict(name, v.unit, unit)
	}
	r.checkLabels(name, v.v.labels, labels)
	return v
}

// checkLabels flags a vec family resolved twice with disagreeing label
// names — like a unit conflict, an instrumentation bug worth surfacing.
func (r *Registry) checkLabels(name string, have, want []string) {
	if len(have) == len(want) {
		same := true
		for i := range have {
			if have[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	r.Counter("obs.label_conflicts_total").Inc()
	slog.Warn("obs: vec label conflict; keeping first label set",
		"metric", name, "labels", strings.Join(have, ","),
		"conflicting_labels", strings.Join(want, ","))
}

// Snapshot is a point-in-time export of every metric in a registry.
// Labeled series fold into the same flat maps under dotted names (family
// + "." + label values, histograms with the unit suffix): the names the
// Recorder's series view, Watch rules and StageTable key on.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every registered metric.
// Concurrent updates during the snapshot may be partially reflected.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	cvecs := make([]*CounterVec, 0, len(r.counterVecs))
	for _, v := range r.counterVecs {
		cvecs = append(cvecs, v)
	}
	gvecs := make([]*GaugeVec, 0, len(r.gaugeVecs))
	for _, v := range r.gaugeVecs {
		gvecs = append(gvecs, v)
	}
	hvecs := make([]*HistogramVec, 0, len(r.histogramVecs))
	for _, v := range r.histogramVecs {
		hvecs = append(hvecs, v)
	}
	r.mu.RUnlock()
	for _, v := range cvecs {
		v.v.series(func(vals []string, c *Counter) {
			s.Counters[flatName(v.v.name, vals, "")] = c.Value()
		})
	}
	for _, v := range gvecs {
		v.v.series(func(vals []string, g *Gauge) {
			s.Gauges[flatName(v.v.name, vals, "")] = g.Value()
		})
	}
	for _, v := range hvecs {
		v.v.series(func(vals []string, h *Histogram) {
			s.Histograms[flatName(v.v.name, vals, v.unit)] = h.Snapshot()
		})
		if name := v.rollupName(); name != "" {
			s.Histograms[name] = v.mergedSnapshot()
		}
	}
	return s
}

// Recorder returns the Recorder attached to this registry, or nil if none
// is running. NewRecorder attaches itself.
func (r *Registry) Recorder() *Recorder { return r.recorder.Load() }

// DebugMux returns a mux exposing the registry at /debug/metrics
// (Prometheus text format 0.0.4), the windowed time-series view at
// /debug/metrics/series (JSON; 404 until a Recorder is attached), and the
// runtime profiler at /debug/pprof/ — the observability surface the cmd
// binaries mount.
func DebugMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		_ = r.WriteProm(w)
	})
	mux.HandleFunc("/debug/metrics/series", func(w http.ResponseWriter, req *http.Request) {
		rec := r.Recorder()
		if rec == nil {
			http.Error(w, "no recorder attached (start one with obs.NewRecorder)", http.StatusNotFound)
			return
		}
		rec.Handler().ServeHTTP(w, req)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StageTable renders every histogram whose name starts with prefix as an
// aligned text table, one row per stage, with nanosecond histograms
// formatted as durations. This is the "final timing table" avwrun
// -progress prints after a campaign.
func (s Snapshot) StageTable(prefix string) string {
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return formatStageTable(prefix, names, s.Histograms)
}
