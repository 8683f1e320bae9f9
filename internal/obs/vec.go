package obs

import (
	"sort"
	"strings"
	"sync"
)

// Labeled metric vectors: a vec is one named metric family whose series
// are distinguished by an ordered tuple of label values — the dimensional
// layer under "leak rate per encoding" or "stage latency per stage". The
// design splits cost the same way Registry does: resolving a series
// (WithLabelValues) takes a read-mostly lock and builds a canonical key,
// but the returned child is a plain Counter/Gauge/Histogram, so the
// update itself stays wait-free. Hot paths resolve once and reuse the
// child; occasional callers pay one pooled key build plus a map read.
//
// Cardinality is bounded per family: the first maxSeries distinct label
// tuples each get their own series, and every tuple beyond that collapses
// into a shared overflow series labeled "other" (obs.cardinality_limited_total
// counts the collapsed resolutions). Counters must never silently lose
// observations, so the bound collapses instead of evicting — an evicted
// counter would restart at zero and corrupt every windowed rate computed
// over it.

// DefaultMaxSeries bounds the distinct label tuples per vec family.
// High enough for every planned dimension (encodings, artifact IDs,
// stages, shards), low enough that a label mistakenly carrying a
// per-flow value cannot grow the registry without bound.
const DefaultMaxSeries = 256

// OverflowLabel is the label value shared by all series collapsed by the
// cardinality bound.
const OverflowLabel = "other"

// keySep separates label values inside a canonical series key. 0xff never
// appears in UTF-8 text, so joined values cannot collide.
const keySep = "\xff"

// keyBuilders pools the scratch used to canonicalize label tuples, so a
// cold WithLabelValues does not allocate for the lookup itself (the key
// string is only materialized on first insert).
var keyBuilders = sync.Pool{New: func() any { return new(strings.Builder) }}

// seriesKey canonicalizes a label tuple into one string key.
func seriesKey(vals []string) string {
	if len(vals) == 1 {
		return vals[0]
	}
	b := keyBuilders.Get().(*strings.Builder)
	b.Reset()
	for i, v := range vals {
		if i > 0 {
			b.WriteString(keySep)
		}
		b.WriteString(v)
	}
	k := b.String()
	keyBuilders.Put(b)
	return k
}

// vec is the shared series table under CounterVec/GaugeVec/HistogramVec.
type vec[T any] struct {
	name    string
	labels  []string
	max     int
	limited *Counter // obs.cardinality_limited_total, shared registry-wide

	mu       sync.RWMutex
	children map[string]*T
	order    []string // insertion order of keys, for deterministic export
	vals     map[string][]string
	overflow *T
}

func newVec[T any](name string, labels []string, max int, limited *Counter) *vec[T] {
	if max <= 0 {
		max = DefaultMaxSeries
	}
	return &vec[T]{
		name: name, labels: labels, max: max, limited: limited,
		children: make(map[string]*T),
		vals:     make(map[string][]string),
	}
}

// get resolves the series for a label tuple, creating it (via mk) on first
// use. Tuples beyond the cardinality bound share the overflow series.
func (v *vec[T]) get(vals []string, mk func() *T) *T {
	if len(vals) != len(v.labels) {
		panic("obs: " + v.name + ": wrong number of label values")
	}
	key := seriesKey(vals)
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[key]; c != nil {
		return c
	}
	if len(v.children) >= v.max {
		if v.limited != nil {
			v.limited.Inc()
		}
		if v.overflow == nil {
			v.overflow = mk()
			over := make([]string, len(v.labels))
			for i := range over {
				over[i] = OverflowLabel
			}
			okey := seriesKey(over)
			v.children[okey] = v.overflow
			v.order = append(v.order, okey)
			v.vals[okey] = over
		}
		return v.overflow
	}
	c = mk()
	// The key escapes into the long-lived maps here, so clone it off the
	// pooled builder's backing array.
	key = strings.Clone(key)
	v.children[key] = c
	v.order = append(v.order, key)
	v.vals[key] = append([]string(nil), vals...)
	return c
}

// series invokes fn for every live series in sorted key order — the
// deterministic iteration Snapshot and WriteProm share.
func (v *vec[T]) series(fn func(vals []string, child *T)) {
	v.mu.RLock()
	keys := append([]string(nil), v.order...)
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		child, vals := v.children[k], v.vals[k]
		v.mu.RUnlock()
		if child != nil {
			fn(vals, child)
		}
	}
}

// len reports the number of live series (including overflow, if present).
func (v *vec[T]) len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.children)
}

// CounterVec is a family of Counters distinguished by label values, e.g.
// pii.match.hits by wire encoding. Obtain one from Registry.CounterVec.
type CounterVec struct {
	v *vec[Counter]
}

// Name reports the family name.
func (c *CounterVec) Name() string { return c.v.name }

// Labels reports the label names, in the order WithLabelValues expects.
func (c *CounterVec) Labels() []string { return append([]string(nil), c.v.labels...) }

// WithLabelValues resolves the series for a label tuple, creating it on
// first use. The returned Counter is wait-free; hot paths should resolve
// once and reuse it.
func (c *CounterVec) WithLabelValues(vals ...string) *Counter {
	return c.v.get(vals, func() *Counter { return &Counter{} })
}

// GaugeVec is a family of Gauges distinguished by label values.
type GaugeVec struct {
	v *vec[Gauge]
}

// Name reports the family name.
func (g *GaugeVec) Name() string { return g.v.name }

// Labels reports the label names, in the order WithLabelValues expects.
func (g *GaugeVec) Labels() []string { return append([]string(nil), g.v.labels...) }

// WithLabelValues resolves the series for a label tuple, creating it on
// first use.
func (g *GaugeVec) WithLabelValues(vals ...string) *Gauge {
	return g.v.get(vals, func() *Gauge { return &Gauge{} })
}

// HistogramVec is a family of Histograms distinguished by label values,
// e.g. stage latency by pipeline stage. The unit is fixed for the whole
// family. The family name excludes the unit suffix; each series' flat
// Snapshot name appends it (stage + session → stage.session_ns).
type HistogramVec struct {
	v      *vec[Histogram]
	unit   string
	rollup string // guarded by v.mu; see WithRollup
}

// WithRollup names an aggregate series synthesized at snapshot time by
// merging every child's buckets — the family total under a flat Snapshot
// name (e.g. analysis.compute_ns over all artifacts). The merge sums raw
// bucket counts, so its quantiles are exactly what one histogram
// receiving every observation would report; the hot path records once,
// into the labeled child only. Returns the vec for chaining.
func (h *HistogramVec) WithRollup(name string) *HistogramVec {
	h.v.mu.Lock()
	h.rollup = name
	h.v.mu.Unlock()
	return h
}

// rollupName returns the configured rollup name, or "".
func (h *HistogramVec) rollupName() string {
	h.v.mu.RLock()
	defer h.v.mu.RUnlock()
	return h.rollup
}

// mergedSnapshot aggregates every child of the family into one
// HistogramSnapshot by summing bucket counts.
func (h *HistogramVec) mergedSnapshot() HistogramSnapshot {
	var children []*Histogram
	h.v.series(func(_ []string, c *Histogram) { children = append(children, c) })
	return mergeHistograms(h.unit, children)
}

// Name reports the family name (without the unit suffix).
func (h *HistogramVec) Name() string { return h.v.name }

// Unit reports the unit every series in the family records.
func (h *HistogramVec) Unit() string { return h.unit }

// Labels reports the label names, in the order WithLabelValues expects.
func (h *HistogramVec) Labels() []string { return append([]string(nil), h.v.labels...) }

// WithLabelValues resolves the series for a label tuple, creating it on
// first use.
func (h *HistogramVec) WithLabelValues(vals ...string) *Histogram {
	return h.v.get(vals, func() *Histogram { return newHistogram(h.unit) })
}

// flatName renders a series under the dotted Snapshot naming: family
// name, one dot-joined segment per label value, and for histograms the
// unit suffix ("stage" + ["session"] + "ns" → "stage.session_ns"). Series
// keys, Watch rules and stage tables address labeled series by it.
func flatName(family string, vals []string, unit string) string {
	n := family + "." + strings.Join(vals, ".")
	if unit != "" {
		n += "_" + unit
	}
	return n
}
