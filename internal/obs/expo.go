package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (format 0.0.4, what a default Prometheus
// scrape_config consumes) of a Registry. Families are emitted in sorted
// name order and series in sorted label order, so the output is
// byte-stable for golden tests and diffing two scrapes.
//
// Mapping from the registry's dotted names:
//
//   - names sanitize to [a-zA-Z0-9_:] (dots and dashes become '_');
//   - counters gain a _total sample suffix when they lack one;
//   - labeled families render real label pairs instead of the dotted
//     Snapshot suffixes (pii_match_hits_total{encoding="md5"});
//   - histograms render as summaries: {quantile="0.5"|"0.95"|"0.99"},
//     _sum and _count, matching HistogramSnapshot's fields. Histogram
//     rollups are omitted — the labeled family already carries the data
//     and an aggregation would duplicate the prom name.

const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// sample is one exposition line before formatting: a sample-name suffix,
// label pairs, and a value.
type sample struct {
	suffix string // appended to the family sample name ("", "_sum", ...)
	labels []labelPair
	value  int64
}

type labelPair struct{ name, value string }

// family is one metric family: metadata plus its samples.
type family struct {
	name    string // sanitized family name (counters end in _total)
	mtype   string // counter | gauge | summary
	help    string
	samples []sample
}

// WriteProm writes the registry in the Prometheus text format 0.0.4.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	cvecs := make(map[string]*CounterVec, len(r.counterVecs))
	for n, v := range r.counterVecs {
		cvecs[n] = v
	}
	gvecs := make(map[string]*GaugeVec, len(r.gaugeVecs))
	for n, v := range r.gaugeVecs {
		gvecs[n] = v
	}
	hvecs := make(map[string]*HistogramVec, len(r.histogramVecs))
	for n, v := range r.histogramVecs {
		hvecs[n] = v
	}
	r.mu.RUnlock()

	var fams []family
	for name, c := range counters {
		fams = append(fams, family{
			name: counterFamilyName(name), mtype: "counter",
			help: helpFor(name), samples: []sample{{value: c.Value()}},
		})
	}
	for name, v := range cvecs {
		f := family{name: counterFamilyName(name), mtype: "counter", help: helpFor(name)}
		v.v.series(func(vals []string, c *Counter) {
			f.samples = append(f.samples, sample{labels: pairs(v.v.labels, vals), value: c.Value()})
		})
		fams = append(fams, f)
	}
	for name, g := range gauges {
		fams = append(fams, family{
			name: sanitizeName(name), mtype: "gauge", help: helpFor(name),
			samples: []sample{{value: g.Value()}},
		})
	}
	for name, v := range gvecs {
		f := family{name: sanitizeName(name), mtype: "gauge", help: helpFor(name)}
		v.v.series(func(vals []string, g *Gauge) {
			f.samples = append(f.samples, sample{labels: pairs(v.v.labels, vals), value: g.Value()})
		})
		fams = append(fams, f)
	}
	for name, h := range histograms {
		fams = append(fams, family{
			name: sanitizeName(name), mtype: "summary", help: helpFor(name),
			samples: summarySamples(nil, h.Snapshot()),
		})
	}
	for name, v := range hvecs {
		f := family{
			name:  sanitizeName(name) + "_" + v.unit,
			mtype: "summary", help: helpFor(name),
		}
		v.v.series(func(vals []string, h *Histogram) {
			f.samples = append(f.samples, summarySamples(pairs(v.v.labels, vals), h.Snapshot())...)
		})
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.mtype)
		for _, s := range f.samples {
			bw.WriteString(f.name)
			bw.WriteString(s.suffix)
			if len(s.labels) > 0 {
				bw.WriteByte('{')
				for i, lp := range s.labels {
					if i > 0 {
						bw.WriteByte(',')
					}
					// %q escapes exactly what the exposition format
					// requires in label values: backslash, double quote,
					// and newline.
					fmt.Fprintf(bw, "%s=%q", sanitizeName(lp.name), lp.value)
				}
				bw.WriteByte('}')
			}
			fmt.Fprintf(bw, " %d\n", s.value)
		}
	}
	return bw.Flush()
}

// summarySamples renders one histogram snapshot as summary samples with
// the given base labels.
func summarySamples(base []labelPair, s HistogramSnapshot) []sample {
	q := func(v string) []labelPair {
		return append(append([]labelPair(nil), base...), labelPair{"quantile", v})
	}
	return []sample{
		{labels: q("0.5"), value: s.P50},
		{labels: q("0.95"), value: s.P95},
		{labels: q("0.99"), value: s.P99},
		{suffix: "_sum", labels: base, value: s.Sum},
		{suffix: "_count", labels: base, value: s.Count},
	}
}

func pairs(names, vals []string) []labelPair {
	out := make([]labelPair, len(names))
	for i := range names {
		out[i] = labelPair{names[i], vals[i]}
	}
	return out
}

// counterFamilyName sanitizes a counter name and guarantees the _total
// sample suffix prom conventions expect.
func counterFamilyName(name string) string {
	n := sanitizeName(name)
	if !strings.HasSuffix(n, "_total") {
		n += "_total"
	}
	return n
}

// sanitizeName maps a dotted registry name onto the prom name alphabet
// [a-zA-Z0-9_:], with a leading underscore if the name starts with a digit.
func sanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// helpFor resolves a family's help text from the metric catalog.
func helpFor(name string) string {
	if d, ok := Describe(name); ok {
		return d.Help
	}
	return ""
}

// escapeHelp escapes a HELP line per the exposition format: backslash and
// newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
