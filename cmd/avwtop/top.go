package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"appvsweb/internal/obs"
)

// The dashboard pipeline is three pure-ish stages so each is testable
// without a terminal: fetch (one GET of the /debug/metrics/series view),
// compute (pick one rate window and the ratios), render (one ANSI frame,
// or one CSV row). The rates are the server-side obs.Recorder's, so
// avwtop holds no history of its own.

// fetchSeries GETs url and decodes the series view.
func fetchSeries(client *http.Client, url string) (obs.SeriesSnapshot, error) {
	var s obs.SeriesSnapshot
	resp, err := client.Get(url)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("decode %s: %w", url, err)
	}
	return s, nil
}

// encRate is one row of the per-encoding PII hit table.
type encRate struct {
	Encoding string
	Total    int64
	Rate     float64 // hits/s over the window
}

// stats is everything one frame shows.
type stats struct {
	At      time.Time // the recorder's latest tick
	Window  string    // server rate window the rates span
	Span    float64   // seconds the rates cover when less than Window, else 0
	Samples int       // recorder ticks held; rates need two

	Requests   int64   // cumulative serve.requests_total
	RPS        float64 // its rate
	P50ns      int64   // serve.request_ns quantiles
	P95ns      int64
	P99ns      int64
	Classes    map[string]int64 // serve.responses.<class> cumulatives
	ErrorRate  float64          // serve.responses.5xx rate
	SSESubs    int64
	CacheHits  int64
	CacheMiss  int64
	HitRatio   float64 // hits / (hits+misses), cumulative
	PII        []encRate
	Goroutines int64
	HeapBytes  int64
	GCCycles   int64
	WatchTrips int64
}

// computeStats derives the frame from one series view, reading rates over
// window. Until the recorder holds two ticks the cumulative columns fill
// and the rates stay zero; until it is as old as the window, Span records
// the shorter time the rates cover.
func computeStats(s obs.SeriesSnapshot, window string) (stats, error) {
	if !slices.Contains(s.Windows, window) {
		return stats{}, fmt.Errorf("server has no %q rate window (has %s)",
			window, strings.Join(s.Windows, ", "))
	}
	c := s.Counters
	st := stats{
		At:      s.At,
		Window:  window,
		Samples: s.Samples,
		Classes: make(map[string]int64),
	}
	if d, err := time.ParseDuration(window); err == nil && s.WindowSpanS[window] < d.Seconds() {
		st.Span = s.WindowSpanS[window] // 0 before the second tick
	}
	st.Requests = c["serve.requests_total"].Value
	st.RPS = c["serve.requests_total"].Rates[window]
	st.ErrorRate = c["serve.responses.5xx"].Rates[window]
	for _, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		st.Classes[class] = c["serve.responses."+class].Value
	}
	if h, ok := s.Histograms["serve.request_ns"]; ok {
		st.P50ns, st.P95ns, st.P99ns = h.P50, h.P95, h.P99
	}
	st.SSESubs = s.Gauges["serve.sse_subscribers"]
	st.CacheHits = c["analysis.cache_hits_total"].Value
	st.CacheMiss = c["analysis.cache_misses_total"].Value
	if total := st.CacheHits + st.CacheMiss; total > 0 {
		st.HitRatio = float64(st.CacheHits) / float64(total)
	}
	const piiPrefix = "pii.match.hits."
	for name, cs := range c {
		if enc, ok := strings.CutPrefix(name, piiPrefix); ok {
			st.PII = append(st.PII, encRate{
				Encoding: enc, Total: cs.Value, Rate: cs.Rates[window],
			})
		}
	}
	sort.Slice(st.PII, func(i, j int) bool {
		if st.PII[i].Total != st.PII[j].Total {
			return st.PII[i].Total > st.PII[j].Total
		}
		return st.PII[i].Encoding < st.PII[j].Encoding
	})
	st.Goroutines = s.Gauges["runtime.goroutines"]
	st.HeapBytes = s.Gauges["runtime.heap_bytes"]
	st.GCCycles = s.Gauges["runtime.gc_cycles"]
	st.WatchTrips = c["obs.watch.trips_total"].Value
	return st, nil
}

// fmtNS renders a nanosecond latency human-first (µs/ms/s).
func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// fmtBytes renders a byte count in binary units.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

const (
	ansiClear = "\x1b[2J\x1b[H"
	ansiBold  = "\x1b[1m"
	ansiDim   = "\x1b[2m"
	ansiReset = "\x1b[0m"
)

// render writes one dashboard frame. With color=false the frame is plain
// text (the -once / CI mode and the tests).
func render(w io.Writer, url string, st stats, color bool) {
	bold, dim, reset := "", "", ""
	if color {
		bold, dim, reset = ansiBold, ansiDim, ansiReset
	}
	over := ""
	switch {
	case st.Span >= 0.1:
		over = fmt.Sprintf(" over %.1fs", st.Span)
	case st.Span > 0:
		over = fmt.Sprintf(" over %.0fms", st.Span*1000)
	}
	fmt.Fprintf(w, "%savwtop%s — %s — %s %s(%s rates%s, %d ticks)%s\n\n",
		bold, reset, url, st.At.Format("15:04:05"), dim, st.Window, over, st.Samples, reset)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%srequests%s\t%.1f req/s\ttotal %d\t5xx %.2f/s\n",
		bold, reset, st.RPS, st.Requests, st.ErrorRate)
	fmt.Fprintf(tw, "%slatency%s\tp50 %s\tp95 %s\tp99 %s\n",
		bold, reset, fmtNS(st.P50ns), fmtNS(st.P95ns), fmtNS(st.P99ns))
	fmt.Fprintf(tw, "%scache%s\thit ratio %.1f%%\thits %d\tmisses %d\n",
		bold, reset, st.HitRatio*100, st.CacheHits, st.CacheMiss)
	fmt.Fprintf(tw, "%sresponses%s\t2xx %d\t3xx %d\t4xx %d / 5xx %d\n",
		bold, reset, st.Classes["2xx"], st.Classes["3xx"], st.Classes["4xx"], st.Classes["5xx"])
	fmt.Fprintf(tw, "%ssse%s\tsubscribers %d\t\t\n", bold, reset, st.SSESubs)
	fmt.Fprintf(tw, "%sruntime%s\tgoroutines %d\theap %s\tgc %d\n",
		bold, reset, st.Goroutines, fmtBytes(st.HeapBytes), st.GCCycles)
	if st.WatchTrips > 0 {
		fmt.Fprintf(tw, "%swatches%s\ttrips %d\t\t\n", bold, reset, st.WatchTrips)
	}
	tw.Flush()

	if len(st.PII) > 0 {
		fmt.Fprintf(w, "\n%spii hits by encoding%s\n", bold, reset)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, e := range st.PII {
			fmt.Fprintf(tw, "  %s\t%d\t%.2f/s\n", e.Encoding, e.Total, e.Rate)
		}
		tw.Flush()
	}
}

// csvHeader/csvRow are the -csv recorder schema: one row per refresh.
func csvHeader() string {
	return "time,rps,p50_ns,p95_ns,p99_ns,err_5xx_per_s,cache_hit_ratio,sse_subscribers,goroutines,heap_bytes"
}

func csvRow(st stats) string {
	return fmt.Sprintf("%s,%.3f,%d,%d,%d,%.3f,%.4f,%d,%d,%d",
		st.At.Format(time.RFC3339), st.RPS, st.P50ns, st.P95ns, st.P99ns,
		st.ErrorRate, st.HitRatio, st.SSESubs, st.Goroutines, st.HeapBytes)
}
