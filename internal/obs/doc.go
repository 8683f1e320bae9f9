// Package obs is the campaign observability layer: lock-free counters and
// gauges, fixed log-bucket streaming histograms with quantile estimation,
// span timers for stage timing, labeled metric families, and a
// process-wide Registry with two export surfaces — Prometheus text
// exposition (format 0.0.4, # HELP lines from the in-code catalog in
// desc.go) at /debug/metrics, and the windowed time-series view (JSON) at
// /debug/metrics/series backed by a self-scraping Recorder.
//
// Metrics that vary along a dimension are vec families (CounterVec,
// GaugeVec, HistogramVec): a fixed ordered label set, one series per
// label tuple, per-family cardinality bounded by collapsing overflow
// tuples into a shared "other" series. In a Snapshot (and so in the
// series view and Watch rules) each series folds to a flat dotted name
// (pii.match.hits.md5, stage.session_ns); the text exposition renders
// real label pairs.
//
// The instrumented hot paths — internal/proxy (flows, bytes, TLS-intercept
// failures), internal/pii (match attempts and per-encoding hits),
// internal/recon (training/evaluation durations), and internal/core
// (per-experiment and per-stage spans) — all record into the Default
// registry unless a caller injects its own, so one snapshot describes a
// whole campaign regardless of how many proxies and sessions it spawned.
//
// All write paths are wait-free after the first lookup: a Counter or Gauge
// is a single atomic integer, and a Histogram is a fixed array of atomic
// bucket counts (log-linear buckets, 32 sub-buckets per octave, worst-case
// relative error under 2%). Callers on hot paths should resolve the metric
// pointer once — for vec families, resolve the series with
// WithLabelValues once — and reuse it; Registry lookups take a read lock
// only.
//
// A Recorder (one per process, attached by the cmd binaries) snapshots
// the registry on a ticker into a bounded ring, samples the Go runtime
// into runtime.* gauges, serves per-window rates ("what is the leak rate
// right now"), and evaluates Watch threshold rules — counter rate, gauge
// level, or histogram quantile against a bound — logging one structured
// warning per trip transition. cmd/avwtop is the terminal client of the
// series view.
//
// Two clocks coexist in this codebase: sessions run on the virtual clock
// (internal/vclock), which makes four-minute sessions complete in
// milliseconds, while obs spans always measure real wall time — they
// answer "where does the hardware spend its time", not "what does the
// simulated timeline say". Metric names, units, and the export formats are
// documented in docs/metrics.md.
package obs
