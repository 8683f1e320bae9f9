// Package serve is the HTTP layer of the report server: the routing
// surface, artifact handlers with ETag/304 revalidation, the live partial
// view, and the SSE invalidation push channel, all over an
// analysis.Engine. cmd/avwserve wires it to flags and process lifecycle;
// cmd/avwbench mounts the same mux in-process to load-test it without a
// network hop's worth of setup drift between "what we bench" and "what we
// ship". Endpoints, cache semantics, and the SSE event schema are
// documented in docs/serving.md.
package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"appvsweb/internal/analysis"
	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/recommend"
)

// Config tunes the handler layer.
type Config struct {
	// Heartbeat is the SSE keepalive-comment cadence — frequent enough
	// that idle proxies don't reap the connection. Default 15s.
	Heartbeat time.Duration
}

// NewMux builds the full routing surface of the report server over an
// artifact engine. primary, when non-nil, is the dataset the interactive
// recommendation app at "/" scores (the first static -dataset).
func NewMux(eng *analysis.Engine, primary *core.Dataset, reg *obs.Registry, logger *slog.Logger, cfg Config) *http.ServeMux {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	mux := http.NewServeMux()
	s := &server{
		eng: eng, reg: reg, logger: logger, cfg: cfg,
		sseSubscribers: reg.Gauge("serve.sse_subscribers"),
		sseConnects:    reg.Counter("serve.sse_connects_total"),
		sseEvents:      reg.Counter("serve.sse_events_total"),
		sseEvicted:     reg.Counter("serve.sse_evicted_total"),
	}

	mux.Handle("GET /api/datasets", s.instrument(http.HandlerFunc(s.handleDatasets)))
	mux.Handle("GET /api/{ds}/artifacts", s.instrument(http.HandlerFunc(s.handleArtifactIndex)))
	mux.Handle("GET /api/{ds}/artifact/{id}", s.instrument(http.HandlerFunc(s.handleArtifact)))
	// The SSE stream is deliberately outside the latency middleware: a
	// subscription lives for minutes, and folding those durations into
	// serve.request_ns would bury the artifact latencies the histogram is
	// for. It has its own serve.sse_* instrumentation.
	mux.Handle("GET /api/{ds}/events", http.HandlerFunc(s.handleEvents))
	mux.Handle("GET /live", s.instrument(http.HandlerFunc(s.handleLiveIndex)))
	mux.Handle("GET /live/{ds}", s.instrument(http.HandlerFunc(s.handleLive)))
	mux.Handle("/debug/", obs.DebugMux(reg))
	if primary != nil {
		mux.Handle("/", s.instrument(recommend.NewHandler(primary)))
	} else {
		mux.Handle("/", s.instrument(http.HandlerFunc(s.handleIndex)))
	}
	return mux
}

type server struct {
	eng    *analysis.Engine
	reg    *obs.Registry
	logger *slog.Logger
	cfg    Config

	sseSubscribers *obs.Gauge
	sseConnects    *obs.Counter
	sseEvents      *obs.Counter
	sseEvicted     *obs.Counter
}

// instrument wraps a handler with request counting, latency recording,
// and a status-class breakdown (serve.requests_total, serve.request_ns,
// and the serve.responses family in docs/metrics.md). The per-class
// counters are resolved once here, so the per-request cost beyond the
// legacy middleware is one small wrapper alloc and one atomic add.
func (s *server) instrument(next http.Handler) http.Handler {
	requests := s.reg.Counter("serve.requests_total")
	latency := s.reg.Histogram("serve.request_ns", "ns")
	responses := s.reg.CounterVec("serve.responses", "class")
	classes := [4]*obs.Counter{
		responses.WithLabelValues("2xx"),
		responses.WithLabelValues("3xx"),
		responses.WithLabelValues("4xx"),
		responses.WithLabelValues("5xx"),
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		sw := &statusWriter{ResponseWriter: w}
		sp := latency.Span()
		next.ServeHTTP(sw, r)
		sp.End()
		st := sw.status
		if st == 0 {
			st = http.StatusOK // handler returned without writing: implicit 200
		}
		if i := st/100 - 2; i >= 0 && i < len(classes) {
			classes[i].Inc()
		}
	})
}

// statusWriter captures the response status for the class breakdown. An
// unset status means the handler wrote a body (or nothing) without
// WriteHeader — an implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// DatasetInfo is one row of the /api/datasets listing.
type DatasetInfo struct {
	Name        string  `json:"name"`
	Live        bool    `json:"live"`
	Generation  uint64  `json:"generation"`
	Scale       float64 `json:"scale"`
	Experiments int     `json:"experiments"`
	Excluded    int     `json:"excluded"`
	Artifacts   int     `json:"artifacts"`
}

func (s *server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	var out []DatasetInfo
	for _, h := range s.eng.Handles() {
		stats := h.Dataset().Stats()
		out = append(out, DatasetInfo{
			Name: h.Name(), Live: h.Live(), Generation: h.Generation(),
			Scale: h.Dataset().Meta.Scale, Experiments: stats.Experiments,
			Excluded: stats.Excluded, Artifacts: len(analysis.ArtifactIDs()),
		})
	}
	writeJSON(w, out)
}

func (s *server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"endpoints": []string{
			"/api/datasets",
			"/api/{dataset}/artifacts",
			"/api/{dataset}/artifact/{id}",
			"/api/{dataset}/events",
			"/live",
			"/debug/metrics",
		},
	})
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*analysis.Handle, bool) {
	name := r.PathValue("ds")
	h, ok := s.eng.Lookup(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown dataset %q", name), http.StatusNotFound)
	}
	return h, ok
}

// ArtifactInfo is one row of the per-dataset artifact index.
type ArtifactInfo struct {
	ID          string `json:"id"`
	ContentType string `json:"content_type"`
	URL         string `json:"url"`
}

func (s *server) handleArtifactIndex(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var out []ArtifactInfo
	for _, id := range analysis.ArtifactIDs() {
		ct, _ := analysis.ArtifactContentType(id)
		out = append(out, ArtifactInfo{ID: id, ContentType: ct,
			URL: "/api/" + h.Name() + "/artifact/" + id})
	}
	writeJSON(w, out)
}

func (s *server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	art, err := h.Artifact(r.Context(), r.PathValue("id"))
	if err != nil {
		if strings.Contains(err.Error(), "unknown artifact") {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		s.logger.Error("artifact", "dataset", h.Name(), "id", r.PathValue("id"), "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// The ETag is a strong validator derived from the dataset
	// fingerprint: it survives server restarts, so a client cache stays
	// valid for as long as the content itself does. Live datasets must
	// revalidate every time (the next fold may change them); static ones
	// may be reused briefly without a round trip.
	w.Header().Set("ETag", art.ETag)
	if h.Live() {
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Cache-Control", "public, max-age=60, must-revalidate")
	}
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, art.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", art.ContentType)
	w.Write(art.Bytes)
}

// etagMatches implements If-None-Match for strong validators: "*" or any
// listed tag.
func etagMatches(header, etag string) bool {
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if strings.TrimSpace(part) == etag {
			return true
		}
	}
	return false
}

func (s *server) handleLiveIndex(w http.ResponseWriter, r *http.Request) {
	for _, h := range s.eng.Handles() {
		if h.Live() {
			http.Redirect(w, r, "/live/"+h.Name(), http.StatusFound)
			return
		}
	}
	http.Error(w, "no live campaign attached (start avwserve with -live name=journal)", http.StatusNotFound)
}

// handleLive serves the partial results of an in-flight campaign: a status
// header (generation, experiments folded so far) followed by the report
// artifact computed from everything the journal tail has seen. Clients
// that want to know *when* to refetch should subscribe to
// /api/{ds}/events instead of polling this view.
func (s *server) handleLive(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !h.Live() {
		http.Error(w, fmt.Sprintf("dataset %q is not live", h.Name()), http.StatusNotFound)
		return
	}
	art, err := h.Artifact(r.Context(), "report")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	stats := h.Dataset().Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("ETag", art.ETag)
	fmt.Fprintf(w, "live campaign %q — generation %d, %d experiment(s) folded (%d excluded), %d skipped\n\n",
		h.Name(), h.Generation(), stats.Experiments, stats.Excluded, len(h.Dataset().Meta.Failures))
	w.Write(art.Bytes)
}
