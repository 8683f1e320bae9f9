// Command avwserve is the multi-campaign report server: it hosts the
// paper's interactive recommendation site (the local equivalent of
// https://recon.meddle.mobi/appvsweb/) and serves every evaluation
// artifact — the full report, Tables 1–3, Figure 1a–f panels as CSV and
// SVG, the cross-service survey, the paper-calibration diff — over HTTP,
// for any number of datasets at once.
//
// Artifacts are computed by the memoized analysis engine
// (internal/analysis.Engine, docs/serving.md): each is cached under a
// fingerprint of the dataset content it reads, so a warm fetch does no
// recomputation and responses carry strong ETags that stay valid across
// restarts. A live campaign can be attached with -live: the server tails
// its crash-safe journal, folds completed experiments into a partial
// dataset as they land, and serves the in-progress results at /live while
// invalidating only the artifacts each fold actually changes.
//
// Alongside the app it exposes the observability surface of internal/obs:
// the metrics in Prometheus text format at /debug/metrics, the windowed
// time-series view at /debug/metrics/series (a Recorder self-scrapes the
// registry every second — this is what avwtop and the built-in SLO
// watches consume), and the runtime profiler at /debug/pprof/. The
// server uses a ReadHeaderTimeout so idle
// clients cannot pin connections open, and shuts down gracefully on
// SIGINT/SIGTERM, draining in-flight requests for up to the -grace period.
//
// Two features push it past one process and one connection. With -store
// the engine mirrors every computed artifact into a persistent
// content-addressed store, so a restarted server — or a second replica
// sharing the directory — rehydrates instead of recomputing. And
// /api/{ds}/events is an SSE push channel: clients subscribe once and are
// told exactly which artifacts a live fold invalidated, instead of
// polling /live.
//
// Usage:
//
//	avwserve -dataset dataset.json                       # one campaign
//	avwserve -dataset baseline=old.json -dataset adblock=new.json
//	avwserve -dataset done=prev.json -live now=run.journal -scale 0.5
//	avwserve -dataset dataset.json -store /var/lib/avw/artifacts -warm
//	open http://127.0.0.1:8787/?os=android&weights=L=3,UID=5
//	curl  http://127.0.0.1:8787/api/datasets
//	curl  http://127.0.0.1:8787/api/default/artifact/table1
//	curl  http://127.0.0.1:8787/api/default/artifact/figure-1a.svg
//	curl  -N http://127.0.0.1:8787/api/default/events
//	curl  http://127.0.0.1:8787/live
//	curl  http://127.0.0.1:8787/debug/metrics
//
// Flags:
//
//	-dataset [name=]path  dataset produced by avwrun; repeatable. A bare
//	                      path gets the name "default".
//	-live [name=]path     campaign journal to tail live; repeatable. A
//	                      bare path gets the name "live".
//	-store dir            persistent artifact store: computed artifacts of
//	                      static datasets are mirrored here and rehydrated
//	                      (SHA-256-verified) across restarts
//	-scale fraction       catalog scale recorded for -live partial
//	                      datasets (match the campaign's -scale)
//	-interval duration    journal polling cadence for -live (default 500ms)
//	-warm                 precompute all artifacts for every static
//	                      dataset before listening, in parallel
//	                      (cold-start latency moves to boot)
//	-addr host:port       listen address (default 127.0.0.1:8787)
//	-grace duration       shutdown drain period (default 5s)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"appvsweb/internal/analysis"
	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/serve"
)

// namedPath is one [name=]path flag value.
type namedPath struct{ name, path string }

// parseNamed splits "name=path" (or a bare path, which gets fallback) and
// rejects duplicate names across both flag families.
func parseNamed(v, fallback string, seen map[string]bool) (namedPath, error) {
	np := namedPath{name: fallback, path: v}
	if i := strings.IndexByte(v, '='); i >= 0 {
		np.name, np.path = v[:i], v[i+1:]
	}
	if np.name == "" || np.path == "" {
		return np, fmt.Errorf("want [name=]path, got %q", v)
	}
	if strings.ContainsAny(np.name, "/ ") {
		return np, fmt.Errorf("dataset name %q may not contain '/' or spaces", np.name)
	}
	if seen[np.name] {
		return np, fmt.Errorf("duplicate dataset name %q", np.name)
	}
	seen[np.name] = true
	return np, nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8787", "listen address")
		grace    = flag.Duration("grace", 5*time.Second, "graceful-shutdown drain period")
		scale    = flag.Float64("scale", 1, "catalog scale recorded for -live partial datasets")
		interval = flag.Duration("interval", 500*time.Millisecond, "journal polling cadence for -live")
		warm     = flag.Bool("warm", false, "precompute all artifacts for static datasets before listening")
		storeDir = flag.String("store", "", "persistent artifact store directory (rehydrated across restarts)")
	)
	var datasets, lives []namedPath
	seen := make(map[string]bool)
	flag.Func("dataset", "[name=]path of a dataset produced by avwrun (repeatable)", func(v string) error {
		np, err := parseNamed(v, "default", seen)
		if err == nil {
			datasets = append(datasets, np)
		}
		return err
	})
	flag.Func("live", "[name=]path of a campaign journal to tail live (repeatable)", func(v string) error {
		np, err := parseNamed(v, "live", seen)
		if err == nil {
			lives = append(lives, np)
		}
		return err
	})
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, "avwserve", "", slog.LevelInfo)

	if len(datasets) == 0 && len(lives) == 0 {
		datasets = append(datasets, namedPath{name: "default", path: "dataset.json"})
	}

	opts := analysis.EngineOptions{Metrics: obs.Default}
	if *storeDir != "" {
		st, err := analysis.OpenStore(*storeDir)
		if err != nil {
			logger.Error("open store", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		opts.Store = st
		logger.Info("artifact store attached", "dir", *storeDir)
	}
	eng := analysis.NewEngine(opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var primary *core.Dataset
	var warming []*analysis.Handle
	for _, np := range datasets {
		ds, err := core.Load(np.path)
		if err != nil {
			logger.Error("load dataset", "name", np.name, "path", np.path, "err", err)
			os.Exit(1)
		}
		h := eng.Register(np.name, ds)
		if primary == nil {
			primary = ds
		}
		warming = append(warming, h)
		logger.Info("dataset registered", "name", np.name, "path", np.path,
			"experiments", len(ds.Results))
	}
	if *warm && len(warming) > 0 {
		// All datasets warm concurrently, and each ComputeAll fans its 23
		// artifacts across the engine's worker pool — with -store attached
		// the warmup is mostly rehydration reads on a second boot. Blocking
		// here is the point: once the listener opens, every artifact is a
		// cache hit.
		start := time.Now()
		var wg sync.WaitGroup
		for _, h := range warming {
			wg.Add(1)
			go func(h *analysis.Handle) {
				defer wg.Done()
				if _, err := h.ComputeAll(ctx); err != nil {
					logger.Error("warm", "dataset", h.Name(), "err", err)
				}
			}(h)
		}
		wg.Wait()
		logger.Info("warm complete", "datasets", len(warming),
			"artifacts", len(warming)*len(analysis.ArtifactIDs()),
			"elapsed", time.Since(start))
	}
	for _, np := range lives {
		tail := eng.TailJournal(np.name, np.path, analysis.LiveOptions{
			Scale: *scale, Interval: *interval,
		})
		// Fold whatever the journal already holds before serving.
		if _, err := tail.Poll(); err != nil {
			logger.Warn("initial journal poll", "name", np.name, "path", np.path, "err", err)
		}
		go tail.Run(ctx)
		logger.Info("live journal attached", "name", np.name, "path", np.path,
			"experiments", len(tail.Handle().Dataset().Results), "interval", *interval)
	}

	// The recorder makes /debug/metrics/series live and keeps the
	// runtime.* gauges fresh for avwtop; the watches surface SLO burn in
	// the server's own log without any scrape infrastructure.
	rec := obs.NewRecorder(obs.Default, obs.RecorderOptions{
		Logger: logger,
		Watches: []obs.Watch{
			{Name: "serve-5xx-rate", Rate: "serve.responses.5xx", Window: time.Minute, Threshold: 1},
			{Name: "serve-p99-latency", Quantile: "serve.request_ns", Q: "p99", Threshold: float64(250 * time.Millisecond)},
		},
	})
	go rec.Run(ctx)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewMux(eng, primary, obs.Default, logger, serve.Config{}),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "url", "http://"+*addr+"/",
		"datasets", len(datasets), "live", len(lives),
		"artifacts", "/api/datasets", "metrics", "/debug/metrics")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("serve", "err", err)
		os.Exit(1)
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "grace", *grace)
		cancel() // stop live tails
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
			os.Exit(1)
		}
	}
}
