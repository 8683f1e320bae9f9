// Command avwbench load-tests the report server: it replays a realistic
// artifact request mix — zipfian over artifact popularity, uniform across
// datasets, with configurable If-None-Match conditional reuse — against
// the /api/* surface and reports throughput, exact latency quantiles, the
// 304 revalidation ratio, and the error count as JSON.
//
// By default it is self-contained: it loads the given datasets, mounts
// the production mux (internal/serve — the same handler avwserve ships)
// on a loopback listener, and drives it over real HTTP. Point -url at a
// running avwserve instead to bench a live deployment; the dataset and
// artifact mix are then discovered from /api/datasets and
// /api/{ds}/artifacts.
//
// Two load disciplines are available (docs/load-testing.md discusses when
// each answers the right question):
//
//	-mode closed   N workers issue back-to-back requests; measures capacity
//	-mode open     arrivals at -rate req/s regardless of server speed;
//	               latency includes queue wait, overload shows up as
//	               dropped_arrivals instead of flattering the schedule
//
// A run is an unmeasured warm phase (-warmup: fills the server's artifact
// cache and the workers' ETag memory) followed by the measured phase
// (-duration). Set -warmup 0 to bench the cold path.
//
// With -bench the run also emits a benchcheck-compatible test2json stream
// (BenchmarkServeWallPerRequest, BenchmarkServeLatencyP50/P95/P99), which
// is how the serve gate in bench_gates.json compares a run against its
// committed baseline (go run ./cmd/benchcheck serve). The run gates itself with -min-304 and
// -max-error-rate, so a broken revalidation path or error storm fails
// even when throughput looks fine.
//
// Usage:
//
//	avwbench -dataset dataset.json -c 8 -duration 10s
//	avwbench -dataset a=one.json -dataset b=two.json -mode open -rate 500
//	avwbench -url http://127.0.0.1:8787 -revalidate 0.9 -min-304 0.3
//	avwbench -dataset dataset.json -store /tmp/avw-store -warmup 0
//
// Flags:
//
//	-url base             bench a running server instead of self-serving
//	-dataset [name=]path  dataset to self-serve (repeatable); defaults to
//	                      dataset.json when -url is empty
//	-store dir            self-serve: attach a persistent artifact store
//	-mode closed|open     load discipline (default closed)
//	-c n                  workers / max in-flight requests (default 8)
//	-rate r               open-loop arrivals per second
//	-duration d           measured phase (default 10s)
//	-warmup d             unmeasured warm phase (default 2s)
//	-zipf s               artifact popularity zipf exponent, > 1 (default 1.2)
//	-revalidate f         fraction of repeat requests sent conditionally
//	                      with If-None-Match (default 0.5)
//	-seed n               RNG seed; same seed, same request schedule
//	-bench path           also write a benchcheck test2json stream here
//	-min-304 f            fail unless not_modified_ratio >= f (default 0: off)
//	-max-error-rate f     fail if error_rate > f (default 0: any error fails)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"appvsweb/internal/analysis"
	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/serve"
)

func main() {
	var (
		url        = flag.String("url", "", "base URL of a running avwserve (empty: self-serve the -dataset files)")
		storeDir   = flag.String("store", "", "self-serve: persistent artifact store directory")
		mode       = flag.String("mode", "closed", "load discipline: closed or open")
		conc       = flag.Int("c", 8, "workers (closed loop) / max in-flight requests (open loop)")
		rate       = flag.Float64("rate", 0, "open-loop arrivals per second")
		duration   = flag.Duration("duration", 10*time.Second, "measured phase length")
		warmup     = flag.Duration("warmup", 2*time.Second, "unmeasured warm phase length (0 benches the cold path)")
		zipfS      = flag.Float64("zipf", 1.2, "zipf exponent over artifact popularity ranks (> 1)")
		revalidate = flag.Float64("revalidate", 0.5, "fraction of repeat requests sent with If-None-Match")
		seed       = flag.Int64("seed", 1, "RNG seed for the request schedule")
		benchPath  = flag.String("bench", "", "write a benchcheck-compatible test2json stream to this path")
		min304     = flag.Float64("min-304", 0, "fail unless the 304 ratio reaches this fraction (0 disables)")
		maxErrRate = flag.Float64("max-error-rate", 0, "fail when the error rate exceeds this fraction")
	)
	var datasets []string
	flag.Func("dataset", "[name=]path of a dataset to self-serve (repeatable)", func(v string) error {
		datasets = append(datasets, v)
		return nil
	})
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, "avwbench", "", slog.LevelWarn)

	base := strings.TrimRight(*url, "/")
	if base == "" {
		if len(datasets) == 0 {
			datasets = []string{"dataset.json"}
		}
		var stop func()
		var err error
		base, stop, err = selfServe(datasets, *storeDir, logger)
		if err != nil {
			fatalf("%v", err)
		}
		defer stop()
	}

	client := &http.Client{Timeout: 30 * time.Second}
	dsNames, artifacts, err := discover(client, base)
	if err != nil {
		fatalf("discover target mix: %v", err)
	}

	d, err := newDriver(Config{
		BaseURL:     base,
		Datasets:    dsNames,
		Artifacts:   artifacts,
		Mode:        *mode,
		Concurrency: *conc,
		Rate:        *rate,
		Duration:    *duration,
		Warmup:      *warmup,
		ZipfS:       *zipfS,
		Revalidate:  *revalidate,
		Seed:        *seed,
	})
	if err != nil {
		fatalf("%v", err)
	}
	res := d.Run(context.Background())

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(res)

	if *benchPath != "" {
		if err := writeBenchStream(*benchPath, res); err != nil {
			fatalf("write bench stream: %v", err)
		}
	}
	if res.Requests == 0 {
		fatalf("no requests completed in the measured phase")
	}
	if res.ErrorRate > *maxErrRate {
		fatalf("error rate %.4f exceeds -max-error-rate %.4f (%d errors)",
			res.ErrorRate, *maxErrRate, res.Errors)
	}
	if *min304 > 0 && res.NotModRatio < *min304 {
		fatalf("304 ratio %.4f below -min-304 %.4f — conditional revalidation is not working",
			res.NotModRatio, *min304)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "avwbench: "+format+"\n", args...)
	os.Exit(1)
}

// selfServe loads the datasets, mounts the production mux on a loopback
// listener, and returns its base URL plus a shutdown func.
func selfServe(specs []string, storeDir string, logger *slog.Logger) (string, func(), error) {
	opts := analysis.EngineOptions{Metrics: obs.New()}
	if storeDir != "" {
		st, err := analysis.OpenStore(storeDir)
		if err != nil {
			return "", nil, fmt.Errorf("open store: %w", err)
		}
		opts.Store = st
	}
	eng := analysis.NewEngine(opts)
	seen := make(map[string]bool)
	for _, spec := range specs {
		name, path := "default", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
		}
		if name == "" || path == "" || seen[name] {
			return "", nil, fmt.Errorf("bad or duplicate -dataset %q (want [name=]path)", spec)
		}
		seen[name] = true
		ds, err := core.Load(path)
		if err != nil {
			return "", nil, fmt.Errorf("load dataset %s: %w", path, err)
		}
		eng.Register(name, ds)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           serve.NewMux(eng, nil, opts.Metrics, logger, serve.Config{}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// discover asks the target server what to bench: every dataset it hosts
// and the artifact index of the first one (the artifact set is identical
// across datasets). Working through the public API keeps avwbench honest
// against any avwserve, not just an in-process one.
func discover(client *http.Client, base string) (datasets, artifacts []string, err error) {
	var infos []serve.DatasetInfo
	if err := getJSON(client, base+"/api/datasets", &infos); err != nil {
		return nil, nil, err
	}
	for _, in := range infos {
		datasets = append(datasets, in.Name)
	}
	if len(datasets) == 0 {
		return nil, nil, fmt.Errorf("%s hosts no datasets", base)
	}
	var arts []serve.ArtifactInfo
	if err := getJSON(client, base+"/api/"+datasets[0]+"/artifacts", &arts); err != nil {
		return nil, nil, err
	}
	for _, a := range arts {
		artifacts = append(artifacts, a.ID)
	}
	if len(artifacts) == 0 {
		return nil, nil, fmt.Errorf("%s lists no artifacts", base)
	}
	return datasets, artifacts, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
