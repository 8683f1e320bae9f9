// Command avwrun executes the measurement campaign of §3: it boots the
// simulated ecosystem (50 services, their trackers, the OS background
// endpoints), runs every service × {Android, iOS} × {app, Web} experiment
// through the TLS-intercepting proxy, applies the analysis pipeline, and
// writes the resulting dataset as JSON.
//
// Usage:
//
//	avwrun -out dataset.json [-scale 1] [-duration 4m] [-recon]
//	       [-parallelism 8] [-services weathernow,grubexpress]
//	avwrun -progress ...                      # live per-experiment progress
//	                                          # + final stage timing table
//	avwrun -metrics-addr 127.0.0.1:8790 ...   # /debug/metrics + /debug/pprof
//	                                          # while the campaign runs
//	avwrun -trace events.jsonl ...            # stream per-flow trace events;
//	                                          # inspect with avwtrace
//	avwrun -log-json ...                      # structured JSON logs on stderr
//	avwrun -journal run.journal ...           # crash-safe checkpoint, one
//	                                          # fsync'd record per experiment
//	avwrun -resume run.journal ...            # continue a killed campaign
//	avwrun -experiment-timeout 2m -fail-policy retry-then-skip -retries 3 ...
//	                                          # per-experiment deadline, retry
//	                                          # with backoff, then degrade to
//	                                          # an excluded cell (see
//	                                          # docs/robustness.md)
//	avwrun -shards 3 -shard-dir run.shards ...
//	                                          # distribute the campaign across
//	                                          # 3 workers with per-shard
//	                                          # journals, heartbeat leases, and
//	                                          # a deterministic merge (see
//	                                          # docs/distributed.md); add
//	                                          # -shard-exec for subprocess
//	                                          # workers
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"appvsweb/internal/analysis"
	"appvsweb/internal/core"
	"appvsweb/internal/easylist"
	"appvsweb/internal/obs"
	"appvsweb/internal/obs/trace"
	"appvsweb/internal/pii"
	"appvsweb/internal/proxy"
	"appvsweb/internal/services"
	"appvsweb/internal/shard"
)

func main() {
	var (
		out         = flag.String("out", "dataset.json", "output dataset path")
		scale       = flag.Float64("scale", 1, "session repeat scale (1 = paper-scale sessions)")
		duration    = flag.Duration("duration", 4*time.Minute, "virtual session length")
		recon       = flag.Bool("recon", false, "train the ReCon classifier and annotate leak provenance")
		parallelism = flag.Int("parallelism", 0, "concurrent experiments (0 = auto)")
		subset      = flag.String("services", "", "comma-separated service keys (default: all 50)")
		report      = flag.Bool("report", true, "print the evaluation report after the run")
		protect     = flag.Bool("protect", false, "enable the ReCon-style PII-redacting protection mode")
		inline      = flag.String("inline", "", "inline streaming PII gateway action: log, redact, or block")
		adblock     = flag.Bool("adblock", false, "equip browser sessions with the bundled EasyList")
		traceDir    = flag.String("traces", "", "directory for per-experiment flow traces (JSONL)")
		selection   = flag.Bool("selection", false, "print the §3.1 store-crawl selection audit and exit")
		deny        = flag.String("deny", "", "deny app permissions for these PII classes (e.g. L,UID)")
		progress    = flag.Bool("progress", false, "print live per-experiment progress and a final stage timing table")
		metricsAddr = flag.String("metrics-addr", "", "serve /debug/metrics and /debug/pprof/ on this address during the run")
		tracePath   = flag.String("trace", "", "stream campaign trace events to this JSONL file (inspect with avwtrace)")
		logJSON     = flag.Bool("log-json", false, "emit structured JSON logs (slog) on stderr, trace-ID-correlated")
		journalPath = flag.String("journal", "", "write a crash-safe campaign journal (JSONL, fsync'd per experiment)")
		resumePath  = flag.String("resume", "", "resume a killed campaign from its journal (continues appending to it)")
		expTimeout  = flag.Duration("experiment-timeout", 0, "wall-clock deadline per experiment attempt (0 = none)")
		failPolicy  = flag.String("fail-policy", "abort", "failed-experiment policy: abort, skip, or retry-then-skip")
		retries     = flag.Int("retries", 0, "max retries per experiment on transient failures (retry-then-skip defaults to 2)")
		shards      = flag.Int("shards", 0, "split the campaign across N shard workers with per-shard journals and a deterministic merge (0 = single-process; docs/distributed.md)")
		shardDir    = flag.String("shard-dir", "", "directory for per-shard journals (default: <out>.shards)")
		shardExec   = flag.Bool("shard-exec", false, "launch shard workers as avwrun subprocesses instead of in-process goroutine pools")
		shardLease  = flag.Duration("shard-lease", time.Minute, "heartbeat lease: a worker silent this long is killed and its shard reassigned")
		shardWorker = flag.Int("shard-worker", -1, "internal: run as shard worker k of -shards and exit (stdout lines are heartbeats)")
	)
	flag.Parse()
	if err := (runFlags{
		scale:       *scale,
		duration:    *duration,
		recon:       *recon,
		shards:      *shards,
		shardWorker: *shardWorker,
		journal:     *journalPath,
		resume:      *resumePath,
	}).validate(); err != nil {
		fatalf("%v", err)
	}

	var tracer *trace.Tracer
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("trace file: %v", err)
		}
		traceFile = f
		tracer = trace.New(trace.Options{W: f})
	}
	logger := obs.NopLogger()
	if *logJSON {
		logger = obs.NewLogger(os.Stderr, "avwrun", tracer.TraceID(), slog.LevelDebug)
	}

	if *metricsAddr != "" {
		srv := &http.Server{
			Addr:              *metricsAddr,
			Handler:           obs.DebugMux(obs.Default),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "avwrun: metrics server: %v\n", err)
			}
		}()
		// A recorder alongside the snapshot endpoint: /debug/metrics/series
		// answers "how fast is the campaign moving right now", which is what
		// avwtop pointed at a running campaign shows.
		go obs.NewRecorder(obs.Default, obs.RecorderOptions{Logger: logger}).Run(context.Background())
		fmt.Fprintf(os.Stderr, "metrics on http://%s/debug/metrics\n", *metricsAddr)
	}

	if *selection {
		printSelectionAudit()
		return
	}

	catalog := services.Catalog()
	if *subset != "" {
		want := make(map[string]bool)
		for _, k := range strings.Split(*subset, ",") {
			want[strings.TrimSpace(k)] = true
		}
		var filtered []*services.Spec
		for _, s := range catalog {
			if want[s.Key] {
				filtered = append(filtered, s)
				delete(want, s.Key)
			}
		}
		for k := range want {
			fatalf("unknown service %q", k)
		}
		catalog = filtered
	}

	fmt.Fprintf(os.Stderr, "starting ecosystem: %d services, %d A&A orgs...\n",
		len(catalog), len(easylist.AllAANames()))
	eco, err := services.Start(catalog)
	if err != nil {
		fatalf("start ecosystem: %v", err)
	}
	defer eco.Close()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatalf("trace dir: %v", err)
		}
	}
	var denied pii.TypeSet
	for _, part := range strings.Split(*deny, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		t, err := pii.ParseType(part)
		if err != nil {
			fatalf("-deny: %v", err)
		}
		denied = denied.Add(t)
	}
	policy, err := core.ParseFailurePolicy(*failPolicy)
	if err != nil {
		fatalf("-fail-policy: %v", err)
	}
	if _, err := proxy.ParseInlineAction(*inline); err != nil {
		fatalf("-inline: %v", err)
	}
	opts := core.Options{
		Scale:             *scale,
		Duration:          *duration,
		Parallelism:       *parallelism,
		TrainRecon:        *recon,
		Protect:           *protect,
		Inline:            *inline,
		BrowserAdblock:    *adblock,
		TraceDir:          *traceDir,
		DenyPermissions:   denied,
		Tracer:            tracer,
		Logger:            logger,
		ExperimentTimeout: *expTimeout,
		FailurePolicy:     policy,
		Retry:             core.RetryPolicy{Max: *retries},
	}
	if *progress {
		opts.OnProgress = printProgress
	}
	if *shards > 0 || *shardWorker >= 0 {
		runSharded(eco, catalog, opts, shardedConfig{
			shards:    *shards,
			dir:       *shardDir,
			exec:      *shardExec,
			lease:     *shardLease,
			worker:    *shardWorker,
			out:       *out,
			report:    *report,
			startedAt: time.Now(),
		})
		return
	}
	journalFile := *journalPath
	if *resumePath != "" {
		journalFile = *resumePath
		set, err := core.LoadJournal(*resumePath)
		if err != nil {
			fatalf("%v", err)
		}
		opts.Resume = set
		fmt.Fprintf(os.Stderr, "resuming: %d experiments already journaled in %s\n", set.Len(), *resumePath)
	}
	if journalFile != "" {
		j, err := core.CreateJournal(journalFile)
		if err != nil {
			fatalf("%v", err)
		}
		defer j.Close()
		opts.Journal = j
	}
	runner, err := core.NewRunner(eco, opts)
	if err != nil {
		fatalf("runner: %v", err)
	}

	start := time.Now()
	ds, err := runner.RunCampaign()
	if err != nil {
		// The partial dataset survives the failure: save it so the
		// completed experiments (and the journal) are not lost.
		if ds != nil && len(ds.Results) > 0 {
			fmt.Fprintf(os.Stderr, "avwrun: campaign: %v\n", err)
			fmt.Fprintf(os.Stderr, "saving partial dataset (%d completed experiments)\n", len(ds.Results))
			if serr := ds.Save(*out); serr != nil {
				fatalf("save partial: %v", serr)
			}
			if journalFile != "" {
				fmt.Fprintf(os.Stderr, "resume with: avwrun -resume %s\n", journalFile)
			}
			os.Exit(1)
		}
		fatalf("campaign: %v", err)
	}
	fmt.Fprintf(os.Stderr, "campaign complete: %d experiments in %v\n",
		len(ds.Results), time.Since(start).Round(time.Millisecond))
	for _, f := range ds.Meta.Failures {
		fmt.Fprintf(os.Stderr, "skipped %s/%s/%s after %d attempt(s) at stage %s: %s\n",
			f.Service, f.OS, f.Medium, f.Attempts, f.Stage, f.Error)
	}
	if n := len(ds.Meta.StaleResume); n > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d resume-journal record(s) match no experiment in this campaign (stale journal?); ignored: %s\n",
			n, strings.Join(ds.Meta.StaleResume, ", "))
	}
	if *progress {
		printTimingTable()
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fatalf("trace write: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fatalf("trace file: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace %s: %d events written to %s\n",
			tracer.TraceID(), tracer.Total(), *tracePath)
	}

	if err := ds.Save(*out); err != nil {
		fatalf("save: %v", err)
	}
	fmt.Fprintf(os.Stderr, "dataset written to %s\n", *out)

	if *report {
		fmt.Println(analysis.Report(ds))
	}
}

// runFlags are the flag values whose combinations avwrun checks before
// it starts anything.
type runFlags struct {
	scale           float64
	duration        time.Duration
	recon           bool
	shards          int
	shardWorker     int
	journal, resume string
}

// validate rejects values and combinations a run cannot honour, so that
// single-process and sharded runs record the same Meta and no requested
// output goes silently missing.
func (f runFlags) validate() error {
	sharded := f.shards > 0 || f.shardWorker >= 0
	switch {
	case f.scale <= 0:
		return fmt.Errorf("-scale must be positive, got %v", f.scale)
	case f.duration <= 0:
		return fmt.Errorf("-duration must be positive, got %v", f.duration)
	case f.shardWorker >= 0 && f.shards < 1:
		return errors.New("-shard-worker requires -shards")
	case sharded && (f.journal != "" || f.resume != ""):
		return errors.New("-shards keeps one journal per shard under -shard-dir; drop -journal/-resume (rerunning with the same -shard-dir resumes)")
	case sharded && f.recon:
		// Each shard worker trains on its own slice and the merged
		// journals carry no ReCon results.
		return errors.New("-recon trains one classifier over the whole campaign in one process; drop -shards for a ReCon report")
	case f.resume != "" && f.recon:
		// Resumed experiments come from the journal, without the flows
		// the classifier trains on.
		return errors.New("-recon needs every experiment measured in this process; drop -resume (rerun without it) for a ReCon report")
	case f.resume != "" && f.journal != "" && f.journal != f.resume:
		return errors.New("-resume appends to the resumed journal; drop -journal or point it at the same file")
	}
	return nil
}

// shardedConfig carries the -shard* flag values into runSharded.
type shardedConfig struct {
	shards    int
	dir       string
	exec      bool
	lease     time.Duration
	worker    int
	out       string
	report    bool
	startedAt time.Time
}

// runSharded is the -shards / -shard-worker entry point: worker mode
// runs one shard's slice of the campaign and exits; coordinator mode
// launches every shard (in-process goroutine pools, or avwrun
// subprocesses under -shard-exec), supervises them via heartbeat
// leases, merges the per-shard journals deterministically, and renders
// the same dataset and report a single-process run would have produced
// (docs/distributed.md).
func runSharded(eco *services.Ecosystem, catalog []*services.Spec, opts core.Options, cfg shardedConfig) {
	dir := cfg.dir
	if dir == "" {
		dir = cfg.out + ".shards"
	}
	plan, err := shard.NewPlan(catalog, cfg.shards)
	if err != nil {
		fatalf("%v", err)
	}
	if cfg.worker >= 0 {
		// Worker mode: stdout is the heartbeat channel — one line per
		// completed experiment keeps the coordinator's lease alive.
		prev := opts.OnProgress
		opts.OnProgress = func(ev core.ProgressEvent) {
			fmt.Printf("done %s/%s/%s\n", ev.Service, ev.OS, ev.Medium)
			if prev != nil {
				prev(ev)
			}
		}
		if err := shard.RunWorker(context.Background(), eco, opts, plan, cfg.worker, dir); err != nil {
			fatalf("shard worker %d: %v", cfg.worker, err)
		}
		return
	}
	var launcher shard.Launcher
	if cfg.exec {
		launcher = &shard.Subprocess{
			Command: func(k int) []string {
				// Re-invoke this binary with the original flags; the
				// trailing -shard-worker wins over any earlier value.
				argv := append([]string{os.Args[0]}, os.Args[1:]...)
				return append(argv, "-shard-worker", strconv.Itoa(k))
			},
			Stderr: os.Stderr,
		}
	} else {
		launcher = &shard.InProcess{Eco: eco, Opts: opts, Plan: plan, Dir: dir}
	}
	merged, err := shard.Run(context.Background(), shard.Config{
		Plan:          plan,
		Dir:           dir,
		Launcher:      launcher,
		LeaseTTL:      cfg.lease,
		FailurePolicy: opts.FailurePolicy,
		Tracer:        opts.Tracer,
		Logger:        opts.Logger,
	})
	if err != nil {
		fatalf("sharded campaign: %v\nper-shard journals survive in %s; rerun with the same -shard-dir to resume", err, dir)
	}
	ds := merged.Dataset(core.Meta{GeneratedAt: time.Now(), Scale: opts.Scale, Duration: opts.Duration})
	fmt.Fprintf(os.Stderr, "sharded campaign complete: %d experiments across %d shards in %v\n",
		len(ds.Results), cfg.shards, time.Since(cfg.startedAt).Round(time.Millisecond))
	for _, f := range ds.Meta.Failures {
		fmt.Fprintf(os.Stderr, "skipped %s/%s/%s after %d attempt(s) at stage %s: %s\n",
			f.Service, f.OS, f.Medium, f.Attempts, f.Stage, f.Error)
	}
	if err := ds.Save(cfg.out); err != nil {
		fatalf("save: %v", err)
	}
	fmt.Fprintf(os.Stderr, "dataset written to %s\n", cfg.out)
	if cfg.report {
		fmt.Println(analysis.Report(ds))
	}
}

// printProgress renders one live progress line per completed experiment.
// core serializes the calls, so plain writes to stderr are safe.
func printProgress(ev core.ProgressEvent) {
	pct := 100 * float64(ev.Index) / float64(ev.Total)
	status := fmt.Sprintf("flows=%d leaks=%d", ev.Flows, ev.Leaks)
	if ev.Excluded {
		status = "excluded (certificate pinning)"
	}
	if ev.Err != nil {
		status = "error: " + ev.Err.Error()
	}
	if ev.Skipped {
		status = "skipped"
		if ev.Err != nil {
			status += ": " + ev.Err.Error()
		}
	}
	if ev.Attempts > 1 {
		status += fmt.Sprintf(" (attempt %d)", ev.Attempts)
	}
	if ev.Resumed {
		status += " [journal]"
	}
	fmt.Fprintf(os.Stderr, "[%3d/%3d] %5.1f%% %-18s %-7s/%-3s %7s  %s\n",
		ev.Index, ev.Total, pct, ev.Service, ev.OS, ev.Medium,
		ev.Elapsed.Round(time.Millisecond), status)
}

// printTimingTable prints where the campaign's wall-clock time went,
// per pipeline stage, from the process-wide registry.
func printTimingTable() {
	snap := obs.Default.Snapshot()
	fmt.Fprintln(os.Stderr, "\ncampaign stage timings (wall clock):")
	fmt.Fprint(os.Stderr, snap.StageTable("stage."))
	if exp, ok := snap.Histograms["campaign.experiment_ns"]; ok {
		fmt.Fprintf(os.Stderr, "whole experiments: %d, p50 %v, p95 %v, max %v\n",
			exp.Count,
			time.Duration(exp.P50).Round(time.Microsecond),
			time.Duration(exp.P95).Round(time.Microsecond),
			time.Duration(exp.Max).Round(time.Microsecond))
	}
}

// printSelectionAudit reproduces the §3.1 procedure: crawl, eligibility,
// quota-based selection, and the rejection reasons.
func printSelectionAudit() {
	crawl := services.StoreCrawl()
	selected, rejected := services.SelectServices(crawl, services.DefaultQuotas())
	eligible := 0
	for _, c := range crawl {
		if c.Eligible() {
			eligible++
		}
	}
	fmt.Printf("store crawl: %d candidates, %d eligible, %d selected"+"\n\n", len(crawl), eligible, len(selected))
	fmt.Println("selected:", strings.Join(selected, ", "))
	fmt.Println()
	counts := map[services.RejectionReason][]string{}
	for key, reason := range rejected {
		counts[reason] = append(counts[reason], key)
	}
	for _, reason := range []services.RejectionReason{
		services.RejectNotFree, services.RejectNoWebParity,
		services.RejectPinning, services.RejectNotSelected,
	} {
		keys := counts[reason]
		sort.Strings(keys)
		fmt.Printf("rejected (%s): %d"+"\n  %s\n", reason, len(keys), strings.Join(keys, ", "))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "avwrun: "+format+"\n", args...)
	os.Exit(1)
}
