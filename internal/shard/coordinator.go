package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/obs/trace"
	"appvsweb/internal/services"
)

// Launcher runs one shard worker attempt to completion. Implementations
// must call beat whenever the worker demonstrates liveness (at launch
// and on every completed experiment) — the coordinator's lease watchdog
// reassigns a shard whose heartbeats stop — and must return promptly
// once ctx is canceled (the lease-expiry kill path).
type Launcher interface {
	Launch(ctx context.Context, k, attempt int, beat func()) error
}

// InProcess launches workers as goroutine pools inside this process:
// each worker is a full campaign runner restricted to its shard, with
// heartbeats chained onto the campaign's progress events.
type InProcess struct {
	Eco  *services.Ecosystem
	Opts core.Options
	Plan *Plan
	Dir  string
}

// Launch implements Launcher.
func (l *InProcess) Launch(ctx context.Context, k, attempt int, beat func()) error {
	opts := l.Opts
	prev := opts.OnProgress
	opts.OnProgress = func(ev core.ProgressEvent) {
		beat()
		if prev != nil {
			prev(ev)
		}
	}
	beat()
	return RunWorker(ctx, l.Eco, opts, l.Plan, k, l.Dir)
}

// Subprocess launches each worker as a child process (avwrun
// -shard-worker k). Every line the worker writes to stdout counts as a
// heartbeat — workers print one line per completed experiment — so a
// wedged process stops beating and loses its lease. Cancellation kills
// the child; its fsync'd journal survives for the reassigned attempt.
type Subprocess struct {
	// Command returns the argv for shard k's worker process.
	Command func(k int) []string
	// Stderr receives worker stderr, interleaved; nil discards it.
	Stderr io.Writer
}

// Launch implements Launcher.
func (l *Subprocess) Launch(ctx context.Context, k, attempt int, beat func()) error {
	argv := l.Command(k)
	if len(argv) == 0 {
		return errors.New("shard: empty worker command")
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stderr = l.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("shard: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("shard: launch worker %d: %w", k, err)
	}
	beat()
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		beat()
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("shard: worker %d: %w", k, err)
	}
	return nil
}

// Config parameterizes a sharded campaign coordinator.
type Config struct {
	// Plan is the deterministic shard partition. Required.
	Plan *Plan
	// Dir holds the per-shard journals (created if missing). Required.
	Dir string
	// Launcher runs worker attempts. Required.
	Launcher Launcher
	// LeaseTTL is the heartbeat lease: a worker that goes this long
	// without beating is presumed dead or stalled, its context is
	// canceled, and its shard is reassigned. Must comfortably exceed the
	// wall-clock cost of one experiment (heartbeats arrive per completed
	// experiment). Default 60s; <= 0 uses the default.
	LeaseTTL time.Duration
	// MaxReassign bounds how many times one shard is relaunched after
	// worker death or lease expiry. Default 2.
	MaxReassign int
	// FailurePolicy decides what a shard that exhausts its reassignment
	// budget does to the campaign: abort (default) cancels the remaining
	// shards and returns the error; the skip policies log the loss and
	// merge whatever the failed shard journaled.
	FailurePolicy core.FailurePolicy
	// Metrics receives coordinator instrumentation (campaign.shards,
	// campaign.reassigned_total, shard.lease_expired). Nil uses
	// obs.Default.
	Metrics *obs.Registry
	// Tracer receives shard lifecycle events. Nil disables them.
	Tracer *trace.Tracer
	// Logger receives coordinator logs. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 60 * time.Second
	}
	if c.MaxReassign == 0 {
		c.MaxReassign = 2
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// aborts mirrors core's failure-policy default: zero value and
// FailAbort abort; the skip policies degrade gracefully.
func aborts(p core.FailurePolicy) bool {
	return p == "" || p == core.FailAbort
}

// Run executes the sharded campaign: every shard is launched (bounded
// only by the Launcher's own parallelism — all shards run concurrently),
// tracked by heartbeat lease, reassigned on death or stall, and the
// per-shard journals are merged into one deterministic set. The merged
// set — not any worker's in-memory dataset — is the campaign's result;
// build its dataset with (*core.JournalSet).Dataset, the fold a
// single-process run uses too.
func Run(ctx context.Context, cfg Config) (*core.JournalSet, error) {
	cfg = cfg.withDefaults()
	if cfg.Plan == nil || cfg.Dir == "" || cfg.Launcher == nil {
		return nil, errors.New("shard: Config.Plan, Dir, and Launcher are required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: shard dir: %w", err)
	}
	n := cfg.Plan.N
	cfg.Metrics.Gauge("campaign.shards").Set(int64(n))
	cfg.Logger.Info("sharded campaign start", "shards", n,
		"experiments", cfg.Plan.Total(), "lease", cfg.LeaseTTL, "dir", cfg.Dir)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			err := runShard(ctx, cfg, k)
			errs[k] = err
			if err != nil && ctx.Err() == nil && aborts(cfg.FailurePolicy) {
				cancel() // abort policy: first lost shard stops the campaign
			}
		}(k)
	}
	wg.Wait()

	var failed []error
	for k, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() != nil && !aborts(cfg.FailurePolicy) {
			continue // shut down by a sibling's abort, not a verdict of its own
		}
		failed = append(failed, fmt.Errorf("shard %d: %w", k, err))
	}
	if len(failed) > 0 && aborts(cfg.FailurePolicy) {
		return nil, errors.Join(failed...)
	}
	for _, err := range failed {
		cfg.Logger.Warn("shard lost; merging its partial journal", "err", err)
	}

	merged, err := core.MergeJournals(JournalPaths(cfg.Dir, n)...)
	if err != nil {
		return nil, err
	}
	cfg.Tracer.Emit(trace.Event{Type: trace.EvShardMerge, Attrs: map[string]string{
		"shards": strconv.Itoa(n), "experiments": strconv.Itoa(merged.Len()),
	}})
	cfg.Logger.Info("shard journals merged", "shards", n, "experiments", merged.Len())
	return merged, nil
}

// runShard drives one shard through launch / lease-watch / reassign
// until it completes or exhausts its budget.
func runShard(ctx context.Context, cfg Config, k int) error {
	for attempt := 0; ; attempt++ {
		cfg.Tracer.Emit(trace.Event{Type: trace.EvShardLaunch, Attrs: map[string]string{
			"shard": strconv.Itoa(k), "attempt": strconv.Itoa(attempt),
			"experiments": strconv.Itoa(cfg.Plan.Size(k)),
		}})
		cfg.Logger.Info("shard launch", "shard", k, "attempt", attempt, "experiments", cfg.Plan.Size(k))

		wctx, cancel := context.WithCancel(ctx)
		var last atomic.Int64
		last.Store(time.Now().UnixNano())
		beat := func() { last.Store(time.Now().UnixNano()) }
		var expired atomic.Bool
		watchDone := make(chan struct{})
		stop := make(chan struct{})
		go func() {
			defer close(watchDone)
			tick := time.NewTicker(cfg.LeaseTTL / 4)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-wctx.Done():
					return
				case <-tick.C:
					if time.Since(time.Unix(0, last.Load())) > cfg.LeaseTTL {
						expired.Store(true)
						cancel() // kill the stalled worker; its journal survives
						return
					}
				}
			}
		}()

		err := cfg.Launcher.Launch(wctx, k, attempt, beat)
		close(stop)
		<-watchDone
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err // campaign shutdown, not a worker verdict
		}
		if expired.Load() {
			cfg.Metrics.Counter("shard.lease_expired").Inc()
			cfg.Tracer.Emit(trace.Event{Type: trace.EvShardLeaseExpired, Attrs: map[string]string{
				"shard": strconv.Itoa(k), "attempt": strconv.Itoa(attempt),
				"lease": cfg.LeaseTTL.String(),
			}})
			cfg.Logger.Warn("shard lease expired", "shard", k, "attempt", attempt, "lease", cfg.LeaseTTL)
		}
		if !reassignable(err, expired.Load()) || attempt >= cfg.MaxReassign {
			return fmt.Errorf("shard: worker failed after %d launch(es): %w", attempt+1, err)
		}
		cfg.Metrics.Counter("campaign.reassigned_total").Inc()
		cfg.Tracer.Emit(trace.Event{Type: trace.EvShardReassign, Attrs: map[string]string{
			"shard": strconv.Itoa(k), "attempt": strconv.Itoa(attempt + 1),
			"error": err.Error(),
		}})
		cfg.Logger.Warn("shard reassigned", "shard", k, "next_attempt", attempt+1, "err", err)
	}
}

// reassignable decides whether a failed worker attempt warrants a
// relaunch. An expired lease always does (the worker was killed on
// suspicion of death; the journal bounds re-work). A typed experiment
// error carries the runner's retryable classification
// (classifyRetryable at the failure site). Anything else — a dead
// subprocess, a torn-down context — is presumed transient worker death:
// reassignment is always safe because experiments are deterministic and
// journal resume skips completed work, and MaxReassign bounds futility.
func reassignable(err error, leaseExpired bool) bool {
	if leaseExpired {
		return true
	}
	var xerr *core.ExperimentError
	if errors.As(err, &xerr) {
		return xerr.Retryable
	}
	return true
}
