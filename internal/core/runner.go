package core

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/device"
	"appvsweb/internal/domains"
	"appvsweb/internal/easylist"
	"appvsweb/internal/obs"
	"appvsweb/internal/obs/trace"
	"appvsweb/internal/pii"
	"appvsweb/internal/proxy"
	"appvsweb/internal/recon"
	"appvsweb/internal/services"
	"appvsweb/internal/vclock"
)

// Options configure a measurement campaign.
type Options struct {
	// Scale multiplies per-session repeat counts; 1 reproduces the
	// paper-scale sessions, tests use smaller values.
	Scale float64
	// Duration is the virtual session length (default 4 minutes, §3.2).
	Duration time.Duration
	// Parallelism bounds concurrently running experiments. Each
	// experiment gets its own proxy, sink, and virtual clock, so
	// parallelism does not perturb results. Default: NumCPU, capped at 8.
	Parallelism int
	// TrainRecon trains the ReCon classifier on the campaign's labeled
	// flows and annotates every leak with its detector provenance.
	TrainRecon bool
	// DisableBackgroundFilter keeps OS traffic in the analysis (the
	// filtering ablation).
	DisableBackgroundFilter bool
	// Protect enables the ReCon-style protection mode: the proxy redacts
	// leak-position PII from flows before they reach the network (the
	// paper's proposed extension).
	Protect bool
	// Inline runs the proxy's streaming PII gateway on every exchange
	// with the given action ("log", "redact", or "block"); empty disables
	// it (docs/inline.md). Unlike Protect, detection happens as bodies
	// transit the proxy, and verdicts are folded into leak provenance.
	Inline string
	// BrowserAdblock equips the browser sessions with the bundled
	// EasyList (the "existing browser privacy protection tools" question
	// from the paper's conclusion). Apps are unaffected: content blockers
	// do not reach inside native apps.
	BrowserAdblock bool
	// TraceDir, when set, persists each experiment's pre-filter capture as
	// JSONL under this directory, beside the campaign's services, scale
	// and duration (TraceMetaFile), so ReplayCampaign can redo the whole
	// pipeline, background filtering included, without re-measuring ("we
	// make our dataset and code available").
	TraceDir string
	// DenyPermissions starves the listed PII classes in app sessions
	// (simulated permission denial) — the app-side counterpart of the
	// adblock extension.
	DenyPermissions pii.TypeSet
	// Metrics receives campaign instrumentation: per-stage wall-clock
	// spans and running totals (docs/metrics.md). Nil uses obs.Default.
	Metrics *obs.Registry
	// Tracer receives the causal per-flow trace events (docs/tracing.md):
	// spans campaign → experiment → session and the flow.* chain behind
	// every verdict. Nil disables tracing.
	Tracer *trace.Tracer
	// Logger receives structured campaign lifecycle logs, trace-ID
	// correlated. Nil discards them.
	Logger *slog.Logger
	// OnProgress, when set, is called after every experiment finishes
	// (including exclusions and failures). Calls are serialized and
	// delivered in completion order, so the callback may print without
	// further locking; delivery happens off the workers' completion path,
	// so a slow sink never blocks the campaign (docs/robustness.md).
	OnProgress func(ProgressEvent)
	// ExperimentTimeout bounds each experiment attempt's real wall-clock
	// time; an attempt that overruns fails with a retryable deadline
	// error (campaign.deadline_exceeded). 0 disables the deadline.
	ExperimentTimeout time.Duration
	// Retry bounds the exponential-backoff retries around transient
	// experiment failures (docs/robustness.md).
	Retry RetryPolicy
	// FailurePolicy decides what a terminally failed experiment does to
	// the campaign: abort (default), skip, or retry-then-skip.
	FailurePolicy FailurePolicy
	// Journal, when set, receives one fsync'd record per completed
	// experiment — the crash-safe checkpoint avwrun -resume replays.
	Journal *Journal
	// Resume holds a prior run's journal; journaled experiments are
	// replayed from their records instead of re-measured.
	Resume *JournalSet
	// FaultInjector is the deterministic fault-injection seam for the
	// fault-tolerance tests. Nil in production campaigns.
	FaultInjector FaultInjector
	// Experiments, when set, selects which experiments this process runs:
	// matrix cells the predicate rejects are neither launched nor
	// journaled. Global experiment indices — and therefore each
	// experiment's virtual-clock base — are assigned over the full
	// catalog × cell matrix BEFORE filtering, so a filtered run measures
	// exactly what a full run would have measured for the same cells.
	// Sharded campaigns (internal/shard) rely on this for byte-identical
	// merged reports (docs/distributed.md). Nil runs everything.
	Experiments func(service string, cell services.Cell) bool
}

// ProgressEvent reports one completed experiment to Options.OnProgress.
type ProgressEvent struct {
	Index   int // 1-based completion order
	Total   int // experiments in the campaign
	Service string
	OS      services.OS
	Medium  services.Medium
	// Elapsed is real wall time for this experiment (sessions themselves
	// run on the virtual clock; see internal/vclock).
	Elapsed  time.Duration
	Excluded bool // certificate pinning prevented decryption
	Flows    int
	Leaks    int
	Err      error
	// Attempts counts how many attempts the experiment took (0 for
	// journal-resumed experiments, 1 = no retries).
	Attempts int
	// Skipped marks a failed experiment the failure policy dropped
	// (recorded in Dataset.Meta.Failures) rather than aborting on.
	Skipped bool
	// Resumed marks an experiment replayed from a -resume journal
	// instead of re-measured.
	Resumed bool
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Duration <= 0 {
		o.Duration = 4 * time.Minute
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
		if o.Parallelism > 8 {
			o.Parallelism = 8
		}
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// Runner executes experiments against a running ecosystem.
type Runner struct {
	Eco  *services.Ecosystem
	Opts Options

	ca *proxy.CA // shared interception CA (the installed profile)
	// sessions is the state every experiment's proxy shares: ticket keys,
	// so device tunnels resume across experiments, and one upstream
	// connection pool, released when each campaign ends.
	sessions *proxy.Sessions
	trust    *x509.CertPool
	// ids hands out campaign-unique flow IDs across every experiment's
	// sink, so a bare flow ID names exactly one flow in traces.
	ids *capture.IDSource
}

// NewRunner prepares a runner: it generates the interception CA, the
// session state and upstream pool its proxies share, and the device trust
// store (platform roots + installed profile).
func NewRunner(eco *services.Ecosystem, opts Options) (*Runner, error) {
	ca, err := proxy.NewCA("Meddle Interception CA")
	if err != nil {
		return nil, err
	}
	sessions, err := proxy.NewSessions()
	if err != nil {
		return nil, err
	}
	trust := ca.Pool()
	trust.AppendCertsFromPEM(eco.Internet.CA.CertPEM())
	return &Runner{Eco: eco, Opts: opts.withDefaults(), ca: ca, sessions: sessions,
		trust: trust, ids: &capture.IDSource{}}, nil
}

// experimentRun couples a result with the retained flows and detection
// context needed for the optional ReCon annotation pass.
type experimentRun struct {
	result *ExperimentResult
	flows  []*capture.Flow
	det    *Detector
}

// matcherSet holds one campaign's PII matchers, one per (service, OS).
// The app and Web experiments of a pair search for the same identity
// (IdentityFor does not depend on the medium), so they share one compiled
// automaton.
type matcherSet struct {
	mu sync.Mutex
	m  map[matcherKey]*lazyMatcher
}

type matcherKey struct {
	service string
	os      services.OS
}

// lazyMatcher is built by the first experiment of its pair that asks. The
// two workers often run a pair's app and Web cells at once, so the second
// waits for that build instead of starting its own.
type lazyMatcher struct {
	once sync.Once
	m    *pii.Matcher
}

// get returns the matcher for service's identity rec on os.
func (s *matcherSet) get(service string, os services.OS, rec *pii.Record) *pii.Matcher {
	k := matcherKey{service, os}
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[matcherKey]*lazyMatcher)
	}
	e := s.m[k]
	if e == nil {
		e = new(lazyMatcher)
		s.m[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.m = pii.NewMatcher(rec) })
	return e.m
}

// RunExperiment performs one service × OS × medium experiment.
func (r *Runner) RunExperiment(spec *services.Spec, cell services.Cell) (*ExperimentResult, error) {
	return r.RunExperimentContext(context.Background(), spec, cell)
}

// RunExperimentContext performs one experiment under a caller-controlled
// context: canceling it aborts the session mid-flight, and
// Options.ExperimentTimeout and Options.Retry apply as in a campaign.
func (r *Runner) RunExperimentContext(ctx context.Context, spec *services.Spec, cell services.Cell) (*ExperimentResult, error) {
	defer r.sessions.CloseIdleConnections()
	run, _, err := r.runExperimentResilient(ctx, spec, cell, time.Date(2016, 4, 1, 9, 0, 0, 0, time.UTC), new(matcherSet))
	if err != nil {
		return nil, err
	}
	return run.result, nil
}

// runExperimentResilient wraps one experiment in the per-attempt deadline
// and the retry policy: transient failures back off exponentially (with
// deterministic jitter) and retry up to the policy's budget; fatal
// failures and campaign cancellation return immediately. It reports the
// number of attempts made alongside the outcome. matchers supplies the
// experiment's PII matcher.
func (r *Runner) runExperimentResilient(ctx context.Context, spec *services.Spec, cell services.Cell, base time.Time, matchers *matcherSet) (*experimentRun, int, error) {
	reg := r.Opts.Metrics
	max := r.Opts.Retry.maxFor(r.Opts.FailurePolicy)
	for attempt := 0; ; attempt++ {
		run, err := r.runExperimentAttempt(ctx, spec, cell, base, attempt, matchers)
		if err == nil {
			return run, attempt + 1, nil
		}
		var xerr *ExperimentError
		retry := errors.As(err, &xerr) && xerr.Retryable
		if ctx.Err() != nil || !retry || attempt >= max {
			return nil, attempt + 1, err
		}
		delay := r.Opts.Retry.Delay(attempt, ExperimentKey(spec.Key, cell))
		reg.Counter("campaign.retries").Inc()
		r.Opts.Tracer.Emit(trace.Event{Type: trace.EvExperimentRetry, Attrs: map[string]string{
			"service": spec.Key, "os": string(cell.OS), "medium": string(cell.Medium),
			"attempt": strconv.Itoa(attempt + 1), "stage": xerr.Stage,
			"error": xerr.Err.Error(), "backoff": delay.String(),
		}})
		r.Opts.Logger.Warn("experiment retry", "service", spec.Key,
			"os", string(cell.OS), "medium", string(cell.Medium),
			"attempt", attempt+1, "stage", xerr.Stage, "backoff", delay, "err", xerr.Err)
		if sleepCtx(ctx, delay) != nil {
			return nil, attempt + 1, err
		}
	}
}

// runExperimentAttempt runs one attempt under the per-experiment deadline
// and wraps any failure as a classified ExperimentError.
func (r *Runner) runExperimentAttempt(ctx context.Context, spec *services.Spec, cell services.Cell, base time.Time, attempt int, matchers *matcherSet) (*experimentRun, error) {
	if r.Opts.ExperimentTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Opts.ExperimentTimeout)
		defer cancel()
	}
	run, err := r.runExperiment(ctx, spec, cell, base, attempt, matchers)
	if err == nil {
		return run, nil
	}
	var xerr *ExperimentError
	if !errors.As(err, &xerr) {
		// Stage attribution happens at the failure site; an unwrapped
		// error means the experiment scaffolding itself failed.
		xerr = &ExperimentError{Stage: StageProxy, Err: err}
	}
	xerr.Service, xerr.Cell, xerr.Attempt = spec.Key, cell, attempt
	if errors.Is(xerr.Err, context.DeadlineExceeded) && ctx.Err() == context.DeadlineExceeded {
		r.Opts.Metrics.Counter("campaign.deadline_exceeded").Inc()
	}
	xerr.Retryable = classifyRetryable(xerr.Stage, xerr.Err)
	return nil, xerr
}

func (r *Runner) runExperiment(ctx context.Context, spec *services.Spec, cell services.Cell, base time.Time, attempt int, matchers *matcherSet) (*experimentRun, error) {
	reg := r.Opts.Metrics
	defer reg.Histogram("campaign.experiment_ns", "ns").Span().End()
	defer reg.Counter("campaign.experiments_total").Inc()
	reg.Gauge("campaign.inflight").Inc()
	defer reg.Gauge("campaign.inflight").Dec()

	tr := r.Opts.Tracer
	span := tr.NewSpanID()
	start := time.Now()
	tr.Emit(trace.Event{Type: trace.EvExperimentStart, Span: span, Attrs: map[string]string{
		"service": spec.Key, "os": string(cell.OS), "medium": string(cell.Medium),
	}})
	r.Opts.Logger.Debug("experiment start",
		"span", span, "service", spec.Key, "os", string(cell.OS), "medium", string(cell.Medium))

	run, err := r.runExperimentSpanned(ctx, spec, cell, base, span, attempt, matchers)

	attrs := map[string]string{
		"service": spec.Key, "os": string(cell.OS), "medium": string(cell.Medium),
	}
	if run != nil {
		attrs["flows"] = strconv.Itoa(run.result.TotalFlows)
		attrs["leaks"] = strconv.Itoa(len(run.result.Leaks))
		if run.result.Excluded {
			attrs["excluded"] = "true"
		}
	}
	if err != nil {
		attrs["error"] = err.Error()
		r.Opts.Logger.Error("experiment failed", "span", span, "service", spec.Key,
			"os", string(cell.OS), "medium", string(cell.Medium), "err", err)
	}
	tr.Emit(trace.Event{Type: trace.EvExperimentEnd, Span: span,
		DurNS: time.Since(start).Nanoseconds(), Attrs: attrs})
	return run, err
}

func (r *Runner) runExperimentSpanned(ctx context.Context, spec *services.Spec, cell services.Cell, base time.Time, span string, attempt int, matchers *matcherSet) (*experimentRun, error) {
	reg := r.Opts.Metrics
	tr := r.Opts.Tracer
	clock := vclock.New(base)
	sink := capture.NewMemSinkIDs(r.ids)
	clientID := fmt.Sprintf("%s/%s/%s", spec.Key, cell.OS, cell.Medium)
	if err := r.inject(ctx, spec, cell, StageProxy, attempt); err != nil {
		return nil, &ExperimentError{Stage: StageProxy, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return nil, &ExperimentError{Stage: StageProxy, Err: err}
	}
	dev := device.NewDevice(cell.OS, deviceIndex(spec.Key))
	identity := dev.Identity(device.NewAccount(spec.Key))
	pxCfg := proxy.Config{
		CA:         r.ca,
		Sessions:   r.sessions,
		Resolver:   r.Eco.Internet.Resolver,
		OriginPool: r.Eco.Internet.CA.Pool(),
		Sink:       sink,
		Now:        clock.Now,
		ClientID:   clientID,
		Tracer:     tr,
		SpanID:     span,
		Metrics:    reg,
	}
	if r.Opts.Protect {
		pxCfg.Rewriter = NewProtector(spec.Key, identity, r.Eco.Categorizer)
	}
	if r.Opts.Inline != "" {
		action, err := proxy.ParseInlineAction(r.Opts.Inline)
		if err != nil {
			return nil, &ExperimentError{Stage: StageProxy, Err: err}
		}
		pxCfg.Inline = proxy.NewInline(identity, action, reg)
	}
	px, err := proxy.New(pxCfg)
	if err != nil {
		return nil, &ExperimentError{Stage: StageProxy, Err: err}
	}
	if err := px.Start(); err != nil {
		return nil, &ExperimentError{Stage: StageProxy, Err: err}
	}
	defer px.Close()

	result := &ExperimentResult{
		Service: spec.Key, Name: spec.Name, Category: spec.Category,
		Rank: spec.Rank, OS: cell.OS, Medium: cell.Medium,
	}

	pin := ""
	if spec.PinsAndroid && cell.OS == services.Android && cell.Medium == services.App {
		pin, err = r.Eco.Internet.CA.LeafFingerprint(spec.Domain())
		if err != nil {
			return nil, &ExperimentError{Stage: StageProxy, Err: err}
		}
	}

	if err := r.inject(ctx, spec, cell, StageSession, attempt); err != nil {
		return nil, &ExperimentError{Stage: StageSession, Err: err}
	}

	sessCfg := device.SessionConfig{
		Device:   dev,
		Service:  spec,
		Medium:   cell.Medium,
		ProxyURL: px.URL(),
		Trust:    r.trust,
		Pin:      pin,
		Clock:    clock,
		Duration: r.Opts.Duration,
		Scale:    r.Opts.Scale,
	}
	if r.Opts.BrowserAdblock && cell.Medium == services.Web {
		sessCfg.Adblock = easylist.Bundled()
	}
	sessCfg.DenyPermissions = r.Opts.DenyPermissions
	sessSpan := reg.HistogramVec("stage", "ns", "stage").WithLabelValues("session").Span()
	tr.Emit(trace.Event{Type: trace.EvSessionStart, Span: span, Attrs: map[string]string{"client": clientID}})
	sessStage := tr.Stage(span, "session")
	sres, err := device.RunSessionContext(ctx, sessCfg)
	sessStage()
	tr.Emit(trace.Event{Type: trace.EvSessionEnd, Span: span, Attrs: map[string]string{"client": clientID}})
	sessSpan.End()
	if err != nil {
		if errors.Is(err, device.ErrPinned) {
			result.Excluded = true
			result.ExcludeReason = "certificate pinning prevents traffic decryption"
			reg.Counter("campaign.excluded_total").Inc()
			return &experimentRun{result: result}, nil
		}
		return nil, &ExperimentError{Stage: StageSession, Err: fmt.Errorf("core: %s: %w", clientID, err)}
	}
	result.Requests = sres.Requests
	result.FailedRequests = sres.Failed
	result.BlockedRequests = sres.Blocked
	result.Virtual = clock.Since(base)

	if err := r.inject(ctx, spec, cell, StageAnalysis, attempt); err != nil {
		return nil, &ExperimentError{Stage: StageAnalysis, Err: err}
	}
	det := &Detector{Matcher: matchers.get(spec.Key, cell.OS, identity)}
	if err := r.drainCapture(px, sink, drainTimeout, span, clientID); err != nil {
		return nil, err
	}
	raw := sink.Flows()
	analysisStage := tr.Stage(span, "analysis")
	flows := r.analyze(spec, result, det, raw, span)
	analysisStage()
	reg.Counter("campaign.flows_total").Add(int64(result.TotalFlows))
	reg.Counter("campaign.leaks_total").Add(int64(len(result.Leaks)))
	if r.Opts.TraceDir != "" {
		// Persist the pre-filter capture so replay can redo the full
		// pipeline, including the background-filtering step.
		path := filepath.Join(r.Opts.TraceDir, TraceFileName(spec.Key, cell))
		if err := capture.SaveTrace(path, raw); err != nil {
			return nil, &ExperimentError{Stage: StageTrace, Err: fmt.Errorf("core: save trace: %w", err)}
		}
	}
	return &experimentRun{result: result, flows: flows, det: det}, nil
}

// drainTimeout bounds the wait for an experiment's tunnels to record their
// flows after its session ends.
const drainTimeout = 2 * time.Second

// drainCapture waits for px's tunnels to finish. The session has closed its
// sockets and idle h2 connections, but the proxy-side tunnel goroutines
// record their flows only when they observe those closes, so the sink is
// complete only once they have all exited. A tunnel still open after the
// timeout is a retryable ErrDrainTimeout, counted and traced: the sink
// snapshot could be missing its flows.
func (r *Runner) drainCapture(px *proxy.Proxy, sink *capture.MemSink, timeout time.Duration, span, clientID string) error {
	if px.Drain(timeout) {
		return nil
	}
	r.Opts.Metrics.Counter("campaign.drain_timeouts_total").Inc()
	r.Opts.Tracer.Emit(trace.Event{Type: trace.EvDrainTimeout, Span: span, Attrs: map[string]string{
		"client": clientID, "timeout": timeout.String(), "recorded": strconv.Itoa(sink.Len()),
	}})
	return &ExperimentError{Stage: StageProxy, Err: fmt.Errorf("core: %s: %w", clientID, ErrDrainTimeout)}
}

// TraceFileName names one experiment's persisted flow trace.
func TraceFileName(key string, cell services.Cell) string {
	return fmt.Sprintf("%s_%s_%s.jsonl", key, cell.OS, cell.Medium)
}

// IdentityFor reconstructs the deterministic ground-truth record of one
// experiment (handset identifiers + service account); replay and the
// protection mode rely on this determinism.
func IdentityFor(key string, os services.OS) *pii.Record {
	dev := device.NewDevice(os, deviceIndex(key))
	return dev.Identity(device.NewAccount(key))
}

// deviceIndex alternates between the two handsets per platform, as the
// paper's lab did.
func deviceIndex(key string) int {
	n := 0
	for _, c := range key {
		n += int(c)
	}
	return n % 2
}

// analyze applies the §3.2 pipeline to the captured flows and fills the
// result. It returns the analyzed (post-filter) flows for optional reuse.
func (r *Runner) analyze(spec *services.Spec, result *ExperimentResult, det *Detector, flows []*capture.Flow, span string) []*capture.Flow {
	return analyzeFlows(r.Opts.Metrics, r.Opts.Tracer, span, r.Eco.Categorizer, r.Opts.DisableBackgroundFilter, spec.Key, result, det, flows)
}

// AnalyzeFlows is the standalone §3.2 pipeline: filtering, detection with
// verification, domain categorization, and leak labeling. It fills result
// and returns the post-filter flows. Exposed for trace replay; stage
// timings are recorded into obs.Default.
func AnalyzeFlows(cat *domains.Categorizer, disableBGFilter bool, serviceKey string, result *ExperimentResult, det *Detector, flows []*capture.Flow) []*capture.Flow {
	return analyzeFlows(obs.Default, nil, "", cat, disableBGFilter, serviceKey, result, det, flows)
}

// captureEvent reconstructs the capture step of a flow's provenance chain
// as a trace event. Events are emitted post-hoc, after the sink has
// assigned the campaign-unique flow ID.
func captureEvent(span string, f *capture.Flow) trace.Event {
	return trace.Event{Type: trace.EvFlowCaptured, Span: span, Flow: f.ID, Attrs: map[string]string{
		"host":        f.Host,
		"method":      f.Method,
		"url":         f.URL,
		"protocol":    string(f.Protocol),
		"client":      f.Client,
		"intercepted": strconv.FormatBool(f.Intercepted),
		"start":       f.Start.UTC().Format(time.RFC3339),
	}}
}

func analyzeFlows(metrics *obs.Registry, tr *trace.Tracer, span string, cat *domains.Categorizer, disableBGFilter bool, serviceKey string, result *ExperimentResult, det *Detector, flows []*capture.Flow) []*capture.Flow {
	filterSpan := metrics.HistogramVec("stage", "ns", "stage").WithLabelValues("filter").Span()
	var kept, dropped []*capture.Flow
	if disableBGFilter {
		kept = flows
	} else {
		kept, dropped = capture.FilterBackground(flows, cat.IsBackground)
	}
	filterSpan.End()
	result.TotalFlows = len(kept)
	result.BackgroundFlows = len(dropped)

	filterReason := "not OS/library background traffic"
	if disableBGFilter {
		filterReason = "background filtering disabled for this run"
	}
	filterDesc := "kept (" + filterReason + ")"
	if tr.Enabled() {
		for _, f := range dropped {
			tr.Emit(captureEvent(span, f))
			tr.Emit(trace.Event{Type: trace.EvFlowFilter, Span: span, Flow: f.ID, Attrs: map[string]string{
				"decision": "dropped",
				"reason":   "host categorized as OS/library background traffic (§3.2 filtering)",
			}})
		}
	}

	var policy LeakPolicy
	// The detect stage streams every analyzable flow through the compiled
	// matcher in one batch pass (reusing scanner scratch across flows)
	// before the per-flow verdict loop; stage.detect_ns observes the whole
	// pass, keeping the histogram per-experiment (comparable to
	// stage.session_ns) as before. Pinned tunnels carry no content and are
	// skipped, exactly as the per-flow path did.
	detections := make([]Detection, len(kept))
	detStart := time.Now()
	batch := det.NewBatch()
	for i, f := range kept {
		if !f.Intercepted && f.Protocol == capture.HTTPS {
			continue
		}
		detections[i] = batch.Detect(f)
	}
	detectNS := time.Since(detStart)

	// categorizeNS accumulates the per-flow categorization cost and posts
	// one observation per experiment.
	var categorizeNS time.Duration
	aaDomains := make(map[string]bool)
	piiDomains := make(map[string]bool)
	for i, f := range kept {
		result.TotalBytes += f.Bytes()
		catStart := time.Now()
		fcat, aaRule := cat.CategorizeRule(serviceKey, f.Host)
		reg := domains.ETLDPlusOne(f.Host)
		categorizeNS += time.Since(catStart)
		if fcat == domains.AdvertisingAnalytics {
			aaDomains[reg] = true
			result.AAFlows++
			result.AABytes += f.Bytes()
		}
		if tr.Enabled() {
			tr.Emit(captureEvent(span, f))
			tr.Emit(trace.Event{Type: trace.EvFlowFilter, Span: span, Flow: f.ID, Attrs: map[string]string{
				"decision": "kept", "reason": filterReason,
			}})
			catAttrs := map[string]string{"category": fcat.String(), "domain": reg}
			if aaRule != "" {
				catAttrs["rule"] = aaRule
			}
			tr.Emit(trace.Event{Type: trace.EvFlowCategorize, Span: span, Flow: f.ID, Attrs: catAttrs})
		}
		if !f.Intercepted && f.Protocol == capture.HTTPS {
			// pinned tunnel metadata: no content to analyze
			tr.Emit(trace.Event{Type: trace.EvFlowPolicy, Span: span, Flow: f.ID, Attrs: map[string]string{
				"verdict": "clean",
				"clause":  "certificate pinning prevented interception: tunnel metadata only, no content to analyze",
			}})
			continue
		}
		detection := detections[i]
		leakTypes, clause := policy.Explain(f, detection.Types, fcat)
		if tr.Enabled() {
			tr.Emit(trace.Event{Type: trace.EvFlowPII, Span: span, Flow: f.ID, Attrs: map[string]string{
				"types":   detection.Types.String(),
				"matches": pii.DescribeMatches(detection.Matches),
			}})
			verdict, leakedStr := "clean", ""
			if !leakTypes.Empty() {
				verdict, leakedStr = "leak", leakTypes.String()
			}
			tr.Emit(trace.Event{Type: trace.EvFlowPolicy, Span: span, Flow: f.ID, Attrs: map[string]string{
				"verdict": verdict, "types": leakedStr, "clause": clause,
			}})
		}
		if leakTypes.Empty() {
			continue
		}
		foundBy := make(map[string]string, leakTypes.Len())
		for _, t := range leakTypes.Types() {
			foundBy[t.Abbrev()] = detection.FoundBy[t.Abbrev()]
		}
		evidence := make([]MatchEvidence, 0, len(detection.Matches))
		for _, m := range detection.Matches {
			evidence = append(evidence, MatchEvidence{
				Type: m.Type.Abbrev(), Encoding: string(m.Encoding), Where: m.Where,
			})
		}
		result.Leaks = append(result.Leaks, LeakRecord{
			FlowID:    f.ID,
			Host:      f.Host,
			Domain:    reg,
			Org:       domains.Org(f.Host),
			Category:  fcat.String(),
			Plaintext: f.Plaintext(),
			Types:     leakTypes,
			FoundBy:   foundBy,
			Provenance: &Provenance{
				Client:  f.Client,
				Filter:  filterDesc,
				Matches: evidence,
				Rule:    aaRule,
				Policy:  clause,
				Inline:  inlineDesc(f.Inline),
			},
		})
		result.LeakTypes = result.LeakTypes.Union(leakTypes)
		piiDomains[reg] = true
	}
	metrics.HistogramVec("stage", "ns", "stage").WithLabelValues("detect").ObserveDuration(detectNS)
	metrics.HistogramVec("stage", "ns", "stage").WithLabelValues("categorize").ObserveDuration(categorizeNS)
	result.AADomains = sortedKeys(aaDomains)
	result.PIIDomains = sortedKeys(piiDomains)
	return kept
}

// inlineDesc renders a flow's inline-gateway verdict for leak provenance,
// e.g. "block: E,L (mitigated)". Empty when the gateway was off or silent.
func inlineDesc(iv *capture.InlineVerdict) string {
	if iv == nil {
		return ""
	}
	s := iv.Action + ": " + strings.Join(iv.Types, ",")
	if iv.Mitigated {
		s += " (mitigated)"
	}
	return s
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RunCampaign measures every service in the ecosystem's catalog across
// all four configurations and returns the dataset behind §4.
func (r *Runner) RunCampaign() (*Dataset, error) {
	return r.RunCampaignContext(context.Background())
}

// campaignJob is one experiment slot in a campaign.
type campaignJob struct {
	spec *services.Spec
	cell services.Cell
	idx  int
}

// RunCampaignContext runs the campaign under a caller-controlled context.
// Canceling it stops launching experiments, aborts the ones in flight,
// and returns the partial dataset alongside the context's error. Failed
// experiments are handled per Options.FailurePolicy (docs/robustness.md):
// even under the default abort policy, the dataset built from every
// completed experiment is returned with the error rather than discarded.
func (r *Runner) RunCampaignContext(parent context.Context) (*Dataset, error) {
	ds, _, err := r.runCampaign(parent)
	return ds, err
}

// runCampaign is RunCampaignContext. It also returns the campaign's
// measured experiments, indexed by their place in the full matrix.
func (r *Runner) runCampaign(parent context.Context) (*Dataset, []*experimentRun, error) {
	// The campaign's experiments share one upstream pool; its connections
	// go with the campaign, not with the 30 s idle timeout.
	defer r.sessions.CloseIdleConnections()
	// Enumerate the full matrix first so every job's global index — the
	// seed of its virtual-clock base — is identical no matter how the
	// campaign is later filtered, then drop the cells an Experiments
	// predicate (a shard assignment) excludes from this process.
	var jobs []campaignJob
	idx := 0
	for _, spec := range r.Eco.Catalog {
		for _, cell := range services.AllCells() {
			j := campaignJob{spec, cell, idx}
			idx++
			if r.Opts.Experiments != nil && !r.Opts.Experiments(spec.Key, cell) {
				continue
			}
			jobs = append(jobs, j)
		}
	}
	matrix := idx // full-matrix size; jobs index into [0, matrix) sparsely
	if r.Opts.TraceDir != "" {
		if err := writeTraceMeta(r.Opts.TraceDir, r.Eco.Catalog, r.Opts.Scale, r.Opts.Duration); err != nil {
			return nil, nil, err
		}
	}

	tr := r.Opts.Tracer
	campaignStart := time.Now()
	tr.Emit(trace.Event{Type: trace.EvCampaignStart, Attrs: map[string]string{
		"services":    strconv.Itoa(len(r.Eco.Catalog)),
		"experiments": strconv.Itoa(len(jobs)),
		"parallelism": strconv.Itoa(r.Opts.Parallelism),
		"policy":      string(r.Opts.failurePolicy()),
	}})
	r.Opts.Logger.Info("campaign start", "services", len(r.Eco.Catalog),
		"experiments", len(jobs), "parallelism", r.Opts.Parallelism,
		"policy", string(r.Opts.failurePolicy()))

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	r.Opts.Metrics.Gauge("campaign.jobs").Set(int64(len(jobs)))
	// matchers compiles each (service, OS) identity's matcher once, for
	// this campaign only. runs keeps each measured experiment's flows and
	// detector until the campaign ends, TrainRecon or not; only
	// annotateWithRecon reads them. The detectors of a pair share one
	// matcher of about 0.7 MB, so at 200 experiments that is ~70 MB of
	// live heap, which sets the GC pace of the whole run. done is the
	// keep-last fold of every record this campaign journals or resumes,
	// from which its dataset is built.
	var matchers matcherSet
	runs := make([]*experimentRun, matrix)
	var doneMu sync.Mutex
	var done JournalSet

	// First terminal failure under the abort policy: record it once and
	// cancel the campaign context so no further experiments launch.
	var abortMu sync.Mutex
	var abortErr error
	abort := func(err error) {
		abortMu.Lock()
		if abortErr == nil {
			abortErr = err
			cancel()
		}
		abortMu.Unlock()
	}
	// finish checkpoints one experiment's terminal record and folds it
	// into the campaign's dataset.
	finish := func(rec JournalRecord) {
		r.appendJournal(rec, abort)
		doneMu.Lock()
		done.Add(rec)
		doneMu.Unlock()
	}

	// Progress dispatch: Index is assigned under the lock (preserving the
	// documented in-order delivery), but the callback itself runs on a
	// dedicated dispatcher goroutine so a slow sink never blocks a
	// worker's completion bookkeeping. The buffer holds every possible
	// event, so the in-lock send cannot block either.
	var progressCh chan ProgressEvent
	progressDone := make(chan struct{})
	if r.Opts.OnProgress != nil {
		progressCh = make(chan ProgressEvent, len(jobs))
		go func() {
			defer close(progressDone)
			for ev := range progressCh {
				r.Opts.OnProgress(ev)
			}
		}()
	} else {
		close(progressDone)
	}
	var progressMu sync.Mutex
	completed := 0
	emitProgress := func(ev ProgressEvent) {
		if progressCh == nil {
			return
		}
		ev.Total = len(jobs)
		progressMu.Lock()
		completed++
		ev.Index = completed
		progressCh <- ev
		progressMu.Unlock()
	}

	// Resume: experiments the journal already records are replayed from
	// it instead of re-measured; everything else runs normally. Journal
	// records that match no job in this campaign are stale — a journal
	// from a different campaign spec (other services, or a changed subset).
	// They are never replayed, but the mismatch is warned about and
	// recorded in Dataset.Meta.StaleResume rather than ignored silently.
	var staleResume []string
	if r.Opts.Resume.Len() > 0 {
		known := make(map[string]bool, len(jobs))
		for _, j := range jobs {
			known[ExperimentKey(j.spec.Key, j.cell)] = true
		}
		for _, k := range r.Opts.Resume.Keys() {
			if !known[k] {
				staleResume = append(staleResume, k)
			}
		}
		if len(staleResume) > 0 {
			r.Opts.Metrics.Counter("campaign.stale_resume").Add(int64(len(staleResume)))
			r.Opts.Logger.Warn("stale resume journal: records match no experiment in this campaign",
				"stale", len(staleResume), "journaled", r.Opts.Resume.Len(), "keys", staleResume)
		}
	}
	var torun []campaignJob
	resumedCount := 0
	for _, j := range jobs {
		rec, ok := r.Opts.Resume.Lookup(j.spec.Key, j.cell)
		if !ok || rec.Result == nil {
			torun = append(torun, j)
			continue
		}
		resumedCount++
		done.Add(rec)
		emitProgress(ProgressEvent{
			Service: j.spec.Key, OS: j.cell.OS, Medium: j.cell.Medium,
			Excluded: rec.Result.Excluded && !rec.Skipped,
			Flows:    rec.Result.TotalFlows, Leaks: len(rec.Result.Leaks),
			Attempts: rec.Attempts, Skipped: rec.Skipped, Resumed: true,
		})
	}
	if resumedCount > 0 {
		r.Opts.Metrics.Counter("campaign.resumed").Add(int64(resumedCount))
		tr.Emit(trace.Event{Type: trace.EvCampaignResume, Attrs: map[string]string{
			"experiments": strconv.Itoa(resumedCount),
			"remaining":   strconv.Itoa(len(torun)),
		}})
		r.Opts.Logger.Info("campaign resume", "journaled", resumedCount, "remaining", len(torun))
	}

	sem := make(chan struct{}, r.Opts.Parallelism)
	var wg sync.WaitGroup
	for _, j := range torun {
		wg.Add(1)
		go func(j campaignJob) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return // aborted or canceled before this experiment launched
			}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			base := time.Date(2016, 4, 1, 9, 0, 0, 0, time.UTC).Add(time.Duration(j.idx) * 10 * time.Minute)
			start := time.Now()
			run, attempts, err := r.runExperimentResilient(ctx, j.spec, j.cell, base, &matchers)
			ev := ProgressEvent{
				Service: j.spec.Key, OS: j.cell.OS, Medium: j.cell.Medium,
				Elapsed: time.Since(start), Attempts: attempts,
			}
			if err != nil {
				if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
					return // campaign shutdown, not an experiment verdict
				}
				ev.Err = err
				if r.Opts.failurePolicy().aborts() {
					abort(err)
					emitProgress(ev)
					return
				}
				ev.Skipped = true
				finish(JournalRecord{
					Service: j.spec.Key, OS: j.cell.OS, Medium: j.cell.Medium,
					Attempts: attempts, Skipped: true,
					Stage: failureStage(err), Error: err.Error(),
					Result: r.skipExperiment(j.spec, j.cell, err, attempts),
				})
				emitProgress(ev)
				return
			}
			runs[j.idx] = run
			ev.Excluded = run.result.Excluded
			ev.Flows = run.result.TotalFlows
			ev.Leaks = len(run.result.Leaks)
			finish(JournalRecord{
				Service: j.spec.Key, OS: j.cell.OS, Medium: j.cell.Medium,
				Attempts: attempts, Result: run.result,
			})
			emitProgress(ev)
		}(j)
	}
	wg.Wait()
	if progressCh != nil {
		close(progressCh)
	}
	<-progressDone

	ds := done.Dataset(Meta{
		GeneratedAt: time.Now(),
		Scale:       r.Opts.Scale,
		Duration:    r.Opts.Duration,
		StaleResume: staleResume,
	})

	abortMu.Lock()
	err := abortErr
	abortMu.Unlock()
	if err == nil && parent.Err() != nil {
		err = parent.Err()
	}
	if err != nil {
		tr.Emit(trace.Event{Type: trace.EvCampaignEnd,
			DurNS: time.Since(campaignStart).Nanoseconds(),
			Attrs: map[string]string{
				"error":     err.Error(),
				"completed": strconv.Itoa(len(ds.Results)),
			}})
		r.Opts.Logger.Error("campaign failed", "err", err, "completed", len(ds.Results))
		// The partial dataset travels with the error: completed
		// experiments are never discarded (docs/robustness.md).
		return ds, runs, err
	}

	if r.Opts.TrainRecon {
		reconSpan := r.Opts.Metrics.HistogramVec("stage", "ns", "stage").WithLabelValues("recon").Span()
		report, holdout := r.annotateWithRecon(runs)
		reconSpan.End()
		ds.Meta.ReconReport = report
		ds.Meta.ReconHoldout = holdout
	}
	stats := ds.Stats()
	tr.Emit(trace.Event{Type: trace.EvCampaignEnd,
		DurNS: time.Since(campaignStart).Nanoseconds(),
		Attrs: map[string]string{
			"experiments": strconv.Itoa(stats.Experiments),
			"excluded":    strconv.Itoa(stats.Excluded),
			"skipped":     strconv.Itoa(len(ds.Meta.Failures)),
			"flows":       strconv.Itoa(stats.TotalFlows),
			"leaks":       strconv.Itoa(stats.LeakFlows),
		}})
	r.Opts.Logger.Info("campaign end", "experiments", stats.Experiments,
		"excluded", stats.Excluded, "skipped", len(ds.Meta.Failures),
		"flows", stats.TotalFlows, "leaks", stats.LeakFlows,
		"elapsed", time.Since(campaignStart))
	return ds, runs, nil
}

// failurePolicy resolves the configured policy (zero value = abort).
func (o Options) failurePolicy() FailurePolicy {
	if o.FailurePolicy == "" {
		return FailAbort
	}
	return o.FailurePolicy
}

// skipExperiment converts a terminal failure into an excluded placeholder
// cell, so the report and figures show the hole instead of losing the
// campaign (graceful degradation under FailSkip / FailRetrySkip).
func (r *Runner) skipExperiment(spec *services.Spec, cell services.Cell, err error, attempts int) *ExperimentResult {
	reg := r.Opts.Metrics
	reg.Counter("campaign.skipped").Inc()
	r.Opts.Tracer.Emit(trace.Event{Type: trace.EvExperimentSkip, Attrs: map[string]string{
		"service": spec.Key, "os": string(cell.OS), "medium": string(cell.Medium),
		"attempts": strconv.Itoa(attempts), "error": err.Error(),
	}})
	r.Opts.Logger.Warn("experiment skipped", "service", spec.Key,
		"os", string(cell.OS), "medium", string(cell.Medium),
		"attempts", attempts, "err", err)
	return &ExperimentResult{
		Service: spec.Key, Name: spec.Name, Category: spec.Category,
		Rank: spec.Rank, OS: cell.OS, Medium: cell.Medium,
		Excluded:      true,
		ExcludeReason: fmt.Sprintf("experiment failed after %d attempt(s): %v", attempts, err),
	}
}

// failureStage names the pipeline stage a terminal failure came from, or
// "" when the error is not an ExperimentError.
func failureStage(err error) string {
	var xerr *ExperimentError
	if errors.As(err, &xerr) {
		return xerr.Stage
	}
	return ""
}

// appendJournal checkpoints one completed experiment. A journal write
// failure aborts the campaign: continuing would silently void the
// crash-safety the journal exists to provide.
func (r *Runner) appendJournal(rec JournalRecord, abort func(error)) {
	if r.Opts.Journal == nil {
		return
	}
	if err := r.Opts.Journal.Append(rec); err != nil {
		abort(err)
	}
}

// annotateWithRecon trains the classifier on the campaign's labeled flows
// (ground truth from the controlled experiments) and re-annotates every
// leak record with detector provenance. It returns the training-corpus
// evaluation and a held-out (50/50 split) generalization report.
func (r *Runner) annotateWithRecon(runs []*experimentRun) (report, holdout string) {
	var labeled []recon.LabeledFlow
	for _, run := range runs {
		// Resumed, skipped and unrun experiments have no slot, and excluded
		// ones no flows or detector; neither contributes to (re)training.
		if run == nil || run.result.Excluded {
			continue
		}
		batch := run.det.NewBatch()
		for _, f := range run.flows {
			labeled = append(labeled, recon.LabeledFlow{
				Flow:  f,
				Types: batch.Detect(f).Types,
			})
		}
	}
	if len(labeled) == 0 {
		return "", ""
	}
	clf := recon.Train(labeled, recon.Options{})

	for _, run := range runs {
		if run == nil || run.result.Excluded {
			continue
		}
		run.det.Recon = clf
		byID := make(map[int64]*capture.Flow, len(run.flows))
		for _, f := range run.flows {
			byID[f.ID] = f
		}
		batch := run.det.NewBatch()
		for i := range run.result.Leaks {
			l := &run.result.Leaks[i]
			f := byID[l.FlowID]
			if f == nil {
				continue
			}
			detection := batch.Detect(f)
			for _, t := range l.Types.Types() {
				if v, ok := detection.FoundBy[t.Abbrev()]; ok {
					l.FoundBy[t.Abbrev()] = v
				}
			}
		}
	}
	return recon.Report(recon.Evaluate(clf, labeled)),
		recon.Report(recon.SplitEvaluate(labeled, 0.5, recon.Options{}))
}
