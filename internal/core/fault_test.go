package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/obs"
	"appvsweb/internal/obs/trace"
	"appvsweb/internal/proxy"
	"appvsweb/internal/services"
)

func TestRetryPolicyDelay(t *testing.T) {
	// Defaults: base 500ms, so attempt 0 lands in [250ms, 500ms).
	var zero RetryPolicy
	if d := zero.Delay(0, "seed"); d < 250*time.Millisecond || d >= 500*time.Millisecond {
		t.Errorf("default attempt-0 delay = %v, want [250ms, 500ms)", d)
	}

	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	cases := []struct {
		attempt int
		lo, hi  time.Duration // jitter keeps Delay in [lo, hi)
	}{
		{0, 50 * time.Millisecond, 100 * time.Millisecond},
		{1, 100 * time.Millisecond, 200 * time.Millisecond},
		{2, 200 * time.Millisecond, 400 * time.Millisecond},
		{6, 500 * time.Millisecond, time.Second}, // capped at MaxDelay
	}
	for _, c := range cases {
		d := p.Delay(c.attempt, "svc/android/app")
		if d < c.lo || d >= c.hi {
			t.Errorf("attempt %d: delay = %v, want [%v, %v)", c.attempt, d, c.lo, c.hi)
		}
		if again := p.Delay(c.attempt, "svc/android/app"); again != d {
			t.Errorf("attempt %d: delay not deterministic: %v then %v", c.attempt, d, again)
		}
	}
}

func TestParseFailurePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want FailurePolicy
		ok   bool
	}{
		{"", FailAbort, true},
		{"abort", FailAbort, true},
		{"skip", FailSkip, true},
		{"retry-then-skip", FailRetrySkip, true},
		{"bogus", "", false},
	}
	for _, c := range cases {
		got, err := ParseFailurePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseFailurePolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestClassifyRetryable(t *testing.T) {
	cases := []struct {
		name  string
		stage string
		err   error
		want  bool
	}{
		{"canceled context is never retried", StageSession, context.Canceled, false},
		{"deadline gets a fresh attempt", StageSession, context.DeadlineExceeded, true},
		{"transient injected fault", StageAnalysis, &InjectedFault{Stage: StageAnalysis, Transient: true}, true},
		{"fatal injected fault wins over stage default", StageSession, &InjectedFault{Stage: StageSession}, false},
		{"net errors are transient", StageAnalysis, &net.DNSError{IsTimeout: true}, true},
		{"unknown session errors default to transient", StageSession, errors.New("boom"), true},
		{"unknown proxy errors default to transient", StageProxy, errors.New("boom"), true},
		{"analysis errors are deterministic, hence fatal", StageAnalysis, errors.New("boom"), false},
	}
	for _, c := range cases {
		if got := classifyRetryable(c.stage, c.err); got != c.want {
			t.Errorf("%s: classifyRetryable(%s, %v) = %v, want %v", c.name, c.stage, c.err, got, c.want)
		}
	}
}

func TestExperimentErrorMessage(t *testing.T) {
	inner := errors.New("listener died")
	err := &ExperimentError{
		Service: "grubexpress",
		Cell:    services.Cell{OS: services.Android, Medium: services.App},
		Stage:   StageProxy, Attempt: 1, Retryable: true, Err: inner,
	}
	msg := err.Error()
	for _, want := range []string{"grubexpress", "android", "app", "proxy", "attempt 2", "retryable", "listener died"} {
		if !contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
	if !errors.Is(err, inner) {
		t.Error("Unwrap broken")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// resultFor finds one cell's result in a dataset.
func resultFor(t *testing.T, ds *Dataset, service string, os services.OS, medium services.Medium) *ExperimentResult {
	t.Helper()
	for _, res := range ds.Results {
		if res.Service == service && res.OS == os && res.Medium == medium {
			return res
		}
	}
	t.Fatalf("no result for %s/%s/%s", service, os, medium)
	return nil
}

// TestFailurePolicySkipKeepsCampaign is the issue's acceptance scenario:
// three experiments fail terminally under FailurePolicy=skip, the campaign
// completes, the failed cells become excluded placeholders, and the three
// failures land in Dataset.Meta.Failures.
func TestFailurePolicySkipKeepsCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	reg := obs.New()
	faults := NewScriptedFaults(
		FaultRule{Service: "grubexpress", Cell: services.Cell{OS: services.Android, Medium: services.App}, Stage: StageSession, Times: -1},
		FaultRule{Service: "grubexpress", Cell: services.Cell{OS: services.IOS, Medium: services.Web}, Stage: StageAnalysis, Times: -1},
		FaultRule{Service: "docuscan", Cell: services.Cell{OS: services.Android, Medium: services.Web}, Stage: StageProxy, Times: -1},
	)
	r := testRunner(t, Options{
		Scale: 0.1, Metrics: reg,
		FailurePolicy: FailSkip,
		FaultInjector: faults,
	}, "grubexpress", "docuscan")
	ds, err := r.RunCampaign()
	if err != nil {
		t.Fatalf("skip policy must not fail the campaign: %v", err)
	}
	if len(ds.Results) != 8 {
		t.Fatalf("results = %d, want 8 (every cell present)", len(ds.Results))
	}
	if len(ds.Meta.Failures) != 3 {
		t.Fatalf("Meta.Failures = %d, want 3: %+v", len(ds.Meta.Failures), ds.Meta.Failures)
	}
	wantStage := map[string]string{
		"grubexpress/android/app": StageSession,
		"grubexpress/ios/web":     StageAnalysis,
		"docuscan/android/web":    StageProxy,
	}
	for _, f := range ds.Meta.Failures {
		key := f.Service + "/" + string(f.OS) + "/" + string(f.Medium)
		if wantStage[key] == "" {
			t.Errorf("unexpected failure %+v", f)
			continue
		}
		if f.Stage != wantStage[key] {
			t.Errorf("%s: failure stage = %q, want %q", key, f.Stage, wantStage[key])
		}
		if f.Attempts != 1 || f.Error == "" {
			t.Errorf("%s: failure record incomplete: %+v", key, f)
		}
		res := resultFor(t, ds, f.Service, f.OS, f.Medium)
		if !res.Excluded || !contains(res.ExcludeReason, "experiment failed") {
			t.Errorf("%s: skipped cell not an excluded placeholder: %+v", key, res)
		}
	}
	// The other five cells measured normally.
	healthy := 0
	for _, res := range ds.Results {
		if !res.Excluded {
			if res.TotalFlows == 0 {
				t.Errorf("%s/%s/%s: no flows", res.Service, res.OS, res.Medium)
			}
			healthy++
		}
	}
	if healthy != 5 {
		t.Errorf("healthy cells = %d, want 5", healthy)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["campaign.skipped"]; got != 3 {
		t.Errorf("campaign.skipped = %d, want 3", got)
	}
	if got := snap.Counters["campaign.retries"]; got != 0 {
		t.Errorf("campaign.retries = %d, want 0 (fatal faults must not retry)", got)
	}
}

// TestFailurePolicyAbortReturnsPartial: under the default policy, the
// first terminal failure stops launching further experiments, and the
// completed experiments travel back with the error instead of being
// discarded.
func TestFailurePolicyAbortReturnsPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	reg := obs.New()
	faults := NewScriptedFaults(
		// The second experiment to launch fails; with Parallelism 1 the
		// first completes and everything after the failure never starts.
		FaultRule{Stage: StageSession, OnCall: 2, Times: -1},
	)
	r := testRunner(t, Options{
		Scale: 0.1, Parallelism: 1, Metrics: reg,
		FaultInjector: faults,
	}, "grubexpress")
	ds, err := r.RunCampaign()
	if err == nil {
		t.Fatal("abort policy must surface the failure")
	}
	var xerr *ExperimentError
	if !errors.As(err, &xerr) {
		t.Fatalf("error is %T, want *ExperimentError: %v", err, err)
	}
	if xerr.Stage != StageSession || xerr.Service != "grubexpress" {
		t.Errorf("error attribution: %+v", xerr)
	}
	if ds == nil {
		t.Fatal("partial dataset discarded on abort")
	}
	if len(ds.Results) != 1 {
		t.Errorf("partial results = %d, want 1 (completed before the failure)", len(ds.Results))
	}
	if len(ds.Meta.Failures) != 0 {
		t.Errorf("abort policy must not record skip failures: %+v", ds.Meta.Failures)
	}
	// Launch stopped: only the completed and the failed experiment ran.
	if got := reg.Snapshot().Counters["campaign.experiments_total"]; got != 2 {
		t.Errorf("experiments launched = %d, want 2 (abort must stop the campaign)", got)
	}
}

// TestFailurePolicyRetryThenSkipRecovers: a fault that fires once is
// absorbed by the retry budget and the experiment succeeds on attempt 2.
func TestFailurePolicyRetryThenSkipRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	reg := obs.New()
	faults := NewScriptedFaults(
		FaultRule{
			Service: "grubexpress", Cell: services.Cell{OS: services.Android, Medium: services.App},
			Stage: StageSession, OnCall: 1, Times: 0, Transient: true,
		},
	)
	var mu sync.Mutex
	attempts := map[string]int{}
	r := testRunner(t, Options{
		Scale: 0.1, Metrics: reg,
		FailurePolicy: FailRetrySkip,
		Retry:         RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		FaultInjector: faults,
		OnProgress: func(ev ProgressEvent) {
			mu.Lock()
			attempts[ev.Service+"/"+string(ev.OS)+"/"+string(ev.Medium)] = ev.Attempts
			mu.Unlock()
		},
	}, "grubexpress")
	ds, err := r.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Meta.Failures) != 0 {
		t.Fatalf("transient fault must be retried away: %+v", ds.Meta.Failures)
	}
	res := resultFor(t, ds, "grubexpress", services.Android, services.App)
	if res.Excluded || res.TotalFlows == 0 {
		t.Errorf("recovered experiment incomplete: %+v", res)
	}
	if got := reg.Snapshot().Counters["campaign.retries"]; got != 1 {
		t.Errorf("campaign.retries = %d, want 1", got)
	}
	if got := attempts["grubexpress/android/app"]; got != 2 {
		t.Errorf("progress Attempts = %d, want 2", got)
	}
}

// TestFailurePolicyRetryThenSkipExhausts: a persistent transient fault
// burns the default retry budget (2) and the experiment is then skipped.
func TestFailurePolicyRetryThenSkipExhausts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	reg := obs.New()
	faults := NewScriptedFaults(
		FaultRule{
			Service: "grubexpress", Cell: services.Cell{OS: services.IOS, Medium: services.App},
			Stage: StageSession, Times: -1, Transient: true,
		},
	)
	r := testRunner(t, Options{
		Scale: 0.1, Metrics: reg,
		FailurePolicy: FailRetrySkip,
		Retry:         RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		FaultInjector: faults,
	}, "grubexpress")
	ds, err := r.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Meta.Failures) != 1 {
		t.Fatalf("Meta.Failures = %+v, want 1 entry", ds.Meta.Failures)
	}
	if f := ds.Meta.Failures[0]; f.Attempts != 3 || f.Stage != StageSession {
		t.Errorf("failure record = %+v, want 3 attempts at session stage", f)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["campaign.retries"]; got != 2 {
		t.Errorf("campaign.retries = %d, want 2", got)
	}
	if got := snap.Counters["campaign.skipped"]; got != 1 {
		t.Errorf("campaign.skipped = %d, want 1", got)
	}
}

// TestExperimentTimeoutStall: a stage that hangs is cut down by
// Options.ExperimentTimeout and counted in campaign.deadline_exceeded.
func TestExperimentTimeoutStall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	reg := obs.New()
	faults := NewScriptedFaults(
		FaultRule{
			Service: "grubexpress", Cell: services.Cell{OS: services.Android, Medium: services.Web},
			Stage: StageSession, Times: -1, Stall: true,
		},
	)
	r := testRunner(t, Options{
		Scale: 0.1, Metrics: reg,
		FailurePolicy: FailSkip,
		// Generous enough for healthy sessions even under -race; only the
		// stalled experiment runs into it.
		ExperimentTimeout: 3 * time.Second,
		FaultInjector:     faults,
	}, "grubexpress")
	ds, err := r.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Meta.Failures) != 1 {
		t.Fatalf("Meta.Failures = %+v, want 1 entry", ds.Meta.Failures)
	}
	if f := ds.Meta.Failures[0]; !contains(f.Error, "deadline exceeded") {
		t.Errorf("failure error = %q, want deadline exceeded", f.Error)
	}
	if got := reg.Snapshot().Counters["campaign.deadline_exceeded"]; got != 1 {
		t.Errorf("campaign.deadline_exceeded = %d, want 1", got)
	}
	// The stalled cell must not have poisoned the rest.
	if res := resultFor(t, ds, "grubexpress", services.Android, services.App); res.TotalFlows == 0 {
		t.Errorf("healthy cell lost flows: %+v", res)
	}
}

// TestCampaignCancelReturnsPartial: canceling the campaign context stops
// the run and returns the completed experiments with the context error.
func TestCampaignCancelReturnsPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := testRunner(t, Options{
		Scale: 0.1, Parallelism: 1,
		OnProgress: func(ev ProgressEvent) {
			if ev.Index == 1 {
				cancel() // first completion kills the campaign
			}
		},
	}, "grubexpress")
	ds, err := r.RunCampaignContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ds == nil {
		t.Fatal("partial dataset discarded on cancellation")
	}
	if len(ds.Results) == 0 || len(ds.Results) >= 4 {
		t.Errorf("partial results = %d, want at least the first and fewer than all 4", len(ds.Results))
	}
}

// TestProgressSlowSinkOrderedDelivery: a slow OnProgress sink must still
// see every event exactly once, in completion (Index) order — delivery is
// buffered off the workers' path, not dropped or reordered.
func TestProgressSlowSinkOrderedDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	var mu sync.Mutex
	var order []int
	r := testRunner(t, Options{
		Scale: 0.1, Parallelism: 4,
		OnProgress: func(ev ProgressEvent) {
			time.Sleep(20 * time.Millisecond) // a sink slower than the workers
			mu.Lock()
			order = append(order, ev.Index)
			mu.Unlock()
		},
	}, "grubexpress")
	ds, err := r.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(ds.Results) {
		t.Fatalf("delivered %d events, want %d", len(order), len(ds.Results))
	}
	for i, idx := range order {
		if idx != i+1 {
			t.Fatalf("delivery order %v, want 1..%d in order", order, len(order))
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ok := JournalRecord{
		Service: "grubexpress", OS: services.Android, Medium: services.App,
		Attempts: 1,
		Result:   &ExperimentResult{Service: "grubexpress", OS: services.Android, Medium: services.App, TotalFlows: 7},
	}
	skipped := JournalRecord{
		Service: "docuscan", OS: services.IOS, Medium: services.Web,
		Attempts: 3, Skipped: true, Stage: StageSession, Error: "injected",
		Result: &ExperimentResult{Service: "docuscan", OS: services.IOS, Medium: services.Web, Excluded: true},
	}
	for _, rec := range []JournalRecord{ok, skipped} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A resumed run may re-append the same experiment: last record wins.
	ok.Result.TotalFlows = 9
	if err := j.Append(ok); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	set, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("journal set len = %d, want 2", set.Len())
	}
	rec, found := set.Lookup("grubexpress", services.Cell{OS: services.Android, Medium: services.App})
	if !found || rec.Result.TotalFlows != 9 {
		t.Errorf("duplicate handling: got %+v, want last record (flows=9)", rec)
	}
	rec, found = set.Lookup("docuscan", services.Cell{OS: services.IOS, Medium: services.Web})
	if !found || !rec.Skipped || rec.Stage != StageSession {
		t.Errorf("skipped record: %+v", rec)
	}
	if _, found := set.Lookup("nosuch", services.Cell{OS: services.Android, Medium: services.App}); found {
		t.Error("lookup of unjournaled experiment succeeded")
	}
}

func TestLoadJournalToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "truncated.journal")
	full := `{"service":"a","os":"android","medium":"app","result":{"service":"a"}}` + "\n"
	// The crash interrupted the final write mid-line.
	if err := os.WriteFile(path, []byte(full+`{"service":"b","os":"ios`), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("truncated tail must be tolerated: %v", err)
	}
	if set.Len() != 1 {
		t.Errorf("journal set len = %d, want 1", set.Len())
	}
}

func TestLoadJournalRejectsMidfileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.journal")
	good := `{"service":"a","os":"android","medium":"app","result":{"service":"a"}}` + "\n"
	if err := os.WriteFile(path, []byte(good+"garbage not json\n"+good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil {
		t.Fatal("mid-file corruption must be an error")
	}
}

// TestCampaignJournalResume: a campaign canceled partway leaves a journal;
// a fresh runner resuming from it replays the journaled experiments and
// measures only the remainder, ending with a complete dataset.
func TestCampaignJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	journalPath := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := CreateJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := testRunner(t, Options{
		Scale: 0.1, Parallelism: 1, Journal: j,
		OnProgress: func(ev ProgressEvent) {
			if ev.Index == 2 {
				cancel() // die after two completed experiments
			}
		},
	}, "grubexpress")
	ds, err := r.RunCampaignContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	interrupted := len(ds.Results)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	set, err := LoadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != interrupted || set.Len() == 0 {
		t.Fatalf("journal covers %d experiments, interrupted run completed %d", set.Len(), interrupted)
	}

	reg := obs.New()
	var mu sync.Mutex
	resumed := 0
	r2, err := NewRunner(r.Eco, Options{
		Scale: 0.1, Parallelism: 1, Metrics: reg, Resume: set,
		OnProgress: func(ev ProgressEvent) {
			mu.Lock()
			if ev.Resumed {
				resumed++
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := r2.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2.Results) != 4 {
		t.Fatalf("resumed campaign results = %d, want 4", len(ds2.Results))
	}
	if resumed != set.Len() {
		t.Errorf("resumed progress events = %d, want %d", resumed, set.Len())
	}
	if got := reg.Snapshot().Counters["campaign.resumed"]; got != int64(set.Len()) {
		t.Errorf("campaign.resumed = %d, want %d", got, set.Len())
	}
	for _, res := range ds2.Results {
		if !res.Excluded && res.TotalFlows == 0 {
			t.Errorf("%s/%s/%s: no flows after resume", res.Service, res.OS, res.Medium)
		}
	}
}

// TestDrainTimeoutIsRetryableError: a proxy tunnel still open when the
// drain window closes fails the attempt with a retryable ErrDrainTimeout,
// counted and traced, instead of letting the runner snapshot a capture
// that may be missing flows.
func TestDrainTimeoutIsRetryableError(t *testing.T) {
	reg := obs.New()
	tr := trace.New(trace.Options{})
	r := &Runner{Opts: Options{Metrics: reg, Tracer: tr}.withDefaults()}
	ca, err := proxy.NewCA("drain CA")
	if err != nil {
		t.Fatal(err)
	}
	sink := capture.NewMemSink()
	px, err := proxy.New(proxy.Config{CA: ca, Resolver: proxy.NewMapResolver(), Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := px.Start(); err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	if err := r.drainCapture(px, sink, 50*time.Millisecond, "s1", "svc/android/app"); err != nil {
		t.Fatalf("idle proxy failed to drain: %v", err)
	}
	// A tunnel whose client never starts its TLS handshake keeps the
	// proxy's tunnel goroutine alive for the whole handshake timeout.
	conn, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "CONNECT stall.example:443 HTTP/1.1\r\nHost: stall.example:443\r\n\r\n")
	if line, err := bufio.NewReader(conn).ReadString('\n'); err != nil || !strings.Contains(line, "200") {
		t.Fatalf("CONNECT: %q %v", line, err)
	}

	err = r.drainCapture(px, sink, 50*time.Millisecond, "s1", "svc/android/app")
	var xerr *ExperimentError
	if !errors.As(err, &xerr) || xerr.Stage != StageProxy || !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("err = %v, want a proxy-stage ErrDrainTimeout", err)
	}
	if !classifyRetryable(xerr.Stage, xerr.Err) {
		t.Error("drain timeout classified fatal, want retryable")
	}
	if got := reg.Counter("campaign.drain_timeouts_total").Value(); got != 1 {
		t.Errorf("campaign.drain_timeouts_total = %d, want 1", got)
	}
	var evs []trace.Event
	for _, ev := range tr.Events() {
		if ev.Type == trace.EvDrainTimeout {
			evs = append(evs, ev)
		}
	}
	if len(evs) != 1 || evs[0].Span != "s1" || evs[0].Attrs["client"] != "svc/android/app" || evs[0].Attrs["recorded"] != "0" {
		t.Errorf("drain timeout events = %+v", evs)
	}
}
