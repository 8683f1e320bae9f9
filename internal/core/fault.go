package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"appvsweb/internal/services"
)

// Experiment stages, as carried by ExperimentError.Stage and used by the
// fault-injection seam (FaultInjector). They name the fallible phases of
// one experiment, in execution order.
const (
	StageProxy    = "proxy"    // proxy construction, listener start, and the capture drain
	StageSession  = "session"  // the scripted device session
	StageAnalysis = "analysis" // the §3.2 analysis pipeline
	StageTrace    = "trace"    // persisting the per-experiment flow trace
)

// ErrDrainTimeout marks an attempt whose proxy still had tunnels open
// past the drain window after the session ended: their flows may be
// missing from the capture, so the attempt fails (retryably) rather than
// yield a normal-looking result with flows left out.
var ErrDrainTimeout = errors.New("proxy did not drain; flows may be missing from the capture")

// ExperimentError is the typed failure of one experiment attempt. It
// identifies the experiment (service × cell), the pipeline stage that
// failed, which attempt produced it, and whether the failure is transient
// (worth retrying) or fatal.
type ExperimentError struct {
	Service   string
	Cell      services.Cell
	Stage     string
	Attempt   int // 0-based attempt that produced the error
	Retryable bool
	Err       error
}

func (e *ExperimentError) Error() string {
	kind := "fatal"
	if e.Retryable {
		kind = "retryable"
	}
	return fmt.Sprintf("experiment %s/%s/%s: %s stage failed on attempt %d (%s): %v",
		e.Service, e.Cell.OS, e.Cell.Medium, e.Stage, e.Attempt+1, kind, e.Err)
}

func (e *ExperimentError) Unwrap() error { return e.Err }

// retryableErr lets an error carry its own retryability verdict;
// fault-injected errors (InjectedFault) and custom transports use it.
type retryableErr interface{ Retryable() bool }

// classifyRetryable decides whether an experiment failure is transient.
// Capture campaigns lose experiments to flaky proxies, stalled handshakes,
// and timeouts (the ReCon/PrivacyProxy failure model), so proxy and
// session failures default to retryable; a canceled context is never
// retried (the campaign is shutting down), while a deadline is (the next
// attempt gets a fresh per-experiment deadline). Analysis and trace-
// persistence failures are deterministic — retrying replays the same
// inputs — so they are fatal.
func classifyRetryable(stage string, err error) bool {
	var rt retryableErr
	if errors.As(err, &rt) {
		return rt.Retryable()
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var nerr net.Error
	if errors.As(err, &nerr) {
		return true
	}
	switch stage {
	case StageProxy, StageSession:
		return true
	default:
		return false
	}
}

// RetryPolicy bounds the exponential-backoff retries around transient
// experiment failures.
type RetryPolicy struct {
	// Max is the retry budget per experiment (attempts beyond the first).
	// 0 means no retries except under FailRetrySkip, which defaults to 2.
	Max int
	// BaseDelay seeds the exponential backoff (default 500ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 10s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 500 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 10 * time.Second
	}
	return p
}

// maxFor resolves the effective retry budget under a failure policy:
// FailRetrySkip guarantees retries even when none were configured.
func (p RetryPolicy) maxFor(policy FailurePolicy) int {
	if p.Max == 0 && policy == FailRetrySkip {
		return 2
	}
	return p.Max
}

// Delay computes the backoff before retry attempt (attempt is the 0-based
// attempt that just failed): BaseDelay·2^attempt, capped at MaxDelay, with
// up to 50% deterministic jitter derived from the seed so concurrent
// retries desynchronize without making test runs irreproducible.
func (p RetryPolicy) Delay(attempt int, seed string) time.Duration {
	p = p.withDefaults()
	d := p.BaseDelay
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", seed, attempt)
	frac := float64(h.Sum32()%1000) / 1000 // [0,1)
	return d/2 + time.Duration(float64(d/2)*frac)
}

// FailurePolicy decides what one experiment's terminal failure does to
// the rest of the campaign.
type FailurePolicy string

const (
	// FailAbort stops launching new experiments on the first terminal
	// failure and returns the partial dataset alongside the error. The
	// default.
	FailAbort FailurePolicy = "abort"
	// FailSkip records the failure in Dataset.Meta.Failures, marks the
	// cell excluded, and keeps the campaign going.
	FailSkip FailurePolicy = "skip"
	// FailRetrySkip retries transient failures (at least twice even with
	// no RetryPolicy configured), then skips like FailSkip.
	FailRetrySkip FailurePolicy = "retry-then-skip"
)

// ParseFailurePolicy validates a policy name from a flag or config.
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch FailurePolicy(s) {
	case "", FailAbort:
		return FailAbort, nil
	case FailSkip:
		return FailSkip, nil
	case FailRetrySkip:
		return FailRetrySkip, nil
	}
	return "", fmt.Errorf("core: unknown failure policy %q (want abort, skip, or retry-then-skip)", s)
}

// aborts reports whether a terminal experiment failure kills the campaign.
func (p FailurePolicy) aborts() bool { return p == "" || p == FailAbort }

// sleepCtx sleeps for d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
