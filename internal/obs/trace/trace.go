package trace

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event types, in pipeline order. The flow.* events carry the per-flow
// causal chain; the remaining types delimit the enclosing spans.
const (
	EvCampaignStart = "campaign.start"
	EvCampaignEnd   = "campaign.end"
	// EvCampaignResume marks a campaign continuing from a crash-safe
	// journal: attrs carry how many experiments were replayed from it.
	EvCampaignResume  = "campaign.resume"
	EvExperimentStart = "experiment.start"
	EvExperimentEnd   = "experiment.end"
	// EvExperimentRetry records one transient failure about to be retried
	// (attrs: stage, attempt, error, backoff); EvExperimentSkip records an
	// experiment the failure policy dropped after its retry budget.
	EvExperimentRetry = "experiment.retry"
	EvExperimentSkip  = "experiment.skip"
	EvSessionStart    = "session.start"
	EvSessionEnd      = "session.end"
	// EvStage records one timed pipeline stage (attrs["stage"] names it,
	// DurNS carries the wall-clock cost) within an experiment span.
	EvStage = "stage"

	EvFlowCaptured   = "flow.captured"
	EvFlowFilter     = "flow.filter"
	EvFlowCategorize = "flow.categorize"
	EvFlowPII        = "flow.pii"
	EvFlowPolicy     = "flow.policy"

	// EvTunnelFailure marks a CONNECT tunnel that died before carrying a
	// request — the certificate-pinning signature that excludes an
	// experiment.
	EvTunnelFailure = "proxy.tunnel_failure"

	// EvTunnelIdle marks an established tunnel reaped by the proxy's idle
	// read deadline (Config.IdleTimeout): interception worked, the client
	// just went silent. Attrs carry the host, requests served, and the
	// configured idle window. Counted apart from tunnel failures.
	EvTunnelIdle = "proxy.tunnel_idle"

	// EvDrainTimeout marks an experiment whose proxy still had tunnels
	// open past the drain window after its session ended (attrs: client,
	// timeout, recorded: flows recorded so far). The attempt fails
	// retryably instead of analyzing a capture that may be missing flows.
	EvDrainTimeout = "proxy.drain_timeout"

	// EvInlineVerdict records one inline-gateway verdict emitted live on
	// the proxy hot path (docs/inline.md): attrs carry the destination
	// host, the mitigation action (log/redact/block), the PII classes,
	// and the match evidence with absolute stream offsets.
	EvInlineVerdict = "proxy.inline_verdict"

	// EvArtifactCompute records one artifact cache miss in the analysis
	// engine: attrs carry the artifact ID, the dataset fingerprint prefix
	// (attribute "view"), and output size; DurNS the compute cost. Cache
	// hits emit nothing.
	EvArtifactCompute = "artifact.compute"

	// Sharded-campaign coordinator events (docs/distributed.md): a worker
	// launch (attrs: shard, attempt, experiments), a heartbeat lease
	// expiring on a stalled worker, a shard being reassigned after its
	// worker died or stalled, and the final deterministic journal merge.
	EvShardLaunch       = "shard.launch"
	EvShardLeaseExpired = "shard.lease_expired"
	EvShardReassign     = "shard.reassign"
	EvShardMerge        = "shard.merge"
)

// Event is one trace record. The JSON field names are the wire schema of
// the -trace JSONL stream (docs/tracing.md).
type Event struct {
	Time time.Time `json:"t"`
	Type string    `json:"type"`
	// Trace is the campaign-level trace ID every event of one run shares.
	Trace string `json:"trace,omitempty"`
	// Span scopes the event to one experiment (or session); Parent links a
	// child span to the span that opened it.
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Flow is the campaign-unique flow ID for flow.* events.
	Flow int64 `json:"flow,omitempty"`
	// DurNS carries a duration for .end and stage events.
	DurNS int64 `json:"dur_ns,omitempty"`
	// Attrs hold the event-type-specific fields.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Options configure a Tracer.
type Options struct {
	// Capacity bounds the in-memory ring. Default 65536 events.
	Capacity int
	// W, when set, receives every event as one JSON document per line,
	// append-only, regardless of ring eviction.
	W io.Writer
	// Now supplies event timestamps; defaults to time.Now.
	Now func() time.Time
}

// Tracer collects events. All methods are safe for concurrent use and
// valid on a nil receiver (no-ops), so emit sites need no guards.
type Tracer struct {
	traceID string
	now     func() time.Time

	mu      sync.Mutex
	ring    []Event
	start   int // index of oldest event
	count   int // events currently in the ring
	total   int64
	spanSeq int64
	bw      *bufio.Writer
	enc     *json.Encoder
	werr    error
}

// New builds a tracer with a fresh trace ID.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 65536
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	t := &Tracer{
		traceID: newTraceID(),
		now:     opts.Now,
		ring:    make([]Event, opts.Capacity),
	}
	if opts.W != nil {
		t.bw = bufio.NewWriter(opts.W)
		t.enc = json.NewEncoder(t.bw)
	}
	return t
}

// newTraceID returns 8 random hex bytes, e.g. "9f1c04aa".
func newTraceID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// TraceID returns the campaign-level trace identifier ("" on nil).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// NewSpanID allocates the next span identifier ("s1", "s2", ...).
func (t *Tracer) NewSpanID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	t.spanSeq++
	n := t.spanSeq
	t.mu.Unlock()
	return fmt.Sprintf("s%d", n)
}

// Emit records one event, stamping Time and Trace when unset.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = t.now()
	}
	if e.Trace == "" {
		e.Trace = t.traceID
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if t.count < len(t.ring) {
		t.ring[(t.start+t.count)%len(t.ring)] = e
		t.count++
	} else {
		t.ring[t.start] = e
		t.start = (t.start + 1) % len(t.ring)
	}
	if t.enc != nil && t.werr == nil {
		t.werr = t.enc.Encode(e)
	}
}

// Stage returns a closure that, when called, emits one EvStage event for
// the named pipeline stage with the elapsed wall-clock duration.
func (t *Tracer) Stage(span, stage string) func() {
	if t == nil {
		return func() {}
	}
	start := t.now()
	return func() {
		t.Emit(Event{
			Type:  EvStage,
			Span:  span,
			DurNS: t.now().Sub(start).Nanoseconds(),
			Attrs: map[string]string{"stage": stage},
		})
	}
}

// Events returns the ring contents in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.count)
	for i := 0; i < t.count; i++ {
		out[i] = t.ring[(t.start+i)%len(t.ring)]
	}
	return out
}

// Total reports how many events were emitted over the tracer's lifetime,
// including any the ring has since evicted.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Flush drains the stream writer's buffer and returns the first write
// error, if any.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bw != nil && t.werr == nil {
		t.werr = t.bw.Flush()
	}
	return t.werr
}

// ReadEvents decodes a JSONL event stream written by a Tracer.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: decode event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}
