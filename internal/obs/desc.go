package obs

import "sort"

// MetricDesc is the in-code description of one metric family: its type,
// unit, label dimensions, and one-line help text. The table below is the
// canonical metric catalog — the text exposition derives its # HELP lines
// from it, and the metric/doc drift lint (metricsdoc_test.go at the repo
// root) fails the build when a metric is emitted in code but missing here
// or in docs/metrics.md (or vice versa).
type MetricDesc struct {
	Type   string   // "counter", "gauge", or "histogram"
	Unit   string   // histogram unit ("ns", "bytes"); empty otherwise
	Labels []string // label dimensions for vec families; nil for flat metrics
	Help   string   // one-line meaning, rendered as # HELP
}

// descriptions catalogs every metric family the instrumented packages
// emit, keyed by the code-level family name (vec families without their
// label or unit suffixes). Keep docs/metrics.md in sync — the drift lint
// enforces it.
var descriptions = map[string]MetricDesc{
	// internal/obs itself
	"obs.unit_conflicts_total":      {Type: "counter", Help: "Histogram registrations that disagreed with the first caller's unit; the first unit is kept."},
	"obs.label_conflicts_total":     {Type: "counter", Help: "Vec registrations that disagreed with the first caller's label names; the first label set is kept."},
	"obs.cardinality_limited_total": {Type: "counter", Help: "Series resolutions collapsed into a vec's shared overflow series because the family hit its cardinality bound."},
	"obs.watch.trips_total":         {Type: "counter", Help: "Watch rules that transitioned into the tripped state (threshold crossed over its window)."},

	// internal/proxy
	"proxy.requests_total":          {Type: "counter", Help: "Request/response exchanges served (plaintext + tunneled), across every proxy instance in the process."},
	"proxy.tunnels_total":           {Type: "counter", Help: "CONNECT tunnels accepted."},
	"proxy.tunnels_resumed_total":   {Type: "counter", Help: "CONNECT tunnels whose device-side TLS handshake resumed a session (abbreviated handshake; the resumed share is this over proxy.tunnels_total)."},
	"proxy.tunnel_failures_total":   {Type: "counter", Help: "TLS-intercept failures: handshakes that failed or timed out, or tunnels aborted before the first request."},
	"proxy.upstream_errors_total":   {Type: "counter", Help: "502s returned because the upstream dial or round-trip failed."},
	"proxy.upstream_conns_total":    {Type: "counter", Help: "Connections the upstream pool dialed to origins; proxies built from one proxy.Sessions share the pool, so this stays well below proxy.requests_total."},
	"proxy.bytes_up_total":          {Type: "counter", Help: "Approximate request wire bytes through all proxies."},
	"proxy.bytes_down_total":        {Type: "counter", Help: "Approximate response wire bytes through all proxies."},
	"proxy.flow_bytes":              {Type: "histogram", Unit: "bytes", Help: "Wire size (up + down) of one captured exchange."},
	"proxy.inline.flows_total":      {Type: "counter", Help: "Exchanges inspected by the inline streaming PII gateway (verdict or not)."},
	"proxy.inline.bytes_total":      {Type: "counter", Help: "Request body bytes fed through the gateway's stream scanner as they transited."},
	"proxy.inline.matches_total":    {Type: "counter", Help: "PII occurrences (URL + headers + body) behind inline verdicts."},
	"proxy.inline.verdicts":         {Type: "counter", Labels: []string{"action"}, Help: "Flows that carried ground-truth PII, by the mitigation action applied (log, redact, block)."},
	"proxy.tunnel_idle_reaps_total": {Type: "counter", Help: "Established tunnels reaped by the idle read deadline between requests (interception worked; the client went silent). Counted apart from tunnel failures."},
	"proxy.h2.conns_total":          {Type: "counter", Help: "CONNECT tunnels whose client negotiated HTTP/2 via ALPN and were served by the multiplexing h2 path."},
	"proxy.h2.streams_total":        {Type: "counter", Help: "HTTP/2 streams decoded into per-stream flows across all h2 tunnels."},
	"proxy.ws.conns_total":          {Type: "counter", Help: "Tunneled requests upgraded to WebSocket and relayed frame-by-frame."},
	"proxy.ws.frames":               {Type: "counter", Labels: []string{"dir"}, Help: "WebSocket frames relayed, by direction (up = client-to-origin and scanned inline, down = origin-to-client)."},
	"proxy.ws.bytes_total":          {Type: "counter", Help: "WebSocket payload bytes relayed in both directions (pre-mitigation sizes)."},

	// internal/pii
	"pii.scan.calls_total":   {Type: "counter", Help: "Matcher/Scanner scan invocations on non-empty content."},
	"pii.scan.needles_total": {Type: "counter", Help: "Needles covered per scan (scan calls x needles per matcher) — the detection workload volume."},
	"pii.match.hits":         {Type: "counter", Labels: []string{"encoding"}, Help: "Needle hits by wire encoding (identity, base64, md5, ...)."},
	"pii.stream.bytes_total": {Type: "counter", Help: "Bytes consumed by StreamScanner writes (the streaming detection workload volume)."},

	// internal/recon
	"recon.train.flows_total": {Type: "counter", Help: "Labeled flows fed to classifier training (cumulative over Train calls)."},
	"recon.train_ns":          {Type: "histogram", Unit: "ns", Help: "One classifier training pass."},
	"recon.eval_ns":           {Type: "histogram", Unit: "ns", Help: "One evaluation pass over labeled flows."},

	// internal/core
	"campaign.experiments_total":    {Type: "counter", Help: "Experiments completed (including pinning exclusions)."},
	"campaign.excluded_total":       {Type: "counter", Help: "Experiments excluded because certificate pinning prevented decryption."},
	"campaign.retries":              {Type: "counter", Help: "Experiment attempts retried after a transient failure (exponential backoff)."},
	"campaign.skipped":              {Type: "counter", Help: "Experiments dropped by the skip/retry-then-skip failure policies."},
	"campaign.deadline_exceeded":    {Type: "counter", Help: "Experiment attempts cut down by Options.ExperimentTimeout."},
	"campaign.drain_timeouts_total": {Type: "counter", Help: "Experiment attempts failed (retryably) because the proxy still had tunnels open past the drain window, so the capture could be missing flows."},
	"campaign.resumed":              {Type: "counter", Help: "Experiments replayed from a -resume journal instead of re-measured."},
	"campaign.stale_resume":         {Type: "counter", Help: "Resume-journal records that matched no experiment in the current campaign spec; ignored."},
	"campaign.flows_total":          {Type: "counter", Help: "Post-filter (foreground) flows analyzed."},
	"campaign.leaks_total":          {Type: "counter", Help: "Leak records produced by the paper's 3.2 policy."},
	"campaign.inflight":             {Type: "gauge", Help: "Experiments currently executing (bounded by Options.Parallelism)."},
	"campaign.jobs":                 {Type: "gauge", Help: "Total experiments in the running campaign (set once at campaign start)."},
	"campaign.experiment_ns":        {Type: "histogram", Unit: "ns", Help: "Whole experiment: proxy boot, session, analysis, trace save."},
	"stage":                         {Type: "histogram", Unit: "ns", Labels: []string{"stage"}, Help: "Pipeline stage wall time per experiment (session, filter, detect, categorize, recon)."},

	// internal/shard
	"campaign.shards":           {Type: "gauge", Help: "Shard count of the running distributed campaign (set once by the coordinator)."},
	"campaign.reassigned_total": {Type: "counter", Help: "Shard relaunches after a worker died or its heartbeat lease expired; journal resume bounds the re-run work."},
	"shard.lease_expired":       {Type: "counter", Help: "Worker heartbeat leases that expired (no progress within Config.LeaseTTL); the worker is killed and its shard reassigned."},

	// internal/serve
	"serve.requests_total":     {Type: "counter", Help: "HTTP requests handled by the report server (app, /api/*, /live; debug endpoints and the SSE stream excluded)."},
	"serve.responses":          {Type: "counter", Labels: []string{"class"}, Help: "Responses by status class (2xx, 3xx, 4xx, 5xx) on the instrumented routes."},
	"serve.request_ns":         {Type: "histogram", Unit: "ns", Help: "Report-server request latency (app, /api/*, /live; SSE excluded)."},
	"serve.sse_subscribers":    {Type: "gauge", Help: "SSE clients currently connected at /api/{ds}/events."},
	"serve.sse_connects_total": {Type: "counter", Help: "SSE subscriptions accepted at /api/{ds}/events (cumulative)."},
	"serve.sse_events_total":   {Type: "counter", Help: "Invalidate frames written to SSE clients (hello and keepalive frames excluded)."},
	"serve.sse_evicted_total":  {Type: "counter", Help: "SSE clients disconnected because their event queue overflowed (slow consumer evicted)."},

	// internal/analysis
	"analysis.cache_hits_total":        {Type: "counter", Help: "Artifact requests served from the engine cache (warm fetches plus singleflight joiners)."},
	"analysis.cache_misses_total":      {Type: "counter", Help: "Artifact requests that computed: one per (dataset fingerprint, artifact) pair actually built."},
	"analysis.cache_evictions_total":   {Type: "counter", Help: "Cached artifacts evicted because an insert pushed the cache past its 1024-entry bound."},
	"analysis.store_hits_total":        {Type: "counter", Help: "Artifact requests rehydrated from the persistent store instead of computed."},
	"analysis.store_misses_total":      {Type: "counter", Help: "Store lookups that found no entry (the artifact is then computed and written back)."},
	"analysis.store_writes_total":      {Type: "counter", Help: "Artifacts mirrored into the store after a compute (atomic temp+rename)."},
	"analysis.store_errors_total":      {Type: "counter", Help: "Store reads/writes that failed, including SHA-256-verified corrupt entries (deleted and recomputed)."},
	"analysis.store_read_bytes_total":  {Type: "counter", Help: "Payload bytes rehydrated from the store."},
	"analysis.store_write_bytes_total": {Type: "counter", Help: "Payload bytes written to the store."},
	"analysis.events_published_total":  {Type: "counter", Help: "Invalidation events published on the engine's event bus (one per dataset update)."},
	"analysis.events_dropped_total":    {Type: "counter", Help: "Subscribers evicted from the bus because their queue was full when an event arrived."},
	"analysis.live.records_total":      {Type: "counter", Help: "Journal records folded into live partial datasets by -live tails."},
	"analysis.live.folds_total":        {Type: "counter", Help: "Dataset generations produced by live tailing (one per poll that saw new records)."},
	"analysis.live.bad_lines_total":    {Type: "counter", Help: "Complete-but-undecodable journal lines a live tail skipped."},
	"analysis.live.resets_total":       {Type: "counter", Help: "Live folds discarded because the journal was replaced (shrank, changed inode, or failed the first-line fingerprint — a fresh campaign reused the path)."},
	"analysis.live.poll_errors_total":  {Type: "counter", Help: "Background journal polls that failed (retried next tick)."},
	"analysis.datasets":                {Type: "gauge", Help: "Datasets registered with the artifact engine (static + live)."},
	"analysis.live.experiments":        {Type: "gauge", Help: "Experiments folded so far by the most recent live-tail poll."},
	"analysis.compute":                 {Type: "histogram", Unit: "ns", Labels: []string{"artifact"}, Help: "Compute latency per artifact ID; observed on cache misses only."},
	"analysis.compute_ns":              {Type: "histogram", Unit: "ns", Help: "One artifact computation, any artifact (rollup of the analysis.compute family)."},

	// runtime self-scrape (obs.Recorder)
	"runtime.goroutines":  {Type: "gauge", Help: "Live goroutines, sampled from runtime/metrics each recorder tick."},
	"runtime.heap_bytes":  {Type: "gauge", Help: "Bytes of live heap objects, sampled from runtime/metrics each recorder tick."},
	"runtime.alloc_bytes": {Type: "gauge", Help: "Cumulative bytes allocated on the heap, sampled from runtime/metrics each recorder tick."},
	"runtime.gc_cycles":   {Type: "gauge", Help: "Completed GC cycles, sampled from runtime/metrics each recorder tick."},
}

// Describe returns the catalog entry for a code-level metric family name.
func Describe(name string) (MetricDesc, bool) {
	d, ok := descriptions[name]
	return d, ok
}

// DescribedMetrics lists every cataloged family name, sorted — the
// canonical metric inventory the doc drift lint compares against code and
// docs/metrics.md.
func DescribedMetrics() []string {
	names := make([]string, 0, len(descriptions))
	for n := range descriptions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
