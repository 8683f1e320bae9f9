// Package analysis computes every table and figure of the paper's
// evaluation (§4) from a measurement dataset — Table 1 (per-OS/category
// leak summary), Table 2 (top-20 A&A domains), Table 3 (per-PII-type
// summary), and Figures 1a–1f (app-vs-web CDFs/PDFs of A&A contact,
// flows, bytes, leak domains, leaked identifier counts, and Jaccard
// similarity) — and turns those pure functions into a serving layer.
//
// The [Engine] is the memoized, parallel artifact layer: each deliverable
// is an independent artifact keyed by its ID and one SHA-256 fingerprint
// of the dataset content (GeneratedAt and Duration excluded), computed
// once per fingerprint under singleflight and cached in a bounded
// in-memory map. Every artifact reads the same result matrix, so a
// content change invalidates all of them and identical content none.
// [Handle.ComputeAll] fans every artifact out across a bounded worker
// pool; [LiveTail] folds a still-running campaign's journal into a partial
// dataset incrementally.
//
// Two pieces extend the engine beyond one process and one connection:
//
//   - [Store] is the persistent artifact cache — a content-addressed
//     on-disk mirror keyed by (dataset fingerprint, artifact ID). A restarted
//     server, or a second replica sharing the directory, rehydrates
//     instead of recomputing; every read is verified (fingerprint, ID, and
//     payload SHA-256) before it is trusted. Wire it in with
//     [EngineOptions.Store] (the avwserve -store flag).
//
//   - [Bus] is the invalidation push channel: [Handle.Update] publishes
//     one [Event] per dataset generation naming the artifacts whose
//     content changed, and [Engine.Subscribe] attaches bounded
//     per-subscriber queues with slow-consumer eviction. avwserve forwards
//     these events to SSE clients at /api/{ds}/events, replacing /live
//     polling.
//
// Metric names (analysis.cache_*, analysis.store_*, analysis.events_*,
// analysis.live.*, analysis.compute*) are documented in docs/metrics.md;
// the serving architecture in docs/serving.md.
package analysis
