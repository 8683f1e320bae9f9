package analysis

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/obs/trace"
)

// Engine is the memoized, parallel artifact-computation layer: every
// evaluation deliverable (report, tables, figures, surveys) is an
// independent job, fanned out across a bounded worker pool and cached by
// its ID and a fingerprint of the dataset content. Concurrent requests for a
// cold artifact are deduplicated (singleflight): exactly one goroutine
// computes, the rest wait and share the result. A warm fetch is a map
// lookup — no recomputation, which is what lets avwserve serve heavy
// artifact traffic from a campaign that is still running (docs/serving.md).
type Engine struct {
	metrics    *obs.Registry
	tracer     *trace.Tracer
	workers    int
	maxEntries int

	store *Store
	bus   *Bus

	hits       *obs.Counter
	misses     *obs.Counter
	computeNS  *obs.HistogramVec
	storeHits  *obs.Counter
	storeMiss  *obs.Counter
	storeWrite *obs.Counter
	storeErrs  *obs.Counter
	storeRead  *obs.Counter
	storeWrote *obs.Counter
	published  *obs.Counter

	mu    sync.Mutex
	cache map[string]*cacheEntry
	order []string // insertion order, for bounded eviction

	hmu     sync.RWMutex
	handles map[string]*Handle
}

// cacheEntry is one artifact slot: the singleflight rendezvous and, once
// done closes, the computed artifact (or the error that killed it).
type cacheEntry struct {
	done chan struct{}
	art  Artifact
	err  error
}

// maxCacheEntries bounds the artifact cache; the oldest entries are
// evicted beyond it. 1024 is roughly 40 dataset generations' worth.
const maxCacheEntries = 1024

// EngineOptions configure an Engine.
type EngineOptions struct {
	// Metrics receives the engine's instrumentation (analysis.* names in
	// docs/metrics.md). Nil uses obs.Default.
	Metrics *obs.Registry
	// Tracer receives one artifact.compute span per cache miss. Nil
	// disables tracing.
	Tracer *trace.Tracer
	// Workers bounds concurrent artifact computations in ComputeAll.
	// Default: NumCPU, capped at 8 (matching campaign parallelism).
	Workers int
	// Store, when non-nil, persists computed artifacts of static datasets
	// on disk and rehydrates them on cache miss, so a restarted or
	// horizontally-scaled process serves without recomputing
	// (docs/serving.md). Live partial folds are never persisted.
	Store *Store
	// EventQueue bounds each invalidation subscriber's queue; a subscriber
	// that falls further behind is evicted (analysis.events_dropped_total).
	// Default 16.
	EventQueue int
}

// NewEngine builds an artifact engine.
func NewEngine(opts EngineOptions) *Engine {
	if opts.Metrics == nil {
		opts.Metrics = obs.Default
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
		if opts.Workers > 8 {
			opts.Workers = 8
		}
	}
	dropped := opts.Metrics.Counter("analysis.events_dropped_total")
	return &Engine{
		metrics:    opts.Metrics,
		tracer:     opts.Tracer,
		workers:    opts.Workers,
		maxEntries: maxCacheEntries,
		store:      opts.Store,
		bus:        newBus(opts.EventQueue, dropped.Inc),
		hits:       opts.Metrics.Counter("analysis.cache_hits_total"),
		misses:     opts.Metrics.Counter("analysis.cache_misses_total"),
		// One labeled family with an artifact dimension; the legacy
		// analysis.compute_ns aggregate is a snapshot-time rollup of it,
		// so the hot path records exactly once.
		computeNS:  opts.Metrics.HistogramVec("analysis.compute", "ns", "artifact").WithRollup("analysis.compute_ns"),
		storeHits:  opts.Metrics.Counter("analysis.store_hits_total"),
		storeMiss:  opts.Metrics.Counter("analysis.store_misses_total"),
		storeWrite: opts.Metrics.Counter("analysis.store_writes_total"),
		storeErrs:  opts.Metrics.Counter("analysis.store_errors_total"),
		storeRead:  opts.Metrics.Counter("analysis.store_read_bytes_total"),
		storeWrote: opts.Metrics.Counter("analysis.store_write_bytes_total"),
		published:  opts.Metrics.Counter("analysis.events_published_total"),
		cache:      make(map[string]*cacheEntry),
		handles:    make(map[string]*Handle),
	}
}

// Handle is one registered dataset: a named, generation-counted snapshot
// the engine computes artifacts against. Static datasets register once;
// live campaigns update the handle as journal records fold in
// (generation++; a snapshot with new content gets a new fingerprint, hence
// new cache entries for every artifact).
type Handle struct {
	name string
	eng  *Engine
	live bool

	mu    sync.RWMutex
	ds    *core.Dataset
	gen   uint64
	fp    string // fingerprint of ds, computed once per snapshot
	fpErr error  // why fp could not be computed, if it could not
}

// Register adds (or replaces) a named dataset and returns its handle.
func (e *Engine) Register(name string, ds *core.Dataset) *Handle {
	fp, err := fingerprint(ds)
	h := &Handle{name: name, eng: e, ds: ds, gen: 1, fp: fp, fpErr: err}
	e.hmu.Lock()
	e.handles[name] = h
	e.hmu.Unlock()
	e.metrics.Gauge("analysis.datasets").Set(int64(e.handleCount()))
	return h
}

// Lookup finds a registered handle by name.
func (e *Engine) Lookup(name string) (*Handle, bool) {
	e.hmu.RLock()
	defer e.hmu.RUnlock()
	h, ok := e.handles[name]
	return h, ok
}

// Handles lists every registered handle, sorted by name.
func (e *Engine) Handles() []*Handle {
	e.hmu.RLock()
	defer e.hmu.RUnlock()
	out := make([]*Handle, 0, len(e.handles))
	for _, h := range e.handles {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (e *Engine) handleCount() int {
	e.hmu.RLock()
	defer e.hmu.RUnlock()
	return len(e.handles)
}

// Name returns the handle's registry name.
func (h *Handle) Name() string { return h.name }

// Live reports whether the handle tails an in-flight campaign.
func (h *Handle) Live() bool { return h.live }

// Generation reports how many snapshots the handle has seen; it increments
// on every Update and is the cheap staleness signal live views poll.
func (h *Handle) Generation() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.gen
}

// Dataset returns the handle's current snapshot.
func (h *Handle) Dataset() *core.Dataset {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.ds
}

// Update replaces the handle's snapshot. New content moves the dataset
// fingerprint, so every artifact recomputes on next request; identical
// content keeps the fingerprint, and every artifact stays cached. An
// invalidation Event naming the artifacts whose content changed (all of
// them or none) is published to the engine's bus (Engine.Subscribe),
// which is what drives the SSE push channel at /api/{ds}/events.
func (h *Handle) Update(ds *core.Dataset) {
	fp, err := fingerprint(ds)

	h.mu.Lock()
	oldFP := h.fp
	h.ds, h.fp, h.fpErr = ds, fp, err
	h.gen++
	gen := h.gen
	h.mu.Unlock()

	// A fingerprint that moved, or could not be computed, invalidates
	// every artifact.
	var invalidated []string
	if fp == "" || fp != oldFP {
		invalidated = ArtifactIDs()
	}
	stats := ds.Stats()
	h.eng.publish(Event{
		Dataset: h.name, Generation: gen,
		Experiments: stats.Experiments, Excluded: stats.Excluded,
		Invalidated: invalidated,
	})
}

// publish counts and fans out one invalidation event.
func (e *Engine) publish(ev Event) {
	e.published.Inc()
	e.bus.Publish(ev)
}

// Artifact returns one artifact for the handle's current snapshot,
// computing it on cache miss and deduplicating concurrent cold requests.
func (h *Handle) Artifact(ctx context.Context, id string) (Artifact, error) {
	spec, ok := artifactByID[id]
	if !ok {
		return Artifact{}, fmt.Errorf("analysis: unknown artifact %q (known: %v)", id, ArtifactIDs())
	}
	h.mu.RLock()
	ds, fp, err := h.ds, h.fp, h.fpErr
	h.mu.RUnlock()
	if err != nil {
		return Artifact{}, err
	}
	// Live partial folds change every poll; persisting each generation
	// would churn the store for entries never read back, so only static
	// snapshots use it.
	return h.eng.artifact(ctx, fp, spec, ds, !h.live)
}

// etagOf derives the strong ETag for an artifact from the dataset
// fingerprint.
func etagOf(fp, id string) string {
	return `"` + fp[:16] + "-" + id + `"`
}

func (e *Engine) artifact(ctx context.Context, fp string, spec *artifactSpec, ds *core.Dataset, persist bool) (Artifact, error) {
	key := fp + "/" + spec.id
	e.mu.Lock()
	if ent := e.cache[key]; ent != nil {
		e.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return Artifact{}, ctx.Err()
		}
		if ent.err != nil {
			return Artifact{}, ent.err
		}
		// Served from cache — either fully warm or by joining an in-flight
		// computation (singleflight).
		e.hits.Inc()
		return ent.art, nil
	}
	ent := &cacheEntry{done: make(chan struct{})}
	e.cache[key] = ent
	e.order = append(e.order, key)
	e.evictLocked()
	e.mu.Unlock()

	// Memory miss: try the persistent store before computing. A verified
	// store hit rehydrates the entry with zero recomputation — it does not
	// count toward analysis.cache_misses_total, whose meaning is "requests
	// that computed".
	if e.store != nil && persist {
		b, ok, err := e.store.Get(fp, spec.id)
		switch {
		case err != nil:
			e.storeErrs.Inc()
		case ok:
			e.storeHits.Inc()
			e.storeRead.Add(int64(len(b)))
			ent.art = Artifact{ID: spec.id, ContentType: spec.contentType, ETag: etagOf(fp, spec.id), Bytes: b}
			close(ent.done)
			return ent.art, nil
		default:
			e.storeMiss.Inc()
		}
	}

	e.misses.Inc()
	start := time.Now()
	b, err := spec.compute(ds)
	dur := time.Since(start)
	e.computeNS.WithLabelValues(spec.id).ObserveDuration(dur)
	e.tracer.Emit(trace.Event{Type: trace.EvArtifactCompute, DurNS: dur.Nanoseconds(),
		Attrs: map[string]string{
			"artifact": spec.id,
			"view":     fp[:16], // dataset fingerprint prefix
			"bytes":    strconv.Itoa(len(b)),
		}})
	if err != nil {
		ent.err = err
		// Errors are not cached: drop the entry so a later request retries.
		e.mu.Lock()
		if e.cache[key] == ent {
			delete(e.cache, key)
		}
		e.mu.Unlock()
	} else {
		ent.art = Artifact{ID: spec.id, ContentType: spec.contentType, ETag: etagOf(fp, spec.id), Bytes: b}
		if e.store != nil && persist {
			// Best-effort: a failed write never fails the request; the
			// artifact is already in memory.
			if perr := e.store.Put(fp, spec.id, spec.contentType, b); perr != nil {
				e.storeErrs.Inc()
			} else {
				e.storeWrite.Inc()
				e.storeWrote.Add(int64(len(b)))
			}
		}
	}
	close(ent.done)
	return ent.art, ent.err
}

// evictLocked drops the oldest cache entries beyond the bound. Entries
// still computing may be evicted from the map; their waiters hold direct
// pointers and are unaffected.
func (e *Engine) evictLocked() {
	for len(e.cache) > e.maxEntries && len(e.order) > 0 {
		oldest := e.order[0]
		e.order = e.order[1:]
		if _, ok := e.cache[oldest]; ok {
			delete(e.cache, oldest)
			e.metrics.Counter("analysis.cache_evictions_total").Inc()
		}
	}
}

// CacheLen reports the number of cached artifacts (for tests and the
// datasets listing).
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// ComputeAll computes every artifact for the handle's current snapshot,
// fanned out across the engine's worker pool, and returns them in
// registry order. The first error cancels the remaining computations —
// errgroup semantics, implemented locally because the module carries no
// external dependencies.
func (h *Handle) ComputeAll(ctx context.Context) ([]Artifact, error) {
	ids := ArtifactIDs()
	arts := make([]Artifact, len(ids))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, h.eng.workers)
	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				once.Do(func() { firstErr = ctx.Err() })
				return
			}
			defer func() { <-sem }()
			art, err := h.Artifact(ctx, id)
			if err != nil {
				once.Do(func() { firstErr = err; cancel() })
				return
			}
			arts[i] = art
		}(i, id)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return arts, nil
}
