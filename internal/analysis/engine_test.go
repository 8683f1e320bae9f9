package analysis

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"appvsweb/internal/obs"
)

func testEngine(t *testing.T) (*Engine, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	return NewEngine(EngineOptions{Metrics: reg, Workers: 4}), reg
}

// TestEngineArtifactsMatchDirect: the engine is a cache, not a fork — every
// artifact byte-matches the direct analysis function it wraps.
func TestEngineArtifactsMatchDirect(t *testing.T) {
	ds := synthDataset()
	eng, _ := testEngine(t)
	h := eng.Register("synth", ds)

	want := map[string]string{
		"report":       Report(ds),
		"report.md":    ReportMarkdown(ds),
		"table1":       RenderTable1Grid(Table1(ds)),
		"table3":       RenderTable3(Table3(ds)),
		"crossservice": RenderCrossService(CrossService(ds, 2)),
		"figures":      Figures(ds),
		"compare":      RenderCompare(Compare(ds)),
	}
	csv, _ := FigureCSV(ds, "1a")
	want["figure-1a.csv"] = csv
	svg, _ := FigureSVG(ds, "1f")
	want["figure-1f.svg"] = svg

	for id, w := range want {
		art, err := h.Artifact(context.Background(), id)
		if err != nil {
			t.Fatalf("Artifact(%q): %v", id, err)
		}
		if string(art.Bytes) != w {
			t.Errorf("artifact %q differs from direct computation (%d vs %d bytes)",
				id, len(art.Bytes), len(w))
		}
		if art.ETag == "" || art.ContentType == "" {
			t.Errorf("artifact %q missing ETag/ContentType: %+v", id, art)
		}
	}
}

// TestEngineWarmFetchDoesNotRecompute is the acceptance criterion: a warm
// fetch increments the cache-hit counter and leaves the compute histogram
// untouched.
func TestEngineWarmFetchDoesNotRecompute(t *testing.T) {
	eng, reg := testEngine(t)
	h := eng.Register("synth", synthDataset())

	cold, err := h.Artifact(context.Background(), "report")
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["analysis.cache_misses_total"] != 1 || snap.Counters["analysis.cache_hits_total"] != 0 {
		t.Fatalf("after cold fetch: misses=%d hits=%d, want 1/0",
			snap.Counters["analysis.cache_misses_total"], snap.Counters["analysis.cache_hits_total"])
	}
	computes := reg.Histogram("analysis.compute_ns", "ns").Count()
	perArtifact := reg.Histogram("analysis.compute.report_ns", "ns").Count()

	warm, err := h.Artifact(context.Background(), "report")
	if err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if snap.Counters["analysis.cache_hits_total"] != 1 || snap.Counters["analysis.cache_misses_total"] != 1 {
		t.Fatalf("after warm fetch: misses=%d hits=%d, want 1/1",
			snap.Counters["analysis.cache_misses_total"], snap.Counters["analysis.cache_hits_total"])
	}
	if got := reg.Histogram("analysis.compute_ns", "ns").Count(); got != computes {
		t.Errorf("warm fetch recomputed: compute_ns count %d -> %d", computes, got)
	}
	if got := reg.Histogram("analysis.compute.report_ns", "ns").Count(); got != perArtifact {
		t.Errorf("warm fetch recomputed: compute.report_ns count %d -> %d", perArtifact, got)
	}
	if !bytes.Equal(cold.Bytes, warm.Bytes) || cold.ETag != warm.ETag {
		t.Error("warm artifact differs from cold")
	}
}

// TestEngineSingleflight: N concurrent cold requests for one artifact
// produce exactly one computation; the rest join it.
func TestEngineSingleflight(t *testing.T) {
	eng, reg := testEngine(t)
	h := eng.Register("synth", synthDataset())

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = h.Artifact(context.Background(), "table2")
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["analysis.cache_misses_total"] != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", snap.Counters["analysis.cache_misses_total"])
	}
	if snap.Counters["analysis.cache_hits_total"] != n-1 {
		t.Errorf("hits = %d, want %d", snap.Counters["analysis.cache_hits_total"], n-1)
	}
	if got := snap.Histograms["analysis.compute.table2_ns"].Count; got != 1 {
		t.Errorf("table2 computed %d times, want 1", got)
	}
}

// TestEngineETagStableAcrossEngines: identical dataset content yields
// identical ETags and bytes in independent engines, regardless of
// generation timestamps — the property that keeps HTTP caches valid across
// server restarts and makes resumed campaigns provably equivalent.
func TestEngineETagStableAcrossEngines(t *testing.T) {
	dsA := synthDataset()
	dsB := synthDataset()
	dsB.Meta.GeneratedAt = dsA.Meta.GeneratedAt.AddDate(0, 0, 1)
	dsB.Meta.Duration = dsA.Meta.Duration + 1e9

	engA, _ := testEngine(t)
	engB, _ := testEngine(t)
	hA := engA.Register("a", dsA)
	hB := engB.Register("b", dsB)
	for _, id := range []string{"report", "table1", "headlines.json", "figure-1c.svg"} {
		a, err := hA.Artifact(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hB.Artifact(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if a.ETag != b.ETag {
			t.Errorf("%s: ETag %s vs %s for identical content", id, a.ETag, b.ETag)
		}
		if !bytes.Equal(a.Bytes, b.Bytes) {
			t.Errorf("%s: bytes differ for identical content", id)
		}
	}
}

// TestEngineComputeAll: the fan-out covers every registered artifact and a
// second pass is all cache hits.
func TestEngineComputeAll(t *testing.T) {
	eng, reg := testEngine(t)
	h := eng.Register("synth", synthDataset())

	arts, err := h.ComputeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ids := ArtifactIDs()
	if len(arts) != len(ids) {
		t.Fatalf("ComputeAll returned %d artifacts, want %d", len(arts), len(ids))
	}
	for i, art := range arts {
		if art.ID != ids[i] {
			t.Errorf("arts[%d].ID = %q, want %q (registry order)", i, art.ID, ids[i])
		}
		if len(art.Bytes) == 0 && art.ID != "passwords" {
			t.Errorf("artifact %q is empty", art.ID)
		}
	}
	missesAfterCold := reg.Snapshot().Counters["analysis.cache_misses_total"]
	if missesAfterCold != int64(len(ids)) {
		t.Errorf("cold ComputeAll misses = %d, want %d", missesAfterCold, len(ids))
	}

	if _, err := h.ComputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["analysis.cache_misses_total"] != missesAfterCold {
		t.Errorf("warm ComputeAll recomputed: misses %d -> %d",
			missesAfterCold, snap.Counters["analysis.cache_misses_total"])
	}
	if snap.Counters["analysis.cache_hits_total"] < int64(len(ids)) {
		t.Errorf("warm ComputeAll hits = %d, want >= %d",
			snap.Counters["analysis.cache_hits_total"], len(ids))
	}
}

// TestEngineUnknownArtifact: a bad ID is a client error naming the known
// set, not a panic.
func TestEngineUnknownArtifact(t *testing.T) {
	eng, _ := testEngine(t)
	h := eng.Register("synth", synthDataset())
	if _, err := h.Artifact(context.Background(), "nope"); err == nil {
		t.Fatal("expected error for unknown artifact")
	}
}

// TestEngineConcurrentUpdates exercises the cache and handle under
// concurrent readers and updaters — meaningful under -race (make check).
func TestEngineConcurrentUpdates(t *testing.T) {
	eng, _ := testEngine(t)
	ds := synthDataset()
	h := eng.Register("synth", ds)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := ArtifactIDs()
			for i := 0; i < 20; i++ {
				id := ids[(w*7+i)%len(ids)]
				if _, err := h.Artifact(context.Background(), id); err != nil {
					t.Errorf("Artifact(%q): %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			next := *ds
			next.Meta.ReconReport = fmt.Sprintf("gen-%d", i)
			h.Update(&next)
		}
	}()
	wg.Wait()
}

// TestEngineEviction: the cache stays bounded and eviction is counted.
func TestEngineEviction(t *testing.T) {
	reg := obs.New()
	eng := NewEngine(EngineOptions{Metrics: reg})
	eng.maxEntries = 5
	h := eng.Register("synth", synthDataset())
	for _, id := range ArtifactIDs() {
		if _, err := h.Artifact(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.CacheLen(); got > 5 {
		t.Errorf("cache grew to %d entries, bound is 5", got)
	}
	if reg.Snapshot().Counters["analysis.cache_evictions_total"] == 0 {
		t.Error("no evictions counted despite exceeding the bound")
	}
}

// TestEngineRegistryLookup covers the multi-dataset registry avwserve
// routes on.
func TestEngineRegistryLookup(t *testing.T) {
	eng, _ := testEngine(t)
	eng.Register("b", synthDataset())
	eng.Register("a", synthDataset())
	if _, ok := eng.Lookup("a"); !ok {
		t.Fatal("registered handle not found")
	}
	if _, ok := eng.Lookup("zzz"); ok {
		t.Fatal("lookup of unregistered name succeeded")
	}
	hs := eng.Handles()
	if len(hs) != 2 || hs[0].Name() != "a" || hs[1].Name() != "b" {
		t.Fatalf("Handles() = %v, want [a b]", []string{hs[0].Name(), hs[1].Name()})
	}
}
