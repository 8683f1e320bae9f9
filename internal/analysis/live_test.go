package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/services"
)

func appendJournal(t *testing.T, j *core.Journal, rec core.JournalRecord) {
	t.Helper()
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
}

func resultRecord(res *core.ExperimentResult) core.JournalRecord {
	return core.JournalRecord{
		Service: res.Service, OS: res.OS, Medium: res.Medium, Attempts: 1, Result: res,
	}
}

// TestLiveTailDifferentialVsCold is the incremental-mode differential: a
// handle that tailed the journal record by record — serving artifacts at
// every partial generation along the way — must, once the journal is
// complete, produce byte- and ETag-identical artifacts to a cold engine
// that loaded the finished journal in one shot. This pins the whole
// incremental path: the fold order, the dataset fingerprint, and the
// invalidation logic.
func TestLiveTailDifferentialVsCold(t *testing.T) {
	ds := synthDataset()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := core.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	eng := NewEngine(EngineOptions{Metrics: obs.New()})
	tail := eng.TailJournal("live", path, LiveOptions{Scale: 1})
	h := tail.Handle()
	if !h.Live() {
		t.Fatal("tailed handle not marked live")
	}

	// Mid-campaign: fold one record at a time and serve partial artifacts
	// between folds, as avwserve's /live view does.
	probes := []string{"report", "headlines.json", "table1", "figure-1a.csv"}
	for i, res := range ds.Results {
		appendJournal(t, j, resultRecord(res))
		changed, err := tail.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			t.Fatalf("poll %d saw no change after an append", i)
		}
		if _, err := h.Artifact(context.Background(), probes[i%len(probes)]); err != nil {
			t.Fatalf("partial artifact at record %d: %v", i, err)
		}
	}
	// One skipped experiment, as the failure policy journals it.
	appendJournal(t, j, core.JournalRecord{
		Service: "svcz", OS: services.Android, Medium: services.App,
		Attempts: 2, Skipped: true, Stage: "session", Error: "session: connection refused",
		Result: &core.ExperimentResult{
			Service: "svcz", Name: "SVCZ", OS: services.Android, Medium: services.App,
			Excluded: true, ExcludeReason: "experiment failed after 2 attempt(s)",
		},
	})
	if _, err := tail.Poll(); err != nil {
		t.Fatal(err)
	}

	live, err := h.ComputeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Cold path: a fresh engine over the completed journal.
	coldDS, err := JournalDataset(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	coldEng := NewEngine(EngineOptions{Metrics: obs.New()})
	cold, err := coldEng.Register("cold", coldDS).ComputeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if len(live) != len(cold) {
		t.Fatalf("artifact counts differ: live %d, cold %d", len(live), len(cold))
	}
	for i := range live {
		if live[i].ETag != cold[i].ETag {
			t.Errorf("%s: live ETag %s != cold ETag %s", live[i].ID, live[i].ETag, cold[i].ETag)
		}
		if !bytes.Equal(live[i].Bytes, cold[i].Bytes) {
			t.Errorf("%s: live bytes differ from cold recompute (%d vs %d bytes)",
				live[i].ID, len(live[i].Bytes), len(cold[i].Bytes))
		}
	}

	// The skipped experiment must be visible in the partial dataset.
	got := h.Dataset()
	if len(got.Meta.Failures) != 1 || got.Meta.Failures[0].Service != "svcz" {
		t.Errorf("Meta.Failures = %+v, want the svcz skip", got.Meta.Failures)
	}
}

// TestLiveTailPartialLine: a torn line (append racing the poll) is not
// consumed until its newline lands; no garbage enters the fold.
func TestLiveTailPartialLine(t *testing.T) {
	ds := synthDataset()
	path := filepath.Join(t.TempDir(), "run.journal")
	reg := obs.New()
	eng := NewEngine(EngineOptions{Metrics: reg})
	tail := eng.TailJournal("live", path, LiveOptions{Scale: 1})

	raw, err := json.Marshal(resultRecord(ds.Results[0]))
	if err != nil {
		t.Fatal(err)
	}
	half := len(raw) / 2
	if err := os.WriteFile(path, raw[:half], 0o644); err != nil {
		t.Fatal(err)
	}
	changed, err := tail.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("poll consumed a torn line")
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(raw[half:], '\n')); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	changed, err = tail.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("poll missed the completed line")
	}
	if n := reg.Snapshot().Counters["analysis.live.bad_lines_total"]; n != 0 {
		t.Errorf("bad_lines_total = %d, want 0", n)
	}
	if got := len(tail.Handle().Dataset().Results); got != 1 {
		t.Errorf("results = %d, want 1", got)
	}
}

// TestLiveTailMissingJournal: a campaign that has not started yet is not
// an error — the tail just reports no change.
func TestLiveTailMissingJournal(t *testing.T) {
	eng := NewEngine(EngineOptions{Metrics: obs.New()})
	tail := eng.TailJournal("live", filepath.Join(t.TempDir(), "absent.journal"), LiveOptions{Scale: 1})
	changed, err := tail.Poll()
	if err != nil || changed {
		t.Fatalf("Poll on missing journal = (%v, %v), want (false, nil)", changed, err)
	}
}

// TestLiveTailReset: a journal that shrank (fresh campaign, same path)
// resets the fold instead of serving a chimera of two runs.
func TestLiveTailReset(t *testing.T) {
	ds := synthDataset()
	path := filepath.Join(t.TempDir(), "run.journal")
	reg := obs.New()
	eng := NewEngine(EngineOptions{Metrics: reg})
	tail := eng.TailJournal("live", path, LiveOptions{Scale: 1})

	j, err := core.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	appendJournal(t, j, resultRecord(ds.Results[0]))
	appendJournal(t, j, resultRecord(ds.Results[1]))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := len(tail.Handle().Dataset().Results); got != 2 {
		t.Fatalf("results = %d, want 2", got)
	}

	// Fresh campaign truncates the journal and writes one new record.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	j2, err := core.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	appendJournal(t, j2, resultRecord(ds.Results[2]))
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := len(tail.Handle().Dataset().Results); got != 1 {
		t.Errorf("results after reset = %d, want 1", got)
	}
	if reg.Snapshot().Counters["analysis.live.resets_total"] != 1 {
		t.Errorf("resets_total = %d, want 1", reg.Snapshot().Counters["analysis.live.resets_total"])
	}
}

// TestJournalDatasetKeepLast: a re-appended experiment (resume) folds
// keep-last, exactly as the runner replays it.
func TestJournalDatasetKeepLast(t *testing.T) {
	ds := synthDataset()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := core.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := *ds.Results[0]
	stale.TotalFlows = 1
	appendJournal(t, j, resultRecord(&stale))
	appendJournal(t, j, resultRecord(ds.Results[0]))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := JournalDataset(path, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(got.Results))
	}
	if got.Results[0].TotalFlows != ds.Results[0].TotalFlows {
		t.Errorf("keep-last violated: TotalFlows = %d, want %d",
			got.Results[0].TotalFlows, ds.Results[0].TotalFlows)
	}
	if got.Meta.Scale != 0.5 || got.Meta.Services != 1 {
		t.Errorf("Meta = %+v, want scale 0.5, services 1", got.Meta)
	}
}

// TestRunnerDatasetMatchesJournalFold: a skip-policy campaign's own
// dataset and the fold of the journal it wrote are one dataset — same
// failures in the same order, same report ETag. The subset's catalog
// order (quizlight, lingolearn) is not key order, so a runner that lists
// its failures in matrix order rather than folding its records the way a
// journal load does gives the same report text under a different ETag.
func TestRunnerDatasetMatchesJournalFold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	subset := services.Catalog()[2:4]
	eco, err := services.Start(subset)
	if err != nil {
		t.Fatal(err)
	}
	defer eco.Close()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := core.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// One persistent session fault per service: each fails once and is
	// skipped, journaled with its excluded placeholder.
	faults := core.NewScriptedFaults(
		core.FaultRule{Service: subset[0].Key, Cell: services.Cell{OS: services.IOS, Medium: services.Web},
			Stage: core.StageSession, Times: -1},
		core.FaultRule{Service: subset[1].Key, Cell: services.Cell{OS: services.Android, Medium: services.App},
			Stage: core.StageSession, Times: -1},
	)
	runner, err := core.NewRunner(eco, core.Options{
		Scale: 0.05, Parallelism: 2, FailurePolicy: core.FailSkip,
		FaultInjector: faults, Journal: j, Metrics: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ran, err := runner.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	folded, err := JournalDataset(path, ran.Meta.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran.Meta.Failures) != len(subset) {
		t.Fatalf("runner recorded %d failures, want %d", len(ran.Meta.Failures), len(subset))
	}
	if !reflect.DeepEqual(ran.Meta.Failures, folded.Meta.Failures) {
		t.Errorf("Meta.Failures differ:\nrunner %+v\nfold   %+v", ran.Meta.Failures, folded.Meta.Failures)
	}
	if a, b := reportETag(t, ran), reportETag(t, folded); a != b {
		t.Errorf("report ETag: runner %s, journal fold %s", a, b)
	}
}

// reportETag is the report artifact's ETag for ds on a fresh engine.
func reportETag(t *testing.T, ds *core.Dataset) string {
	t.Helper()
	a, err := NewEngine(EngineOptions{Metrics: obs.New()}).Register("ds", ds).Artifact(context.Background(), "report")
	if err != nil {
		t.Fatal(err)
	}
	return a.ETag
}

// TestLiveTailSameSizeRestartReset is the replacement-detection
// regression: a restarted campaign whose fresh journal grows to the same
// size or larger than the consumed offset between polls must reset the
// fold, not silently continue reading from a mid-record offset. The old
// code reset only on info.Size() < t.offset, so both legs here — a
// truncate-and-rewrite on the same inode and a rename-in replacement —
// folded garbage from the middle of the new file.
func TestLiveTailSameSizeRestartReset(t *testing.T) {
	ds := synthDataset()
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	reg := obs.New()
	eng := NewEngine(EngineOptions{Metrics: reg})
	tail := eng.TailJournal("live", path, LiveOptions{Scale: 1})

	j, err := core.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	appendJournal(t, j, resultRecord(ds.Results[0]))
	appendJournal(t, j, resultRecord(ds.Results[1]))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := len(tail.Handle().Dataset().Results); got != 2 {
		t.Fatalf("results = %d, want 2", got)
	}

	// Restart leg 1: truncate-and-rewrite in place (same inode) with a
	// journal that is at least as large as the consumed offset by the time
	// the tail polls again.
	rewrite := func(results []*core.ExperimentResult) {
		t.Helper()
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
		j, err := core.CreateJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			appendJournal(t, j, resultRecord(r))
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rewrite(ds.Results[2:6]) // four records: strictly larger than the two consumed
	now, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(old, now) {
		t.Fatal("test setup: rewrite changed the inode; the fingerprint leg needs the same file")
	}
	if now.Size() < old.Size() {
		t.Fatalf("test setup: fresh journal (%d bytes) smaller than consumed offset (%d)", now.Size(), old.Size())
	}
	if _, err := tail.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := len(tail.Handle().Dataset().Results); got != 4 {
		t.Errorf("results after same-inode restart = %d, want 4 (fold not reset)", got)
	}
	if got := reg.Snapshot().Counters["analysis.live.resets_total"]; got != 1 {
		t.Errorf("resets_total = %d, want 1", got)
	}
	if bad := reg.Snapshot().Counters["analysis.live.bad_lines_total"]; bad != 0 {
		t.Errorf("bad_lines_total = %d, want 0 (tail read from a mid-record offset)", bad)
	}

	// Restart leg 2: a new journal written aside and renamed over the path
	// (new inode, same or larger size).
	side := filepath.Join(dir, "next.journal")
	j2, err := core.CreateJournal(side)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Results[6:12] {
		appendJournal(t, j2, resultRecord(r))
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(side, path); err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := len(tail.Handle().Dataset().Results); got != 6 {
		t.Errorf("results after rename-in restart = %d, want 6 (fold not reset)", got)
	}
	if got := reg.Snapshot().Counters["analysis.live.resets_total"]; got != 2 {
		t.Errorf("resets_total = %d, want 2", got)
	}
}
