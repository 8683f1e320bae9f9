package shard

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"appvsweb/internal/analysis"
	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/services"
)

// singleProcessReport runs the reference campaign — one process, no
// shards — and renders its report, the golden every sharded run must
// reproduce byte-for-byte.
func singleProcessReport(t *testing.T, eco *services.Ecosystem, opts core.Options) (string, int) {
	t.Helper()
	runner, err := core.NewRunner(eco, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := runner.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	return analysis.Report(ds), len(ds.Results)
}

// TestShardedReportMatchesSingleProcess is the distributed-execution
// acceptance property: for several shard counts — including more shards
// than balance strictly needs and enough that some shards get one
// experiment — running the campaign through the planner/worker/
// coordinator machinery and folding the per-shard journals yields a
// report byte-identical to the single-process run. Shards run
// concurrently, so completion order is scheduler-shuffled on every run;
// determinism must come from the merge, not from timing.
func TestShardedReportMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs reduced campaigns")
	}
	subset := services.Catalog()[:3] // 12 experiments
	eco, err := services.Start(subset)
	if err != nil {
		t.Fatal(err)
	}
	defer eco.Close()

	opts := core.Options{Scale: 0.05, Parallelism: 2}
	want, experiments := singleProcessReport(t, eco, opts)

	for _, n := range []int{1, 3, 7} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			plan, err := NewPlan(subset, n)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			reg := obs.New()
			merged, err := Run(context.Background(), Config{
				Plan:     plan,
				Dir:      dir,
				Launcher: &InProcess{Eco: eco, Opts: opts, Plan: plan, Dir: dir},
				LeaseTTL: 30 * time.Second,
				Metrics:  reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if merged.Len() != experiments {
				t.Fatalf("merged %d experiments, want %d", merged.Len(), experiments)
			}
			ds := merged.Dataset(core.Meta{Scale: opts.Scale})
			if got := analysis.Report(ds); got != want {
				t.Errorf("sharded report differs from single-process run:\n--- single ---\n%s\n--- sharded (n=%d) ---\n%s", want, n, got)
			}
			if got := reg.Snapshot().Gauges["campaign.shards"]; got != int64(n) {
				t.Errorf("campaign.shards = %d, want %d", got, n)
			}

			// The merge is order-independent for disjoint shards: folding
			// the journals in reverse must not change the result.
			paths := JournalPaths(dir, n)
			for i, j := 0, len(paths)-1; i < j; i, j = i+1, j-1 {
				paths[i], paths[j] = paths[j], paths[i]
			}
			reversed, err := core.MergeJournals(paths...)
			if err != nil {
				t.Fatal(err)
			}
			if got := analysis.Report(reversed.Dataset(core.Meta{Scale: opts.Scale})); got != want {
				t.Error("reverse-order merge changed the rendered report")
			}
		})
	}
}

// TestShardedSkipPolicyMatchesSingleProcess: under a skip policy with a
// persistent failure in every service, a sharded campaign's merged dataset
// has the single-process run's report text and its Meta — failure list and
// order included, which the report text does not show but the report
// artifact's ETag hashes. The subset's catalog order (quizlight,
// lingolearn) is not key order, so a single-process run that lists its
// failures in matrix order differs from the merge. The ETags themselves
// are not compared: two separate runs never share one, because results
// carry run-dependent flow IDs and tracker-cookie byte counts.
func TestShardedSkipPolicyMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs reduced campaigns")
	}
	subset := services.Catalog()[2:4] // 8 experiments
	eco, err := services.Start(subset)
	if err != nil {
		t.Fatal(err)
	}
	defer eco.Close()
	faults := core.NewScriptedFaults(
		core.FaultRule{Service: subset[0].Key, Cell: services.Cell{OS: services.IOS, Medium: services.Web},
			Stage: core.StageSession, Times: -1},
		core.FaultRule{Service: subset[1].Key, Cell: services.Cell{OS: services.Android, Medium: services.App},
			Stage: core.StageSession, Times: -1},
	)
	opts := core.Options{Scale: 0.05, Parallelism: 2, FailurePolicy: core.FailSkip, FaultInjector: faults}
	runner, err := core.NewRunner(eco, opts)
	if err != nil {
		t.Fatal(err)
	}
	single, err := runner.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Meta.Failures) != len(subset) {
		t.Fatalf("single-process run recorded %d failures, want %d", len(single.Meta.Failures), len(subset))
	}
	want := analysis.Report(single)

	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			plan, err := NewPlan(subset, n)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			merged, err := Run(context.Background(), Config{
				Plan:          plan,
				Dir:           dir,
				Launcher:      &InProcess{Eco: eco, Opts: opts, Plan: plan, Dir: dir},
				LeaseTTL:      30 * time.Second,
				FailurePolicy: core.FailSkip,
				Metrics:       obs.New(),
			})
			if err != nil {
				t.Fatal(err)
			}
			ds := merged.Dataset(core.Meta{
				GeneratedAt: single.Meta.GeneratedAt, Scale: opts.Scale, Duration: single.Meta.Duration,
			})
			if got := analysis.Report(ds); got != want {
				t.Errorf("sharded report differs from single-process run:\n--- single ---\n%s\n--- sharded (n=%d) ---\n%s", want, n, got)
			}
			if !reflect.DeepEqual(ds.Meta, single.Meta) {
				t.Errorf("sharded Meta differs from single-process run:\nsingle  %+v\nsharded %+v", single.Meta, ds.Meta)
			}
		})
	}
}

// TestShardedKillReassignMatchesSingleProcess is the fault-tolerance
// acceptance test: a scripted stall wedges one worker mid-run, its
// heartbeats stop, the coordinator expires the lease, kills the worker,
// and reassigns the shard; the relaunched worker resumes from the dead
// worker's journal and the final merged report is still byte-identical
// to an undisturbed single-process run.
func TestShardedKillReassignMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs reduced campaigns")
	}
	subset := services.Catalog()[:2] // 8 experiments
	eco, err := services.Start(subset)
	if err != nil {
		t.Fatal(err)
	}
	defer eco.Close()

	want, experiments := singleProcessReport(t, eco, core.Options{Scale: 0.05, Parallelism: 1})

	// The fault script wedges exactly one experiment's session stage, the
	// first time it runs (Times: 0 = once). The injector instance is
	// shared across worker attempts — its call counters are the script's
	// memory — so the reassigned worker's re-run of the same experiment
	// passes.
	victim := subset[1].Key
	faults := core.NewScriptedFaults(core.FaultRule{
		Service: victim,
		Cell:    services.Cell{OS: services.IOS, Medium: services.Web},
		Stage:   core.StageSession,
		Stall:   true,
	})
	opts := core.Options{Scale: 0.05, Parallelism: 1, FaultInjector: faults}

	plan, err := NewPlan(subset, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reg := obs.New()
	merged, err := Run(context.Background(), Config{
		Plan:     plan,
		Dir:      dir,
		Launcher: &InProcess{Eco: eco, Opts: opts, Plan: plan, Dir: dir},
		LeaseTTL: 2 * time.Second,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != experiments {
		t.Fatalf("merged %d experiments, want %d", merged.Len(), experiments)
	}
	if got := analysis.Report(merged.Dataset(core.Meta{Scale: opts.Scale})); got != want {
		t.Errorf("report after kill/reassign differs from single-process run:\n--- single ---\n%s\n--- sharded ---\n%s", want, got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["shard.lease_expired"]; got < 1 {
		t.Errorf("shard.lease_expired = %d, want >= 1 (the stall must expire a lease)", got)
	}
	if got := snap.Counters["campaign.reassigned_total"]; got < 1 {
		t.Errorf("campaign.reassigned_total = %d, want >= 1", got)
	}
}
