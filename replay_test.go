package appvsweb

import (
	"testing"

	"appvsweb/internal/analysis"
	"appvsweb/internal/core"
	"appvsweb/internal/services"
)

// TestReplayProtocolSubsetMatchesLiveReport: the trace directory of a
// campaign over a service subset outside the calibrated catalog (avwrun
// -services pulsechat,beaconify) records its services, and replaying it
// renders the live campaign's report.
func TestReplayProtocolSubsetMatchesLiveReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	specs, err := services.Lookup([]string{"pulsechat", "beaconify"})
	if err != nil {
		t.Fatal(err)
	}
	eco, err := services.Start(specs)
	if err != nil {
		t.Fatal(err)
	}
	defer eco.Close()
	dir := t.TempDir()
	runner, err := core.NewRunner(eco, core.Options{Scale: 0.2, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	live, err := runner.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := core.ReplayCampaign(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want, got := analysis.Report(live), analysis.Report(replayed)
	if got != want {
		t.Errorf("replayed report differs from the live one:\n--- live\n%s\n--- replay\n%s", want, got)
	}
}
