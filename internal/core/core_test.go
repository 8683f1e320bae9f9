package core

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/device"
	"appvsweb/internal/domains"
	"appvsweb/internal/obs"
	"appvsweb/internal/pii"
	"appvsweb/internal/services"
)

func TestLeakPolicy(t *testing.T) {
	var p LeakPolicy
	https := &capture.Flow{Protocol: capture.HTTPS, Intercepted: true}
	http := &capture.Flow{Protocol: capture.HTTP}
	creds := pii.NewTypeSet(pii.Username, pii.Password, pii.Email)
	mixed := creds.Add(pii.Location)

	cases := []struct {
		name string
		flow *capture.Flow
		det  pii.TypeSet
		cat  domains.Category
		want pii.TypeSet
	}{
		{"credentials to first party over https are exempt", https, creds, domains.FirstParty, 0},
		{"credentials to sso over https are exempt", https, creds, domains.SSO, 0},
		{"location to first party over https is a leak", https, mixed, domains.FirstParty, pii.NewTypeSet(pii.Location)},
		{"credentials to third party leak", https, creds, domains.AdvertisingAnalytics, creds},
		{"credentials to other third party leak", https, creds, domains.OtherThirdParty, creds},
		{"plaintext to first party leaks everything", http, creds, domains.FirstParty, creds},
		{"nothing detected, nothing leaks", https, 0, domains.AdvertisingAnalytics, 0},
	}
	for _, c := range cases {
		if got := p.LeakTypes(c.flow, c.det, c.cat); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		if p.IsLeak(c.flow, c.det, c.cat) != !c.want.Empty() {
			t.Errorf("%s: IsLeak inconsistent", c.name)
		}
	}
}

func TestDetectorProvenance(t *testing.T) {
	rec := &pii.Record{Email: "jane@x.example", Username: "jdoe1990"}
	det := &Detector{Matcher: pii.NewMatcher(rec)}
	f := &capture.Flow{
		Method: "GET", Host: "t.example",
		URL: "https://t.example/p?email=jane%40x.example",
	}
	d := det.Detect(f)
	if !d.Types.Contains(pii.Email) {
		t.Fatalf("email not detected: %v", d.Types)
	}
	if d.FoundBy[pii.Email.Abbrev()] != ByString {
		t.Errorf("provenance = %q, want string", d.FoundBy[pii.Email.Abbrev()])
	}
}

func TestDetectorSkipStringMatchUsesRawRecon(t *testing.T) {
	det := &Detector{SkipStringMatch: true}
	d := det.Detect(&capture.Flow{Method: "GET", Host: "x.example", URL: "https://x.example/"})
	if !d.Types.Empty() {
		t.Errorf("no classifier, no detections expected: %v", d.Types)
	}
}

// testRunner boots an ecosystem subset and a runner for it.
func testRunner(t *testing.T, opts Options, keys ...string) *Runner {
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
	r, err := NewRunner(eco, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func spec(t *testing.T, r *Runner, key string) *services.Spec {
	t.Helper()
	s, ok := r.Eco.Service(key)
	if !ok {
		t.Fatalf("no spec %s", key)
	}
	return s
}

func TestRunExperimentAppPipeline(t *testing.T) {
	r := testRunner(t, Options{Scale: 0.2}, "grubexpress")
	res, err := r.RunExperiment(spec(t, r, "grubexpress"), services.Cell{OS: services.Android, Medium: services.App})
	if err != nil {
		t.Fatal(err)
	}
	if res.Excluded {
		t.Fatal("experiment wrongly excluded")
	}
	if res.BackgroundFlows == 0 {
		t.Error("no background flows filtered (filter untested)")
	}
	if res.TotalFlows < 10 || res.AAFlows == 0 || len(res.AADomains) == 0 {
		t.Errorf("flow accounting: %+v", res)
	}

	// Measured leak types must equal the profile's ground truth.
	p, err := spec(t, r, "grubexpress").Profile(services.Cell{OS: services.Android, Medium: services.App})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeakTypes != p.LeakTypes() {
		t.Errorf("measured leak types %v != profile ground truth %v", res.LeakTypes, p.LeakTypes())
	}

	// The Grubhub password bug must surface as a leak record to taplytics.
	found := false
	for _, l := range res.Leaks {
		if l.Org == "taplytics-sim" && l.Types.Contains(pii.Password) {
			found = true
			if l.Plaintext {
				t.Error("taplytics password leak should be over HTTPS")
			}
			if l.Category != "a&a" {
				t.Errorf("taplytics category = %s", l.Category)
			}
		}
		if l.Host == "grubexpress-sim.example" && l.Types.Contains(pii.Password) {
			t.Error("first-party login wrongly labeled a leak")
		}
	}
	if !found {
		t.Error("password→taplytics leak not recorded")
	}
}

func TestRunExperimentWebPipeline(t *testing.T) {
	r := testRunner(t, Options{Scale: 0.05}, "worldnews")
	res, err := r.RunExperiment(spec(t, r, "worldnews"), services.Cell{OS: services.IOS, Medium: services.Web})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AADomains) < 20 {
		t.Errorf("news web site contacted only %d A&A domains", len(res.AADomains))
	}
	if res.LeakTypes.Contains(pii.UniqueID) || res.LeakTypes.Contains(pii.DeviceName) {
		t.Errorf("web experiment leaked device identifiers: %v", res.LeakTypes)
	}
	if !res.LeakTypes.Contains(pii.Location) {
		t.Errorf("worldnews web must leak location: %v", res.LeakTypes)
	}
	if res.AABytes <= 0 || res.AABytes > res.TotalBytes {
		t.Errorf("byte accounting: aa=%d total=%d", res.AABytes, res.TotalBytes)
	}
}

func TestRunExperimentPinnedExcluded(t *testing.T) {
	r := testRunner(t, Options{Scale: 0.2}, "chatwave")
	res, err := r.RunExperiment(spec(t, r, "chatwave"), services.Cell{OS: services.Android, Medium: services.App})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Excluded || !strings.Contains(res.ExcludeReason, "pinning") {
		t.Errorf("pinned experiment not excluded: %+v", res)
	}
	// The same service measures fine on iOS.
	res2, err := r.RunExperiment(spec(t, r, "chatwave"), services.Cell{OS: services.IOS, Medium: services.App})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Excluded {
		t.Error("iOS experiment wrongly excluded")
	}
}

func TestRunCampaignSubset(t *testing.T) {
	keys := []string{"grubexpress", "weathernow", "chatwave", "datemate"}
	r := testRunner(t, Options{Scale: 0.1, Parallelism: 4}, keys...)
	ds, err := r.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Results) != len(keys)*4 {
		t.Fatalf("results = %d, want %d", len(ds.Results), len(keys)*4)
	}

	// Every cell's measured leak set equals the profile ground truth
	// (for non-excluded experiments).
	for _, res := range ds.Results {
		s := spec(t, r, res.Service)
		if res.Excluded {
			if !(s.PinsAndroid && res.OS == services.Android && res.Medium == services.App) {
				t.Errorf("unexpected exclusion: %+v", res)
			}
			continue
		}
		p, err := s.Profile(res.CellKey())
		if err != nil {
			t.Fatal(err)
		}
		if res.LeakTypes != p.LeakTypes() {
			t.Errorf("%s/%s/%s: measured %v != expected %v", res.Service, res.OS, res.Medium, res.LeakTypes, p.LeakTypes())
		}
		if res.FailedRequests > 0 {
			t.Errorf("%s/%s/%s: %d failed requests", res.Service, res.OS, res.Medium, res.FailedRequests)
		}
	}

	// Dataset lookups.
	if _, ok := ds.Result("weathernow", services.Cell{OS: services.IOS, Medium: services.Web}); !ok {
		t.Error("Result lookup failed")
	}
	if _, ok := ds.Included("chatwave", services.Cell{OS: services.Android, Medium: services.App}); ok {
		t.Error("excluded experiment returned by Included")
	}
	if got := ds.ServiceKeys(); len(got) != len(keys) {
		t.Errorf("ServiceKeys = %v", got)
	}

	// Round-trip through disk.
	path := filepath.Join(t.TempDir(), "dataset.json")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Results) != len(ds.Results) {
		t.Error("dataset round-trip lost results")
	}
	got, _ := loaded.Result("datemate", services.Cell{OS: services.Android, Medium: services.Web})
	want, _ := ds.Result("datemate", services.Cell{OS: services.Android, Medium: services.Web})
	if got.LeakTypes != want.LeakTypes || len(got.Leaks) != len(want.Leaks) {
		t.Error("dataset round-trip mutated leaks")
	}
}

func TestRunCampaignWithRecon(t *testing.T) {
	keys := []string{"grubexpress", "weathernow"}
	r := testRunner(t, Options{Scale: 0.1, Parallelism: 4, TrainRecon: true}, keys...)
	ds, err := r.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Meta.ReconReport == "" || !strings.Contains(ds.Meta.ReconReport, "precision") {
		t.Errorf("recon report missing: %q", ds.Meta.ReconReport)
	}
	// Some leaks must be confirmed by both detectors.
	both := 0
	for _, res := range ds.Results {
		for _, l := range res.Leaks {
			for _, prov := range l.FoundBy {
				if prov == ByBoth {
					both++
				}
			}
		}
	}
	if both == 0 {
		t.Error("classifier confirmed no leaks (training ineffective)")
	}
}

func TestDatasetLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "none.json")); err == nil {
		t.Error("missing dataset loaded")
	}
}

func TestDurationSensitivity(t *testing.T) {
	// §3.2: longer sessions yield proportionally more flows but the same
	// PII type set.
	r := testRunner(t, Options{Scale: 0.2}, "datemate")
	cell := services.Cell{OS: services.Android, Medium: services.App}
	short, err := r.RunExperiment(spec(t, r, "datemate"), cell)
	if err != nil {
		t.Fatal(err)
	}
	r.Opts.Duration = 10 * time.Minute
	long, err := r.RunExperiment(spec(t, r, "datemate"), cell)
	if err != nil {
		t.Fatal(err)
	}
	if long.TotalFlows < short.TotalFlows*2 {
		t.Errorf("10-minute flows (%d) not proportional to 4-minute (%d)", long.TotalFlows, short.TotalFlows)
	}
	if long.LeakTypes != short.LeakTypes {
		t.Errorf("PII type set changed with duration: %v vs %v", long.LeakTypes, short.LeakTypes)
	}
}

func TestAblationBackgroundFilter(t *testing.T) {
	r := testRunner(t, Options{Scale: 0.2, DisableBackgroundFilter: true}, "docuscan")
	res, err := r.RunExperiment(spec(t, r, "docuscan"), services.Cell{OS: services.Android, Medium: services.App})
	if err != nil {
		t.Fatal(err)
	}
	if res.BackgroundFlows != 0 {
		t.Error("ablation should not filter")
	}
	// Without filtering, the OS sync beacons' advertising ID pollutes the
	// results with extra UID leak records to platform domains.
	polluted := false
	for _, l := range res.Leaks {
		if l.Domain == "play-services.example" {
			polluted = true
		}
	}
	if !polluted {
		t.Error("unfiltered background traffic produced no pollution (filter ablation shows nothing)")
	}
}

func TestOrgOf(t *testing.T) {
	if OrgOf("pixel.taplytics-sim.example") != "taplytics-sim" {
		t.Errorf("OrgOf = %q", OrgOf("pixel.taplytics-sim.example"))
	}
}

func BenchmarkRunExperimentApp(b *testing.B) {
	var subset []*services.Spec
	for _, s := range services.Catalog() {
		if s.Key == "docuscan" {
			subset = append(subset, s)
		}
	}
	eco, err := services.Start(subset)
	if err != nil {
		b.Fatal(err)
	}
	defer eco.Close()
	r, err := NewRunner(eco, Options{Scale: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	cell := services.Cell{OS: services.Android, Medium: services.App}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunExperiment(eco.Catalog[0], cell); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = device.LabZIP // document the lab ground truth linkage

func TestDatasetStats(t *testing.T) {
	ds := &Dataset{Results: []*ExperimentResult{
		{TotalFlows: 10, TotalBytes: 100, AAFlows: 4, AABytes: 40, BackgroundFlows: 2,
			Leaks: []LeakRecord{{}, {}}},
		{Excluded: true, TotalFlows: 99},
	}}
	s := ds.Stats()
	if s.Experiments != 2 || s.Excluded != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.TotalFlows != 10 || s.AAFlows != 4 || s.LeakFlows != 2 || s.Background != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// TestCampaignSharesAndReleasesUpstreamPool: a campaign's experiments
// share one upstream pool, so the campaign dials fewer origin connections
// than its experiments dial when each runs alone (RunExperiment releases
// the pool between them), and a campaign releases the pool when it
// returns, so the next campaign dials its origins again instead of riding
// the last one's idle connections.
func TestCampaignSharesAndReleasesUpstreamPool(t *testing.T) {
	if testing.Short() {
		t.Skip("runs reduced campaigns")
	}
	reg := obs.New()
	r := testRunner(t, Options{Scale: 0.2, Parallelism: 1, Metrics: reg}, "grubexpress")
	conns := reg.Counter("proxy.upstream_conns_total")
	dials := func(run func()) int64 {
		before := conns.Value()
		run()
		return conns.Value() - before
	}
	campaign := func() {
		if _, err := r.RunCampaign(); err != nil {
			t.Fatal(err)
		}
	}
	first, second := dials(campaign), dials(campaign)
	alone := dials(func() {
		for _, cell := range services.AllCells() {
			if _, err := r.RunExperiment(r.Eco.Catalog[0], cell); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("origin dials: campaign %d, next campaign %d, experiments alone %d", first, second, alone)
	if first == 0 || first >= alone {
		t.Errorf("campaign dialed %d origin connections, experiments alone %d: the pool is not shared", first, alone)
	}
	if 2*second < first {
		t.Errorf("second campaign dialed %d origin connections, first %d: the first left its pool open", second, first)
	}
}

func TestCampaignInstrumentation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced campaign")
	}
	reg := obs.New()
	var (
		mu     sync.Mutex
		events []ProgressEvent
	)
	r := testRunner(t, Options{
		Scale:   0.2,
		Metrics: reg,
		OnProgress: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}, "grubexpress")
	ds, err := r.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	want := len(ds.Results)

	if len(events) != want {
		t.Fatalf("progress events = %d, want %d", len(events), want)
	}
	seen := make(map[int]bool)
	for _, ev := range events {
		if ev.Total != want {
			t.Errorf("event Total = %d, want %d", ev.Total, want)
		}
		if ev.Index < 1 || ev.Index > want || seen[ev.Index] {
			t.Errorf("bad or duplicate event Index %d", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Err == nil && !ev.Excluded && ev.Flows == 0 {
			t.Errorf("event %s %s/%s reports zero flows", ev.Service, ev.OS, ev.Medium)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["campaign.experiments_total"]; got != int64(want) {
		t.Errorf("campaign.experiments_total = %d, want %d", got, want)
	}
	if got := snap.Gauges["campaign.jobs"]; got != int64(want) {
		t.Errorf("campaign.jobs = %d, want %d", got, want)
	}
	if got := snap.Gauges["campaign.inflight"]; got != 0 {
		t.Errorf("campaign.inflight = %d after campaign, want 0", got)
	}
	for _, name := range []string{"stage.session_ns", "stage.filter_ns", "stage.detect_ns", "stage.categorize_ns", "campaign.experiment_ns"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != int64(want) {
			t.Errorf("%s: count = %d (present=%v), want %d", name, h.Count, ok, want)
		}
	}
	if table := snap.StageTable("stage."); !strings.Contains(table, "session_ns") {
		t.Errorf("stage table missing session stage:\n%s", table)
	}
}
