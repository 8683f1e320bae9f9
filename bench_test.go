package appvsweb

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§4) against a full measured campaign, plus the ablation
// benches called out in DESIGN.md §5. Run:
//
//	go test -bench=. -benchmem
//
// The first benchmark triggers one shared campaign (flow scale 0.25);
// per-iteration costs then reflect the analysis itself.

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"appvsweb/internal/analysis"
	"appvsweb/internal/capture"
	"appvsweb/internal/core"
	"appvsweb/internal/device"
	"appvsweb/internal/easylist"
	"appvsweb/internal/obs"
	"appvsweb/internal/pii"
	"appvsweb/internal/proxy"
	"appvsweb/internal/recon"
	"appvsweb/internal/services"
	"appvsweb/internal/shard"
)

// --- Tables -----------------------------------------------------------------

// BenchmarkTable1 regenerates Table 1 (per-OS/category leak summary).
func BenchmarkTable1(b *testing.B) {
	ds := campaignDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Table1(ds)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
	b.StopTimer()
	b.Logf("\n%s", analysis.RenderTable1(analysis.Table1(ds)))
}

// BenchmarkTable2 regenerates Table 2 (top-20 A&A domains).
func BenchmarkTable2(b *testing.B) {
	ds := campaignDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Table2(ds, 20)
		if len(rows) != 20 {
			b.Fatal("bad rows")
		}
	}
	b.StopTimer()
	b.Logf("\n%s", analysis.RenderTable2(analysis.Table2(ds, 20)))
}

// BenchmarkTable3 regenerates Table 3 (per-PII-type summary).
func BenchmarkTable3(b *testing.B) {
	ds := campaignDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Table3(ds)
		if len(rows) != pii.NumTypes {
			b.Fatal("bad rows")
		}
	}
	b.StopTimer()
	b.Logf("\n%s", analysis.RenderTable3(analysis.Table3(ds)))
}

// --- Figures ----------------------------------------------------------------

func benchFigure(b *testing.B, id string, gen func(*core.Dataset) analysis.FigureSeries) {
	b.Helper()
	ds := campaignDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := gen(ds)
		if len(fs["android"]) == 0 || len(fs["ios"]) == 0 {
			b.Fatalf("figure %s series empty", id)
		}
	}
}

// BenchmarkFigure1a: CDF of (App−Web) A&A domains contacted.
func BenchmarkFigure1a(b *testing.B) { benchFigure(b, "1a", analysis.Figure1a) }

// BenchmarkFigure1b: CDF of (App−Web) flows to A&A domains.
func BenchmarkFigure1b(b *testing.B) { benchFigure(b, "1b", analysis.Figure1b) }

// BenchmarkFigure1c: CDF of (App−Web) MB of traffic to A&A.
func BenchmarkFigure1c(b *testing.B) { benchFigure(b, "1c", analysis.Figure1c) }

// BenchmarkFigure1d: CDF of (App−Web) domains receiving PII.
func BenchmarkFigure1d(b *testing.B) { benchFigure(b, "1d", analysis.Figure1d) }

// BenchmarkFigure1e: PDF of (App−Web) distinct leaked identifiers.
func BenchmarkFigure1e(b *testing.B) { benchFigure(b, "1e", analysis.Figure1e) }

// BenchmarkFigure1f: CDF of the Jaccard index of leaked identifier sets.
func BenchmarkFigure1f(b *testing.B) { benchFigure(b, "1f", analysis.Figure1f) }

// --- Artifact serving (analysis.Engine) --------------------------------------

// BenchmarkEngineColdArtifacts measures a cold artifact build: a fresh
// engine per iteration computing every serving artifact (report, tables,
// figure CSVs and SVGs, surveys) in one parallel fan-out. This is the
// cost avwserve pays on first request for a new dataset generation.
func BenchmarkEngineColdArtifacts(b *testing.B) {
	ds := campaignDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := analysis.NewEngine(analysis.EngineOptions{Metrics: obs.New()})
		arts, err := eng.Register("bench", ds).ComputeAll(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(arts) != len(analysis.ArtifactIDs()) {
			b.Fatalf("computed %d artifacts, want %d", len(arts), len(analysis.ArtifactIDs()))
		}
	}
}

// BenchmarkEngineWarmArtifacts measures serving the same artifacts from a
// warmed cache — the steady state of a report server. The epilogue proves
// the warm path did zero recomputation: the compute histogram must not
// grow and the hit counter must (the acceptance criterion of the engine).
func BenchmarkEngineWarmArtifacts(b *testing.B) {
	ds := campaignDataset(b)
	reg := obs.New()
	eng := analysis.NewEngine(analysis.EngineOptions{Metrics: reg})
	h := eng.Register("bench", ds)
	if _, err := h.ComputeAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	computes := reg.Histogram("analysis.compute_ns", "ns").Count()
	hitsBefore := reg.Snapshot().Counters["analysis.cache_hits_total"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arts, err := h.ComputeAll(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(arts) != len(analysis.ArtifactIDs()) {
			b.Fatal("short artifact set")
		}
	}
	b.StopTimer()
	if got := reg.Histogram("analysis.compute_ns", "ns").Count(); got != computes {
		b.Fatalf("warm serving recomputed artifacts: compute_ns count %d -> %d", computes, got)
	}
	if hits := reg.Snapshot().Counters["analysis.cache_hits_total"]; hits <= hitsBefore {
		b.Fatalf("warm serving counted no cache hits (%d -> %d)", hitsBefore, hits)
	}
}

// BenchmarkEngineUpdate measures the per-snapshot cost a live report
// server pays on every journal fold: one Handle.Update over the committed
// dataset.json, alternating two snapshots that differ in their last
// result, so every op fingerprints new content and invalidates.
func BenchmarkEngineUpdate(b *testing.B) {
	ds, err := core.Load("dataset.json")
	if err != nil {
		b.Fatal(err)
	}
	next := *ds
	next.Results = append([]*core.ExperimentResult(nil), ds.Results...)
	last := *next.Results[len(next.Results)-1]
	last.AAFlows++
	next.Results[len(next.Results)-1] = &last
	snaps := [2]*core.Dataset{&next, ds}

	h := analysis.NewEngine(analysis.EngineOptions{Metrics: obs.New()}).Register("bench", ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Update(snaps[i%2])
	}
}

// --- §4.2 / §3.2 prose experiments -------------------------------------------

// BenchmarkPasswordLeakAudit extracts the password-disclosure cases (P0).
func BenchmarkPasswordLeakAudit(b *testing.B) {
	ds := campaignDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaks := analysis.PasswordLeaks(ds)
		if len(leaks) == 0 {
			b.Fatal("no password leaks")
		}
	}
	b.StopTimer()
	b.Logf("\n%s", strings.Join(analysis.PasswordLeaks(ds), "\n"))
}

// BenchmarkDurationSensitivity reruns one experiment at 4 and 10 minutes
// (S0): flows grow with duration, the PII type set does not.
func BenchmarkDurationSensitivity(b *testing.B) {
	eco, runner := benchEcosystem(b, "datemate")
	defer eco.Close()
	cell := services.Cell{OS: services.Android, Medium: services.App}
	spec := eco.Catalog[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Opts.Duration = 4 * time.Minute
		short, err := runner.RunExperiment(spec, cell)
		if err != nil {
			b.Fatal(err)
		}
		runner.Opts.Duration = 10 * time.Minute
		long, err := runner.RunExperiment(spec, cell)
		if err != nil {
			b.Fatal(err)
		}
		if long.TotalFlows <= short.TotalFlows || long.LeakTypes != short.LeakTypes {
			b.Fatalf("duration sensitivity violated: %d→%d flows, %v→%v",
				short.TotalFlows, long.TotalFlows, short.LeakTypes, long.LeakTypes)
		}
	}
}

// BenchmarkCampaign runs an entire (reduced-scale) 50-service campaign per
// iteration: the full measurement pipeline end to end.
func BenchmarkCampaign(b *testing.B) {
	eco, err := services.Start(services.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	defer eco.Close()
	runner, err := core.NewRunner(eco, core.Options{Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := runner.RunCampaign()
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Results) != 200 {
			b.Fatal("incomplete campaign")
		}
	}
}

// BenchmarkShardedCampaign runs the same reduced-scale campaign as
// BenchmarkCampaign, but through the distributed machinery: a 4-shard
// plan, in-process workers each journaling to its own file, heartbeat
// leases, and the deterministic journal merge. Gated side by side with
// BenchmarkCampaign by the macro gate in bench_gates.json, the pair
// bounds the coordination overhead — planning, four journal fsync
// streams, and the merge — relative to a single-process run
// (docs/distributed.md).
func BenchmarkShardedCampaign(b *testing.B) {
	eco, err := services.Start(services.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	defer eco.Close()
	opts := core.Options{Scale: 0.05}
	plan, err := shard.NewPlan(services.Catalog(), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		merged, err := shard.Run(context.Background(), shard.Config{
			Plan:     plan,
			Dir:      dir,
			Launcher: &shard.InProcess{Eco: eco, Opts: opts, Plan: plan, Dir: dir},
			LeaseTTL: time.Minute,
			Metrics:  obs.New(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if merged.Len() != 200 {
			b.Fatal("incomplete campaign")
		}
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------

// BenchmarkAblationDetection compares the three detection configurations
// over the same flows: string matching alone, the trained classifier
// alone, and the paper's combination.
func BenchmarkAblationDetection(b *testing.B) {
	flows, det, clf := benchDetectionContext(b)
	run := func(b *testing.B, d *core.Detector) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, f := range flows {
				if !d.Detect(f).Types.Empty() {
					n++
				}
			}
			if n == 0 {
				b.Fatal("no detections")
			}
		}
	}
	b.Run("string-only", func(b *testing.B) {
		run(b, &core.Detector{Matcher: det.Matcher})
	})
	b.Run("recon-only", func(b *testing.B) {
		run(b, &core.Detector{Recon: clf, SkipStringMatch: true})
	})
	b.Run("combined", func(b *testing.B) {
		run(b, &core.Detector{Matcher: det.Matcher, Recon: clf})
	})
}

// BenchmarkAblationFiltering measures the background filter's cost and
// effect.
func BenchmarkAblationFiltering(b *testing.B) {
	flows, _, _ := benchDetectionContext(b)
	isBG := func(host string) bool {
		return strings.HasSuffix(host, "play-services.example") || strings.HasSuffix(host, "icloud-sim.example")
	}
	b.Run("with-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kept, _ := capture.FilterBackground(flows, isBG)
			if len(kept) == 0 {
				b.Fatal("all filtered")
			}
		}
	})
	b.Run("without-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kept, _ := capture.FilterBackground(flows, nil)
			if len(kept) != len(flows) {
				b.Fatal("filter applied")
			}
		}
	})
}

// BenchmarkAblationEasyList compares the indexed matcher against a naive
// scan over an equivalent rule list.
func BenchmarkAblationEasyList(b *testing.B) {
	list := easylist.Bundled()
	// Naive list: same rules but force the generic (unindexed) path by
	// rebuilding each match as a full scan over every host candidate.
	hosts := make([]string, 0, 60)
	for _, org := range easylist.AllAANames() {
		hosts = append(hosts, "pixel."+easylist.SimDomain(org))
	}
	hosts = append(hosts, "api.weather-sim.example", "cdn.cloudfiles-sim.example")
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, h := range hosts {
				if list.MatchHost(h) {
					n++
				}
			}
			if n != len(easylist.AllAANames()) {
				b.Fatalf("matched %d", n)
			}
		}
	})
	b.Run("ground-truth-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, h := range hosts {
				if easylist.IsSimAADomain(h) {
					n++
				}
			}
			if n != len(easylist.AllAANames()) {
				b.Fatalf("matched %d", n)
			}
		}
	})
}

// BenchmarkAblationTLSResume measures interception with TLS session
// resumption on and off (proxy.Config.DisableTLSResume), on both sides of
// the proxy. In "tunnel" every op is one request on a fresh CONNECT tunnel
// through one long-lived proxy: each op pays a device-side handshake,
// abbreviated when it resumes, while the upstream connection stays alive.
// In "proxy-per-op" every op also builds a fresh proxy from one shared
// proxy.Sessions, as the campaign runner does per experiment; the proxies
// share its upstream pool, so the upstream connection stays pooled across
// them too. resumed/op is the share of device-side handshakes that resumed.
func BenchmarkAblationTLSResume(b *testing.B) {
	eco, err := services.Start(services.Catalog()[:1])
	if err != nil {
		b.Fatal(err)
	}
	defer eco.Close()
	url := "https://" + eco.Catalog[0].Domain() + "/api/feed"
	for _, mode := range []string{"tunnel", "proxy-per-op"} {
		for _, disable := range []bool{false, true} {
			name := mode + "/resume-on"
			if disable {
				name = mode + "/resume-off"
			}
			b.Run(name, func(b *testing.B) {
				ca, err := proxy.NewCA("bench CA")
				if err != nil {
					b.Fatal(err)
				}
				sessions, err := proxy.NewSessions()
				if err != nil {
					b.Fatal(err)
				}
				defer sessions.CloseIdleConnections()
				trust := ca.Pool()
				trust.AppendCertsFromPEM(eco.Internet.CA.CertPEM())
				var sink capture.CountingSink
				reg := obs.New()
				start := func() *proxy.Proxy {
					px, err := proxy.New(proxy.Config{
						CA: ca, Sessions: sessions, Resolver: eco.Internet.Resolver,
						OriginPool: eco.Internet.CA.Pool(), Sink: &sink,
						DisableTLSResume: disable, Metrics: reg,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := px.Start(); err != nil {
						b.Fatal(err)
					}
					return px
				}
				// One device session cache for the whole run, as a phone
				// keeps across connections.
				deviceCache := tls.NewLRUClientSessionCache(64)
				device := func(px *proxy.Proxy) *http.Client {
					client := newBenchClient(px, trust)
					client.Transport.(*http.Transport).TLSClientConfig.ClientSessionCache = deviceCache
					return client
				}
				get := func(client *http.Client) {
					resp, err := client.Get(url)
					if err != nil {
						b.Fatal(err)
					}
					drain(resp)
				}
				if mode == "tunnel" {
					px := start()
					defer px.Close()
					client := device(px)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						get(client)
					}
					b.StopTimer()
					px.Drain(time.Second)
				} else {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						px := start()
						get(device(px))
						b.StopTimer()
						px.Drain(time.Second)
						b.StartTimer()
						px.Close()
					}
				}
				tunnels := reg.Counter("proxy.tunnels_total").Value()
				if tunnels > 0 {
					resumed := reg.Counter("proxy.tunnels_resumed_total").Value()
					b.ReportMetric(float64(resumed)/float64(tunnels), "resumed/op")
				}
			})
		}
	}
}

// --- Extensions (paper's future work, DESIGN.md) -------------------------------

// BenchmarkExtensionAdblock measures a Web experiment with and without the
// bundled EasyList in the browser — the "existing browser privacy
// protection tools" question.
func BenchmarkExtensionAdblock(b *testing.B) {
	for _, adblock := range []bool{false, true} {
		name := "adblock-off"
		if adblock {
			name = "adblock-on"
		}
		b.Run(name, func(b *testing.B) {
			eco, runner := benchEcosystem(b, "worldnews")
			defer eco.Close()
			runner.Opts.BrowserAdblock = adblock
			runner.Opts.Scale = 0.1
			cell := services.Cell{OS: services.Android, Medium: services.Web}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runner.RunExperiment(eco.Catalog[0], cell)
				if err != nil {
					b.Fatal(err)
				}
				if adblock && res.AAFlows != 0 {
					b.Fatalf("adblock left %d A&A flows", res.AAFlows)
				}
				if !adblock && res.AAFlows == 0 {
					b.Fatal("control run had no A&A flows")
				}
			}
		})
	}
}

// BenchmarkExtensionProtection measures an app experiment with and without
// the ReCon-style PII-redacting proxy.
func BenchmarkExtensionProtection(b *testing.B) {
	for _, protect := range []bool{false, true} {
		name := "protect-off"
		if protect {
			name = "protect-on"
		}
		b.Run(name, func(b *testing.B) {
			eco, runner := benchEcosystem(b, "grubexpress")
			defer eco.Close()
			runner.Opts.Protect = protect
			cell := services.Cell{OS: services.Android, Medium: services.App}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runner.RunExperiment(eco.Catalog[0], cell)
				if err != nil {
					b.Fatal(err)
				}
				if protect != res.LeakTypes.Empty() {
					b.Fatalf("protect=%v but leaks=%v", protect, res.LeakTypes)
				}
			}
		})
	}
}

// BenchmarkCrossService surveys cross-service PII reach over the shared
// campaign dataset.
func BenchmarkCrossService(b *testing.B) {
	ds := campaignDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.CrossService(ds, 2)
		if len(rows) == 0 {
			b.Fatal("no cross-service rows")
		}
	}
	b.StopTimer()
	b.Logf("\n%s", analysis.RenderCrossService(analysis.CrossService(ds, 4)))
}

// --- shared helpers -----------------------------------------------------------

func benchEcosystem(b *testing.B, keys ...string) (*services.Ecosystem, *core.Runner) {
	b.Helper()
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
		b.Fatal(err)
	}
	runner, err := core.NewRunner(eco, core.Options{Scale: 0.2})
	if err != nil {
		eco.Close()
		b.Fatal(err)
	}
	return eco, runner
}

// benchDetectionContext produces a realistic labeled flow corpus plus a
// matcher-based detector and a classifier trained on it.
func benchDetectionContext(b *testing.B) ([]*capture.Flow, *core.Detector, *recon.Classifier) {
	b.Helper()
	eco, runner := benchEcosystem(b, "grubexpress", "weathernow")
	defer eco.Close()

	var flows []*capture.Flow
	var labeled []recon.LabeledFlow
	dev := device.NewDevice(services.Android, 0)
	for _, spec := range eco.Catalog {
		res, err := runner.RunExperiment(spec, services.Cell{OS: services.Android, Medium: services.App})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
		// Re-run capture directly: RunExperiment does not expose flows, so
		// rebuild synthetic flows from the profile plan for the ablation.
		identity := dev.Identity(device.NewAccount(spec.Key))
		exp := device.NewExpander(identity, services.Android, services.App)
		p, err := spec.Profile(services.Cell{OS: services.Android, Medium: services.App})
		if err != nil {
			b.Fatal(err)
		}
		matcher := pii.NewMatcher(identity)
		for _, req := range p.RequestPlan() {
			f := &capture.Flow{
				Method: req.Method, Protocol: capture.HTTPS, Intercepted: true,
				URL:         exp.Expand(req.URL),
				RequestBody: exp.ExpandBody(req.Body),
				RequestHeaders: map[string]string{
					"Content-Type": req.ContentType,
					"User-Agent":   dev.AppUserAgent(spec.Name),
				},
			}
			f.Host = hostOf(f.URL)
			flows = append(flows, f)
			labeled = append(labeled, recon.LabeledFlow{Flow: f, Types: pii.MatchTypes(matcher.ScanAll(f.Sections()))})
		}
	}
	identity := dev.Identity(device.NewAccount(eco.Catalog[0].Key))
	det := &core.Detector{Matcher: pii.NewMatcher(identity)}
	clf := recon.Train(labeled, recon.Options{})
	return flows, det, clf
}

func newBenchClient(px *proxy.Proxy, trust *x509.CertPool) *http.Client {
	return &http.Client{
		Transport: proxy.ClientTransport(px.URL(), trust),
		Timeout:   10 * time.Second,
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func hostOf(u string) string {
	s := u
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?"); i >= 0 {
		s = s[:i]
	}
	return s
}
