package main

import (
	"context"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/core"
	"appvsweb/internal/device"
	"appvsweb/internal/obs"
	"appvsweb/internal/pii"
	"appvsweb/internal/proxy"
	"appvsweb/internal/services"
	"appvsweb/internal/vclock"
)

// The campaign workload is the researcher's job, what avwrun does: the
// full 50-service × {Android, iOS} × {app, web} matrix at scale 0.05,
// run by core.Runner.RunCampaign with two workers. Each pass gets a fresh
// runner, and so a fresh interception CA, as every avwrun invocation
// does. One op is one experiment, timed by ProgressEvent.Elapsed.

const (
	campaignScale       = 0.05
	campaignParallelism = 2
	// expectPath holds the digest of every experiment's timing- and
	// ID-free projection; the projection does not depend on catalog
	// order, so one file serves every seed.
	expectPath = "perfbench/expect/campaign.json"
)

const (
	campaignOpName = "campaign.experiment"
	// interceptCAName is the common name the runner gives its CA.
	interceptCAName = "Meddle Interception CA"
)

type campaign struct {
	seed    int64
	catalog []*services.Spec
	eco     *services.Ecosystem
	expect  map[string]string
	hosts   []string
}

func newCampaign(seed int64) workload { return &campaign{seed: seed} }

// permutedCatalog is the catalog in seed order: the seed decides which
// experiments run side by side and which one each pass starts with.
func permutedCatalog(seed int64) []*services.Spec {
	cat := services.Catalog()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cat), func(i, j int) { cat[i], cat[j] = cat[j], cat[i] })
	return cat
}

func (c *campaign) setUp() error {
	c.catalog = permutedCatalog(c.seed)
	var err error
	if c.expect, err = loadExpect(); err != nil {
		return err
	}
	if c.eco, err = services.Start(c.catalog); err != nil {
		return err
	}
	c.hosts = catalogHosts(c.catalog)
	// Warm-up: the four experiments of one service load the code paths
	// and the process-wide tables; the per-pass costs (CA, leaves,
	// proxies) are paid again by every measured pass. The service is the
	// same for every seed, so set-up time does not depend on the seed.
	first := services.Catalog()[0].Key
	r, err := core.NewRunner(c.eco, core.Options{
		Scale: campaignScale, Parallelism: campaignParallelism, FailurePolicy: core.FailSkip,
		Experiments: func(service string, _ services.Cell) bool { return service == first },
	})
	if err != nil {
		return err
	}
	ds, err := r.RunCampaign()
	if err != nil {
		return fmt.Errorf("warm-up campaign: %w", err)
	}
	if bad := c.check(ds.Results, false); len(bad) > 0 {
		return fmt.Errorf("warm-up campaign output differs from %s: %v", expectPath, bad)
	}
	return nil
}

func (c *campaign) close() {
	if c.eco != nil {
		c.eco.Close()
	}
}

func (c *campaign) run(d time.Duration, tr *tracer) (*runStats, error) {
	st := &runStats{opName: campaignOpName}
	ctr := snapCounters(ctrBytesUp, ctrBytesDown, ctrTunnels, ctrCatHits, ctrCatMisses, ctrHostHits, ctrHostMisses)
	lt := newCampaignLayers()
	m := startMeter()
	var last time.Duration
	// Whole passes only: a pass cut short would measure a different mix.
	// Start another while it is expected to end nearer d than stopping now.
	for st.attempted == 0 || time.Since(m.start)+last/2 < d {
		t0 := time.Now()
		var err error
		if tr == nil {
			err = c.pass(st, m)
		} else {
			err = c.tracedPass(st, m, tr, lt)
		}
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
	}
	m.finish(st)
	st.bytesMoved = ctr.delta(ctrBytesUp) + ctr.delta(ctrBytesDown)
	if tr != nil {
		st.layers = lt.metrics(len(st.lat), ctr)
	}
	return st, nil
}

// pass runs one untraced campaign through RunCampaign.
func (c *campaign) pass(st *runStats, m *meter) error {
	var mu sync.Mutex
	r, err := core.NewRunner(c.eco, core.Options{
		Scale: campaignScale, Parallelism: campaignParallelism, FailurePolicy: core.FailSkip,
		OnProgress: func(ev core.ProgressEvent) {
			m.opDone()
			if ev.Err != nil || ev.Skipped {
				return
			}
			mu.Lock()
			st.lat = append(st.lat, ev.Elapsed)
			mu.Unlock()
		},
	})
	if err != nil {
		return err
	}
	ds, err := r.RunCampaign()
	if err != nil {
		return fmt.Errorf("campaign pass: %w", err)
	}
	st.attempted += len(c.expect)
	st.failed += len(c.check(ds.Results, true))
	return nil
}

// check returns the keys of the experiments whose projection digest
// differs from the expected one; with full set, expected experiments
// missing from results count too.
func (c *campaign) check(results []*core.ExperimentResult, full bool) []string {
	got := make(map[string]string, len(results))
	for _, r := range results {
		got[core.ExperimentKey(r.Service, r.CellKey())] = projectionDigest(r)
	}
	var bad []string
	if full {
		for k := range c.expect {
			if _, ok := got[k]; !ok {
				bad = append(bad, k+" (missing)")
			}
		}
	}
	for k, g := range got {
		if c.expect[k] != g {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}

// projectionDigest digests the part of a result that must not depend on
// timing, flow IDs or catalog order: flow count, exclusion, and the
// sorted multiset of (host, domain, types, plaintext) leaks.
func projectionDigest(r *core.ExperimentResult) string {
	leaks := make([]string, 0, len(r.Leaks))
	for _, l := range r.Leaks {
		leaks = append(leaks, fmt.Sprintf("%s|%s|%s|%t", l.Host, l.Domain, l.Types, l.Plaintext))
	}
	sort.Strings(leaks)
	h := sha256.New()
	fmt.Fprintf(h, "flows=%d excluded=%t\n%s", r.TotalFlows, r.Excluded, strings.Join(leaks, "\n"))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func loadExpect() (map[string]string, error) {
	data, err := os.ReadFile(expectPath)
	if err != nil {
		return nil, fmt.Errorf("expected campaign digests: %w", err)
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("expected campaign digests: %w", err)
	}
	return m, nil
}

// writeCampaignExpect runs one pass and records its projection digests.
// Run it only when the program's measured output is meant to change.
func writeCampaignExpect(seed int64) error {
	cat := permutedCatalog(seed)
	eco, err := services.Start(cat)
	if err != nil {
		return err
	}
	defer eco.Close()
	r, err := core.NewRunner(eco, core.Options{Scale: campaignScale, Parallelism: campaignParallelism})
	if err != nil {
		return err
	}
	ds, err := r.RunCampaign()
	if err != nil {
		return err
	}
	m := map[string]string{}
	for _, res := range ds.Results {
		m[core.ExperimentKey(res.Service, res.CellKey())] = projectionDigest(res)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(expectPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d digests to %s\n", len(m), expectPath)
	return nil
}

// catalogHosts lists every host the catalog's request plans and first
// parties name: the hosts a pass mints interception leaves for.
func catalogHosts(cat []*services.Spec) []string {
	seen := map[string]bool{}
	for _, spec := range cat {
		for _, d := range spec.Domains() {
			seen[d] = true
		}
		for _, cell := range services.AllCells() {
			p, err := spec.Profile(cell)
			if err != nil {
				continue
			}
			for _, r := range p.RequestPlan() {
				if h := urlHost(r.URL); h != "" {
					seen[h] = true
				}
			}
		}
	}
	hosts := make([]string, 0, len(seen))
	for h := range seen {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

func urlHost(u string) string {
	_, rest, ok := strings.Cut(u, "://")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/?:"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// campaignLayers accumulates the traced pass's per-layer observations.
type campaignLayers struct {
	mu            sync.Mutex
	setup, drain  []time.Duration
	session       []time.Duration
	matcher       []time.Duration
	analyze       []time.Duration
	requests      int
	drainTimeouts int
	mint, hit     []time.Duration
	stages        map[string]histDelta
}

func newCampaignLayers() *campaignLayers {
	stage := obs.Default.HistogramVec("stage", "ns", "stage")
	l := &campaignLayers{stages: map[string]histDelta{}}
	for _, s := range []string{"filter", "detect", "categorize"} {
		l.stages[s] = snapHist(stage.WithLabelValues(s))
	}
	return l
}

func (l *campaignLayers) metrics(ops int, ctr counters) map[string]metricOut {
	per := float64(max(ops, 1))
	catHits, catAll := ctr.delta(ctrCatHits), ctr.delta(ctrCatHits)+ctr.delta(ctrCatMisses)
	hostHits, hostAll := ctr.delta(ctrHostHits), ctr.delta(ctrHostHits)+ctr.delta(ctrHostMisses)
	stage := func(s string) metricOut {
		h := l.stages[s]
		return metricOut{h.meanMS(), "ms", int(h.n())}
	}
	return map[string]metricOut{
		"device.session_ms":            meanOf(l.session),
		"device.requests_per_op":       {float64(l.requests) / per, "count", ops},
		"proxy.setup_ms":               meanOf(l.setup),
		"proxy.drain_ms":               meanOf(l.drain),
		"proxy.drain_timeouts":         {float64(l.drainTimeouts), "count", len(l.drain)},
		"pii.matcher_build_ms":         meanOf(l.matcher),
		"proxy.leaf_mint_ms":           meanOf(l.mint),
		"proxy.leaf_hit_ms":            meanOf(l.hit),
		"core.analyze_ms":              meanOf(l.analyze),
		"core.stage_filter_ms":         stage("filter"),
		"core.stage_detect_ms":         stage("detect"),
		"core.stage_categorize_ms":     stage("categorize"),
		"domains.catcache_hit_ratio":   {ratio(catHits, catAll), "ratio", int(catAll)},
		"easylist.hostcache_hit_ratio": {ratio(hostHits, hostAll), "ratio", int(hostAll)},
		"proxy.tunnels_per_op":         {float64(ctr.delta(ctrTunnels)) / per, "count", ops},
	}
}

// tracedPass runs one campaign pass through the same public calls the
// runner makes per experiment, with a span around each, on the same two
// workers. It also times leaf minting on a fresh CA and leaf hits on the
// warm one, outside the ops.
func (c *campaign) tracedPass(st *runStats, m *meter, tr *tracer, lt *campaignLayers) error {
	ca, err := proxy.NewCA(interceptCAName)
	if err != nil {
		return err
	}
	trust := ca.Pool()
	trust.AppendCertsFromPEM(c.eco.Internet.CA.CertPEM())
	if err := lt.leafProbe(c.hosts); err != nil {
		return err
	}

	type job struct {
		spec *services.Spec
		cell services.Cell
		idx  int
	}
	jobs := make(chan job)
	results := make([]*core.ExperimentResult, 0, len(c.expect))
	var mu sync.Mutex
	var wg sync.WaitGroup
	var errs []string
	for w := 0; w < campaignParallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				op := tr.root(campaignOpName)
				res, err := c.tracedExperiment(j.spec, j.cell, j.idx, ca, trust, tr, op, lt)
				op.end()
				m.opDone()
				mu.Lock()
				if err != nil {
					errs = append(errs, err.Error())
				} else {
					results = append(results, res)
					st.lat = append(st.lat, time.Since(op.start))
				}
				mu.Unlock()
			}
		}()
	}
	idx := 0
	for _, spec := range c.catalog {
		for _, cell := range services.AllCells() {
			jobs <- job{spec, cell, idx}
			idx++
		}
	}
	close(jobs)
	wg.Wait()
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: traced experiment:", e)
	}
	st.attempted += len(c.expect)
	st.failed += len(c.check(results, true))
	return nil
}

// add appends one observation to a series of l.
func (l *campaignLayers) add(series *[]time.Duration, d time.Duration) {
	l.mu.Lock()
	*series = append(*series, d)
	l.mu.Unlock()
}

func (l *campaignLayers) leafProbe(hosts []string) error {
	ca, err := proxy.NewCA(interceptCAName)
	if err != nil {
		return err
	}
	var mint, hit []time.Duration
	for _, pass := range []*[]time.Duration{&mint, &hit} {
		for _, h := range hosts {
			t0 := time.Now()
			if _, err := ca.Leaf(h); err != nil {
				return err
			}
			*pass = append(*pass, time.Since(t0))
		}
	}
	l.mu.Lock()
	l.mint = append(l.mint, mint...)
	l.hit = append(l.hit, hit...)
	l.mu.Unlock()
	return nil
}

// tracedExperiment is one experiment made of the public calls the runner
// makes: proxy, session, matcher, drain, analysis. A drain timeout fails
// the op, as it can leave flows out of the result.
func (c *campaign) tracedExperiment(spec *services.Spec, cell services.Cell, idx int, ca *proxy.CA, trust *x509.CertPool, tr *tracer, op ref, lt *campaignLayers) (*core.ExperimentResult, error) {
	span := func(name string, f func()) time.Duration {
		s := tr.child(op, name)
		f()
		return s.end()
	}
	base := time.Date(2016, 4, 1, 9, 0, 0, 0, time.UTC).Add(time.Duration(idx) * 10 * time.Minute)
	clock := vclock.New(base)
	sink := capture.NewMemSink()
	dev := device.NewDevice(cell.OS, deviceIndex(spec.Key))
	identity := dev.Identity(device.NewAccount(spec.Key))
	result := &core.ExperimentResult{Service: spec.Key, Name: spec.Name, Category: spec.Category,
		Rank: spec.Rank, OS: cell.OS, Medium: cell.Medium}

	var px *proxy.Proxy
	var err error
	setup := span("proxy.setup", func() {
		px, err = proxy.New(proxy.Config{CA: ca, Resolver: c.eco.Internet.Resolver,
			OriginPool: c.eco.Internet.CA.Pool(), Sink: sink, Now: clock.Now,
			ClientID: fmt.Sprintf("%s/%s/%s", spec.Key, cell.OS, cell.Medium)})
		if err == nil {
			err = px.Start()
		}
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		lt.add(&lt.setup, setup+span("proxy.close", func() { px.Close() }))
	}()

	pin := ""
	if spec.PinsAndroid && cell.OS == services.Android && cell.Medium == services.App {
		if pin, err = c.eco.Internet.CA.LeafFingerprint(spec.Domain()); err != nil {
			return nil, err
		}
	}
	var sres *device.SessionResult
	lt.add(&lt.session, span("device.session", func() {
		sres, err = device.RunSessionContext(context.Background(), device.SessionConfig{
			Device: dev, Service: spec, Medium: cell.Medium, ProxyURL: px.URL(),
			Trust: trust, Pin: pin, Clock: clock, Duration: 4 * time.Minute, Scale: campaignScale,
		})
	}))
	if errors.Is(err, device.ErrPinned) {
		result.Excluded = true
		return result, nil
	}
	if err != nil {
		return nil, err
	}
	lt.mu.Lock()
	lt.requests += sres.Requests
	lt.mu.Unlock()

	var det *core.Detector
	lt.add(&lt.matcher, span("pii.matcher_build", func() { det = &core.Detector{Matcher: pii.NewMatcher(identity)} }))
	drained := false
	lt.add(&lt.drain, span("proxy.drain", func() { drained = px.Drain(2 * time.Second) }))
	if !drained {
		lt.mu.Lock()
		lt.drainTimeouts++
		lt.mu.Unlock()
		return nil, fmt.Errorf("%s: proxy drain timed out", core.ExperimentKey(spec.Key, cell))
	}
	lt.add(&lt.analyze, span("core.analyze", func() {
		core.AnalyzeFlows(c.eco.Categorizer, false, spec.Key, result, det, sink.Flows())
	}))
	return result, nil
}

// deviceIndex alternates between the two handsets per platform exactly as
// the campaign runner does, so traced sessions run the same devices.
func deviceIndex(key string) int {
	n := 0
	for _, c := range key {
		n += int(c)
	}
	return n % 2
}
