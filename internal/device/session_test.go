package device

import (
	"crypto/x509"
	"errors"
	"strings"
	"testing"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/proxy"
	"appvsweb/internal/services"
	"appvsweb/internal/vclock"
)

// world wires an ecosystem subset + interception proxy for session tests.
type world struct {
	eco   *services.Ecosystem
	px    *proxy.Proxy
	sink  *capture.MemSink
	clock *vclock.Clock
	trust *x509.CertPool
	pxCA  *proxy.CA
}

func newSessionWorld(t *testing.T, keys ...string) *world {
	t.Helper()
	var subset []*services.Spec
	for _, s := range services.Catalog() {
		for _, k := range keys {
			if s.Key == k {
				subset = append(subset, s)
			}
		}
	}
	if len(subset) != len(keys) {
		t.Fatalf("catalog subset incomplete: %v", keys)
	}
	eco, err := services.Start(subset)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eco.Close)

	pxCA, err := proxy.NewCA("Meddle CA")
	if err != nil {
		t.Fatal(err)
	}
	sink := capture.NewMemSink()
	clock := vclock.New(time.Date(2016, 4, 1, 10, 0, 0, 0, time.UTC))
	px, err := proxy.New(proxy.Config{
		CA:         pxCA,
		Resolver:   eco.Internet.Resolver,
		OriginPool: eco.Internet.CA.Pool(),
		Sink:       sink,
		Now:        clock.Now,
		ClientID:   "test-session",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := px.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })

	trust := pxCA.Pool()
	trust.AppendCertsFromPEM(eco.Internet.CA.CertPEM())
	return &world{eco: eco, px: px, sink: sink, clock: clock, trust: trust, pxCA: pxCA}
}

func (w *world) run(t *testing.T, key string, os services.OS, medium services.Medium, scale float64) *SessionResult {
	t.Helper()
	spec, _ := w.eco.Service(key)
	res, err := RunSession(SessionConfig{
		Device:   NewDevice(os, 0),
		Service:  spec,
		Medium:   medium,
		ProxyURL: w.px.URL(),
		Trust:    w.trust,
		Clock:    w.clock,
		Scale:    scale,
	})
	if err != nil {
		t.Fatalf("session %s/%s/%s: %v", key, os, medium, err)
	}
	return res
}

func TestAppSessionEndToEnd(t *testing.T) {
	w := newSessionWorld(t, "grubexpress")
	res := w.run(t, "grubexpress", services.Android, services.App, 0.2)
	if res.Failed > 0 {
		t.Errorf("failed requests: %d/%d", res.Failed, res.Requests)
	}
	flows := w.sink.Flows()
	if len(flows) < 10 {
		t.Fatalf("only %d flows captured", len(flows))
	}

	var sawLogin, sawPasswordToTaplytics, sawAdIDBeacon, sawBackground bool
	dev := NewDevice(services.Android, 0)
	acct := NewAccount("grubexpress")
	for _, f := range flows {
		switch {
		case f.Host == "grubexpress-sim.example" && strings.Contains(f.URL, "/api/login"):
			sawLogin = true
			if !strings.Contains(f.RequestBody, acct.Password) {
				t.Error("login flow does not carry the password")
			}
		case f.Host == "play-services.example":
			sawBackground = true
		}
		if strings.HasSuffix(f.Host, "taplytics-sim.example") {
			if strings.Contains(f.RequestBody, acct.Password) {
				sawPasswordToTaplytics = true
			}
			if strings.Contains(f.RequestBody, dev.Record.AdID) {
				sawAdIDBeacon = true
			}
		}
		if f.Protocol == capture.HTTPS && !f.Intercepted {
			t.Errorf("uninterecepted HTTPS flow: %+v", f)
		}
	}
	if !sawLogin {
		t.Error("no first-party login flow")
	}
	if !sawPasswordToTaplytics {
		t.Error("Grubhub bug not reproduced: password never reached taplytics")
	}
	if !sawAdIDBeacon {
		t.Error("advertising ID never reached the analytics SDK")
	}
	if !sawBackground {
		t.Error("no OS background traffic generated")
	}
}

func TestWebSessionEndToEnd(t *testing.T) {
	w := newSessionWorld(t, "worldnews")
	res := w.run(t, "worldnews", services.IOS, services.Web, 0.05)
	if res.Failed > 0 {
		t.Errorf("failed requests: %d/%d", res.Failed, res.Requests)
	}
	flows := w.sink.Flows()

	hosts := make(map[string]bool)
	var rtbHops, piiBeacons int
	for _, f := range flows {
		hosts[f.Host] = true
		if strings.Contains(f.URL, "/bid?") {
			rtbHops++
		}
		if strings.Contains(f.URL, "ll=42.34") {
			piiBeacons++
		}
		if strings.Contains(f.URL, "device_id=") && !strings.Contains(f.URL, "device_id=&") &&
			!strings.HasSuffix(f.URL, "device_id=") {
			t.Errorf("web flow carries a device identifier: %s", f.URL)
		}
	}
	if len(hosts) < 20 {
		t.Errorf("web session contacted only %d hosts", len(hosts))
	}
	if rtbHops < 2 {
		t.Errorf("RTB chain hops = %d", rtbHops)
	}
	if piiBeacons == 0 {
		t.Error("no location beacons observed")
	}
	if !hosts["worldnews-sim.example"] {
		t.Error("first party never contacted")
	}
}

func TestPinnedAndroidAppAborts(t *testing.T) {
	w := newSessionWorld(t, "chatwave")
	spec, _ := w.eco.Service("chatwave")
	pin, err := w.eco.Internet.CA.LeafFingerprint(spec.Domain())
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSession(SessionConfig{
		Device:   NewDevice(services.Android, 0),
		Service:  spec,
		Medium:   services.App,
		ProxyURL: w.px.URL(),
		Trust:    w.trust,
		Pin:      pin,
		Clock:    w.clock,
		Scale:    0.2,
	})
	if !errors.Is(err, ErrPinned) {
		t.Fatalf("err = %v, want ErrPinned", err)
	}
}

func TestSessionDurationScalesFlows(t *testing.T) {
	w := newSessionWorld(t, "docuscan")
	short := w.run(t, "docuscan", services.Android, services.App, 1)
	fourMin := short.Requests

	spec, _ := w.eco.Service("docuscan")
	res, err := RunSession(SessionConfig{
		Device:   NewDevice(services.Android, 0),
		Service:  spec,
		Medium:   services.App,
		ProxyURL: w.px.URL(),
		Trust:    w.trust,
		Clock:    w.clock,
		Duration: 10 * time.Minute,
		Scale:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests < fourMin*2 {
		t.Errorf("10-minute session (%d requests) not proportionally larger than 4-minute (%d)", res.Requests, fourMin)
	}
}

func TestSessionVirtualTimeSpansDuration(t *testing.T) {
	w := newSessionWorld(t, "docuscan")
	start := w.clock.Now()
	w.run(t, "docuscan", services.Android, services.App, 1)
	elapsed := w.clock.Since(start)
	if elapsed < 3*time.Minute || elapsed > 5*time.Minute {
		t.Errorf("virtual session length = %v, want ≈4m", elapsed)
	}
}

func TestPrivateModeFreshCookies(t *testing.T) {
	w := newSessionWorld(t, "yelpish")
	// A tunnel records its flow after it writes the response, so wait for
	// the first session's tunnels before splitting the capture at it.
	w.run(t, "yelpish", services.Android, services.Web, 0.1)
	if !w.px.Drain(5 * time.Second) {
		t.Fatal("proxy tunnels did not drain")
	}
	first := w.sink.Len()
	w.run(t, "yelpish", services.Android, services.Web, 0.1)
	flows := w.sink.Flows()[first:]
	// The second private-mode session must not present cookies on its
	// first request to any tracker (fresh jar).
	seen := make(map[string]bool)
	for _, f := range flows {
		if seen[f.Host] {
			continue
		}
		seen[f.Host] = true
		if c := f.Cookie(); c != "" && strings.Contains(f.Host, "-sim.example") && f.Host != "yelpish-sim.example" {
			t.Errorf("first contact to %s carried cookies: %q", f.Host, c)
		}
	}
}

func TestSessionActionLog(t *testing.T) {
	w := newSessionWorld(t, "grubexpress")
	spec, _ := w.eco.Service("grubexpress")
	var log strings.Builder
	_, err := RunSession(SessionConfig{
		Device:    NewDevice(services.Android, 0),
		Service:   spec,
		Medium:    services.App,
		ProxyURL:  w.px.URL(),
		Trust:     w.trust,
		Clock:     w.clock,
		Scale:     0.1,
		ActionLog: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	transcript := log.String()
	for _, want := range []string{
		"factory-reset", "install \"GrubExpress\"", "connect Meddle VPN",
		"approve all system permission prompts", "log in with pre-created account",
		"uninstall \"GrubExpress\"",
	} {
		if !strings.Contains(transcript, want) {
			t.Errorf("transcript missing %q:\n%s", want, transcript)
		}
	}
}
