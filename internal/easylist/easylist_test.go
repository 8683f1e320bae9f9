package easylist

import (
	"strings"
	"testing"
)

func mustList(t *testing.T, rules ...string) *List {
	t.Helper()
	l, err := Parse(strings.Join(rules, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func req(url string, thirdParty bool) Request {
	host := url
	if i := strings.Index(host, "://"); i >= 0 {
		host = host[i+3:]
	}
	if i := strings.IndexAny(host, "/?#:"); i >= 0 {
		host = host[:i]
	}
	return Request{URL: url, Host: host, ThirdParty: thirdParty}
}

func TestParseCounts(t *testing.T) {
	l := mustList(t,
		"! comment",
		"[Adblock Plus 2.0]",
		"||ads.example^",
		"@@||ok.example^",
		"/banner/*",
		"example.com###cosmetic",
		"",
	)
	nb, ne := l.NumRules()
	if nb != 2 || ne != 1 {
		t.Errorf("NumRules = %d, %d; want 2, 1", nb, ne)
	}
	if l.NumIgnored() != 1 {
		t.Errorf("NumIgnored = %d, want 1", l.NumIgnored())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"||ads.example^$bogus-option",
		"|",
		"@@",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestDomainAnchorMatching(t *testing.T) {
	l := mustList(t, "||ads.example^")
	cases := []struct {
		url  string
		want bool
	}{
		{"http://ads.example/", true},
		{"https://ads.example/banner.js", true},
		{"http://sub.ads.example/x", true},
		{"http://ads.example:8080/x", true},
		{"http://notads.example/", false},          // must not match mid-label
		{"http://ads.example.com/", false},         // ^ must hit a separator, not ".c"
		{"http://x.example/?u=ads.example", false}, // only host positions
	}
	for _, c := range cases {
		_, got := l.Match(req(c.url, true))
		if got != c.want {
			t.Errorf("Match(%q) = %v, want %v", c.url, got, c.want)
		}
	}
}

func TestStartAndEndAnchors(t *testing.T) {
	l := mustList(t, "|http://exact.example/ad.gif|")
	if _, ok := l.Match(req("http://exact.example/ad.gif", true)); !ok {
		t.Error("exact match failed")
	}
	if _, ok := l.Match(req("http://exact.example/ad.gif?x=1", true)); ok {
		t.Error("end anchor ignored")
	}
	if _, ok := l.Match(req("https://exact.example/ad.gif", true)); ok {
		t.Error("start anchor ignored")
	}
}

func TestWildcards(t *testing.T) {
	l := mustList(t, "||adwall.*/impression^")
	if _, ok := l.Match(req("http://adwall.example/impression?id=1", true)); !ok {
		t.Error("wildcard match failed")
	}
	if _, ok := l.Match(req("http://adwall.example/click", true)); ok {
		t.Error("wildcard overmatched")
	}
}

func TestUnanchoredSubstring(t *testing.T) {
	l := mustList(t, "-banner-ad.")
	if _, ok := l.Match(req("http://cdn.example/img/top-banner-ad.png", true)); !ok {
		t.Error("substring match failed")
	}
	if _, ok := l.Match(req("http://cdn.example/img/banner.png", true)); ok {
		t.Error("substring overmatched")
	}
}

func TestSeparatorSemantics(t *testing.T) {
	l := mustList(t, "/track/pixel?")
	if _, ok := l.Match(req("http://t.example/track/pixel?u=1", true)); !ok {
		t.Error("literal ? failed")
	}
	// '^' matches end of address.
	l2 := mustList(t, "||pix.example^")
	if _, ok := l2.Match(req("http://pix.example", true)); !ok {
		t.Error("^ at end-of-address failed")
	}
}

func TestThirdPartyOption(t *testing.T) {
	l := mustList(t, "/adserver/*$third-party")
	if _, ok := l.Match(req("http://x.example/adserver/a.js", true)); !ok {
		t.Error("third-party request should match")
	}
	if _, ok := l.Match(req("http://x.example/adserver/a.js", false)); ok {
		t.Error("first-party request should not match")
	}
	l2 := mustList(t, "/internal/*$~third-party")
	if _, ok := l2.Match(req("http://x.example/internal/a.js", false)); !ok {
		t.Error("~third-party on first-party should match")
	}
	if _, ok := l2.Match(req("http://x.example/internal/a.js", true)); ok {
		t.Error("~third-party on third-party should not match")
	}
}

func TestDomainOption(t *testing.T) {
	l := mustList(t, "||tracker.example^$domain=news.example|~sports.news.example")
	r := req("http://tracker.example/p", true)
	r.OriginHost = "www.news.example"
	if _, ok := l.Match(r); !ok {
		t.Error("domain= include failed")
	}
	r.OriginHost = "sports.news.example"
	if _, ok := l.Match(r); ok {
		t.Error("domain= exclude failed")
	}
	r.OriginHost = "other.example"
	if _, ok := l.Match(r); ok {
		t.Error("unlisted origin should not match")
	}
}

func TestExceptionOverridesBlock(t *testing.T) {
	l := mustList(t,
		"/adserver/*",
		"@@||self-promo-ok.example/adserver/",
	)
	if _, ok := l.Match(req("http://other.example/adserver/x", true)); !ok {
		t.Error("block rule failed")
	}
	if _, ok := l.Match(req("http://self-promo-ok.example/adserver/x", true)); ok {
		t.Error("exception did not override")
	}
}

func TestResourceTypeOptionsParsedNotEnforced(t *testing.T) {
	l := mustList(t, "||ads.example^$script,image")
	if _, ok := l.Match(req("http://ads.example/a.css", true)); !ok {
		t.Error("resource types should be recorded but not enforced")
	}
}

func TestMatchHost(t *testing.T) {
	l := Bundled()
	for _, name := range AllAANames() {
		if !l.MatchHost(SimDomain(name)) {
			t.Errorf("bundled list misses %s", SimDomain(name))
		}
		if !l.MatchHost("pixel." + SimDomain(name)) {
			t.Errorf("bundled list misses subdomain of %s", SimDomain(name))
		}
	}
	for _, name := range NonAAThirdParties {
		if l.MatchHost(SimDomain(name)) {
			t.Errorf("bundled list wrongly matches %s", SimDomain(name))
		}
	}
	if l.MatchHost("weather-sim.example") {
		t.Error("first-party domain matched as A&A")
	}
}

// TestHostCacheEquivalence: the campaign-shaped probe hosts classify as
// expected, MatchHost agrees with MatchHostRule, and repeat lookups return
// the same verdict and the same *Rule (the list keeps no per-host state).
func TestHostCacheEquivalence(t *testing.T) {
	l := Bundled()
	// Every simulated tracker's CDN host blocks; first-party hosts, one
	// written with a trailing dot, do not.
	probes := map[string]bool{
		"www.weathernow-sim.example": false,
		"api.examplebank.example":    false,
		"static.news-sim.example.":   false,
	}
	for _, name := range AllAANames() {
		probes["cdn."+name+"-sim.example"] = true
	}
	first := make(map[string]*Rule, len(probes))
	for round := 0; round < 3; round++ {
		for h, want := range probes {
			r, ok := l.MatchHostRule(h)
			if ok != want || (r != nil) != want || l.MatchHost(h) != want {
				t.Fatalf("round %d: MatchHostRule(%q) = (%v, %v), want blocked=%v", round, h, r, ok, want)
			}
			if round == 0 {
				first[h] = r
			} else if r != first[h] {
				t.Fatalf("round %d, host %q: rule %v differs from first lookup %v", round, h, r, first[h])
			}
		}
	}
}

// TestHostCacheMixedCase: a mixed-case host classifies exactly like its
// lowercase form — same verdict and the same *Rule.
func TestHostCacheMixedCase(t *testing.T) {
	l := Bundled()
	name := AllAANames()[0]
	lower := "cdn." + name + "-sim.example"
	mixed := "CDN." + strings.ToUpper(name) + "-Sim.Example"
	rLower, okLower := l.MatchHostRule(lower)
	rMixed, okMixed := l.MatchHostRule(mixed)
	if !okLower || !okMixed || rLower != rMixed {
		t.Fatalf("mixed-case divergence: lower=(%v,%v) mixed=(%v,%v)", rLower, okLower, rMixed, okMixed)
	}
	if !l.MatchHost(mixed) {
		t.Errorf("MatchHost(%q) = false, want true", mixed)
	}
}

func TestBundledRealWorldRules(t *testing.T) {
	l := Bundled()
	for _, h := range []string{"www.google-analytics.com", "ad.doubleclick.net", "api.taplytics.com"} {
		if !l.MatchHost(h) {
			t.Errorf("real-world host %s not matched", h)
		}
	}
}

func TestIsSimAADomain(t *testing.T) {
	if !IsSimAADomain("criteo-sim.example") || !IsSimAADomain("cdn.criteo-sim.example") {
		t.Error("criteo-sim should be AA")
	}
	if IsSimAADomain("usablenet-sim.example") {
		t.Error("usablenet-sim should not be AA")
	}
	if IsSimAADomain("notcriteo-sim.example") {
		t.Error("suffix match must be label-aligned")
	}
}

func TestLiteralHostExtraction(t *testing.T) {
	cases := []struct {
		rule string
		host string
		ok   bool
	}{
		{"||ads.example^", "ads.example", true},
		{"||ads.example/banner", "ads.example", true},
		{"||ads.*.example^", "", false},
		{"/adserver/", "", false},
	}
	for _, c := range cases {
		r, err := parseRule(strings.TrimPrefix(c.rule, "@@"))
		if err != nil {
			t.Fatalf("parse %q: %v", c.rule, err)
		}
		host, ok := r.literalHost()
		if host != c.host || ok != c.ok {
			t.Errorf("literalHost(%q) = %q, %v; want %q, %v", c.rule, host, ok, c.host, c.ok)
		}
	}
}

func BenchmarkBundledMatchHit(b *testing.B) {
	l := Bundled()
	r := req("https://pixel.criteo-sim.example/track/pixel?u=1", true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := l.Match(r); !ok {
			b.Fatal("expected match")
		}
	}
}

func BenchmarkBundledMatchMiss(b *testing.B) {
	l := Bundled()
	r := req("https://api.weather-sim.example/v1/forecast?zip=02115", false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := l.Match(r); ok {
			b.Fatal("unexpected match")
		}
	}
}
