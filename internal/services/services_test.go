package services

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"appvsweb/internal/easylist"
	"appvsweb/internal/pii"
)

func TestParseLeakSpec(t *testing.T) {
	cases := []struct {
		in   string
		want LeakSpec
	}{
		{"L", LeakSpec{Type: pii.Location, Encoding: pii.EncIdentity}},
		{"!L", LeakSpec{Type: pii.Location, Plaintext: true, Encoding: pii.EncIdentity}},
		{"L*x30", LeakSpec{Type: pii.Location, Broadcast: true, Repeat: 30, Encoding: pii.EncIdentity}},
		{"E%md5>criteo x4", LeakSpec{Type: pii.Email, Encoding: pii.EncMD5, Dests: []string{"criteo"}, Repeat: 4}},
		{"PW>taplytics x2", LeakSpec{Type: pii.Password, Dests: []string{"taplytics"}, Repeat: 2, Encoding: pii.EncIdentity}},
		{"UID>a;b x7", LeakSpec{Type: pii.UniqueID, Dests: []string{"a", "b"}, Repeat: 7, Encoding: pii.EncIdentity}},
		{"B>first x1", LeakSpec{Type: pii.Birthday, Dests: []string{"first"}, Repeat: 1, Encoding: pii.EncIdentity}},
		{"P#>first x1", LeakSpec{Type: pii.PhoneNumber, Dests: []string{"first"}, Repeat: 1, Encoding: pii.EncIdentity}},
	}
	for _, c := range cases {
		got, err := ParseLeakSpec(strings.TrimSpace(c.in))
		if err != nil {
			t.Errorf("ParseLeakSpec(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseLeakSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseLeakSpecErrors(t *testing.T) {
	for _, bad := range []string{"Z", "L%rot13", "L*>x", "L>", ""} {
		if _, err := ParseLeakSpec(bad); err == nil {
			t.Errorf("ParseLeakSpec(%q) succeeded", bad)
		}
	}
}

func TestParseCell(t *testing.T) {
	specs, err := ParseCell("L>moatads x30, UID>serving-sys x15")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Type != pii.Location || specs[1].Type != pii.UniqueID {
		t.Errorf("ParseCell = %+v", specs)
	}
	if got, err := ParseCell(""); err != nil || got != nil {
		t.Errorf("empty cell = %v, %v", got, err)
	}
	if _, err := ParseCell("L,Zz"); err == nil {
		t.Error("bad cell accepted")
	}
}

func TestValidateRejectsWebDeviceIDs(t *testing.T) {
	s := &Spec{Key: "bad", Name: "Bad", Category: Weather, AndroidWeb: "UID>criteo x2"}
	if err := s.Validate(); err == nil {
		t.Error("web UID accepted")
	}
	s2 := &Spec{Key: "bad2", Name: "Bad2", Category: Weather, AppTrackers: []string{"not-a-tracker"}}
	if err := s2.Validate(); err == nil {
		t.Error("unknown tracker accepted")
	}
}

func TestProfileDeterministic(t *testing.T) {
	spec := Catalog()[0]
	for _, c := range AllCells() {
		a, err := spec.Profile(c)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := spec.Profile(c)
		if !reflect.DeepEqual(a.Trackers, b.Trackers) || !reflect.DeepEqual(a.Beacons, b.Beacons) {
			t.Errorf("%v: profile not deterministic", c)
		}
		if !reflect.DeepEqual(a.RequestPlan(), b.RequestPlan()) {
			t.Errorf("%v: plan not deterministic", c)
		}
	}
}

func TestProfileWebIncludesAppTrackers(t *testing.T) {
	// Services reuse their vendors across platforms (Table 2 overlap).
	spec := findSpec(t, "grubexpress")
	web, _ := spec.Profile(Cell{Android, Web})
	webOrgs := make(map[string]bool)
	for _, tr := range web.Trackers {
		webOrgs[tr.Org] = true
	}
	for _, org := range spec.AppTrackers {
		if !webOrgs[org] {
			t.Errorf("web profile missing app tracker %s", org)
		}
	}
}

func TestProfileBeaconBudget(t *testing.T) {
	spec := findSpec(t, "stormcast")
	p, _ := spec.Profile(Cell{Android, App})
	flows := make(map[string]int)
	for _, tr := range p.Trackers {
		flows[tr.Org] = tr.Flows
	}
	for _, b := range p.Beacons {
		if b.Org == "" {
			continue
		}
		if flows[b.Org] < b.Repeat {
			t.Errorf("beacon to %s repeats %d > tracker budget %d", b.Org, b.Repeat, flows[b.Org])
		}
	}
}

func TestProfileLeakTypesExemptsCredentials(t *testing.T) {
	spec := &Spec{
		Key: "t", Name: "T", Category: Business,
		AppTrackers: []string{"google-analytics"},
		AndroidApp:  "E>first x1,PW>first x1,U>first x1,B>first x1",
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := spec.Profile(Cell{Android, App})
	if err != nil {
		t.Fatal(err)
	}
	got := p.LeakTypes()
	if got.Contains(pii.Email) || got.Contains(pii.Password) || got.Contains(pii.Username) {
		t.Errorf("credentials to first party over HTTPS must not count as leaks: %v", got)
	}
	if !got.Contains(pii.Birthday) {
		t.Errorf("birthday to first party is a leak: %v", got)
	}
}

func TestPlanCoversCellTypes(t *testing.T) {
	for _, spec := range Catalog() {
		for _, c := range AllCells() {
			leaks, err := ParseCell(spec.CellSpec(c))
			if err != nil {
				t.Fatal(err)
			}
			var want pii.TypeSet
			for _, l := range leaks {
				want = want.Add(l.Type)
			}
			p, err := spec.Profile(c)
			if err != nil {
				t.Fatal(err)
			}
			got := PlanLeakTypes(p.RequestPlan())
			if got.Intersect(want) != want {
				t.Errorf("%s/%s/%s: plan placeholders %v missing some of %v", spec.Key, c.OS, c.Medium, got, want)
			}
		}
	}
}

func TestPlanPlaintextBeaconsUseHTTP(t *testing.T) {
	spec := findSpec(t, "datemate")
	p, _ := spec.Profile(Cell{Android, Web})
	found := false
	for _, r := range p.RequestPlan() {
		if strings.HasPrefix(r.URL, "http://") && strings.Contains(r.URL, "pwd=") {
			found = true
		}
	}
	if !found {
		t.Error("datemate web plan must post the password over plaintext HTTP")
	}
}

func TestTrackerHandlerPayloadAndCookies(t *testing.T) {
	srv := httptest.NewServer(TrackerHandler("criteo"))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/js/tag.js?sz=2048")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 2048 {
		t.Errorf("payload = %d bytes, want 2048", len(body))
	}
	if len(resp.Cookies()) == 0 {
		t.Error("tracker did not set a cookie")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/javascript" {
		t.Errorf("content-type = %q", ct)
	}
}

func TestTrackerBidChainRedirects(t *testing.T) {
	srv := httptest.NewServer(TrackerHandler("adnxs"))
	defer srv.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(srv.URL + "/bid?chain=rubiconproject,openx&auction=a1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("status = %d, want 302", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.Contains(loc, easylist.SimDomain("rubiconproject")+"/bid") || !strings.Contains(loc, "chain=openx") {
		t.Errorf("redirect = %q", loc)
	}
	// Final hop returns the creative.
	resp2, err := client.Get(srv.URL + "/bid?chain=&auction=a1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 || len(body) == 0 {
		t.Errorf("settled auction: status=%d len=%d", resp2.StatusCode, len(body))
	}
}

func TestServiceHandlerRendersOSSpecificPage(t *testing.T) {
	spec := findSpec(t, "blueskyair")
	srv := httptest.NewServer(ServiceHandler(spec))
	defer srv.Close()
	get := func(ua string) string {
		req, _ := http.NewRequest("GET", srv.URL+"/", nil)
		req.Header.Set("User-Agent", ua)
		req.Host = spec.Domain()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body)
	}
	android := get("Mozilla/5.0 (Linux; Android 4.4.4; Nexus 5) Chrome/33.0")
	ios := get("Mozilla/5.0 (iPhone; CPU iPhone OS 9_3_1 like Mac OS X) Safari/601.1")
	if !strings.Contains(ios, "msisdn={{phone}}") {
		t.Error("iOS page must carry the phone-number beacon (Safari-only leak)")
	}
	if strings.Contains(android, "msisdn={{phone}}") {
		t.Error("Android page must not leak the phone number")
	}
	if !strings.Contains(android, "data-repeat=") {
		t.Error("page missing repeat attributes")
	}
}

func TestServiceHandlerEndpoints(t *testing.T) {
	spec := findSpec(t, "yelpish")
	srv := httptest.NewServer(ServiceHandler(spec))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/api/login", "application/json", strings.NewReader(`{"u":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "app-token-yelpish") {
		t.Errorf("api login = %q", body)
	}
	resp, err = http.Get(srv.URL + "/static/style.css")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if n < 2048 {
		t.Errorf("static asset too small: %d", n)
	}
}

func TestOSFromUserAgent(t *testing.T) {
	if OSFromUserAgent("Mozilla (iPhone; ...)") != IOS {
		t.Error("iPhone UA not recognized")
	}
	if OSFromUserAgent("Mozilla (Linux; Android 4.4)") != Android {
		t.Error("Android UA not recognized")
	}
}

func TestEcosystemStartAndRouting(t *testing.T) {
	eco, err := Start(Catalog()[:4])
	if err != nil {
		t.Fatal(err)
	}
	defer eco.Close()
	// Every first-party domain and tracker resolves.
	for _, s := range eco.Catalog {
		for _, d := range s.Domains() {
			if _, err := eco.Internet.Resolver.Resolve(d, "443"); err != nil {
				t.Errorf("resolve %s: %v", d, err)
			}
		}
	}
	if _, err := eco.Internet.Resolver.Resolve("pixel."+easylist.SimDomain("criteo"), "443"); err != nil {
		t.Errorf("tracker subdomain: %v", err)
	}
	// Categorizer agrees with the world.
	if got := eco.Categorizer.Categorize("docuscan", "docuscan-sim.example"); got.String() != "first-party" {
		t.Errorf("first party = %v", got)
	}
	for _, h := range []string{"criteo-sim.example", "cdn.criteo-sim.example.", "cdn.criteo-sim.example:443"} {
		if got := eco.Categorizer.Categorize("docuscan", h); got.String() != "a&a" {
			t.Errorf("tracker %q = %v", h, got)
		}
	}
	if got := eco.Categorizer.Categorize("docuscan", "gigya-sim.example"); got.String() != "other-third-party" {
		t.Errorf("gigya = %v", got)
	}
	if got := eco.Categorizer.Categorize("docuscan", SSODomain); got.String() != "sso" {
		t.Errorf("sso = %v", got)
	}
	if got := eco.Categorizer.Categorize("docuscan", "play-services.example"); got.String() != "background" {
		t.Errorf("background = %v", got)
	}
	if _, ok := eco.Service("docuscan"); !ok {
		t.Error("Service lookup failed")
	}
}

func TestEcosystemRejectsDuplicateKeys(t *testing.T) {
	c := Catalog()[:1]
	if _, err := Start(append(c, c[0])); err == nil {
		t.Error("duplicate key accepted")
	}
}

func findSpec(t *testing.T, key string) *Spec {
	t.Helper()
	for _, s := range Catalog() {
		if s.Key == key {
			return s
		}
	}
	t.Fatalf("service %s not in catalog", key)
	return nil
}

func BenchmarkProfileDerivation(b *testing.B) {
	cat := Catalog()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range cat {
			for _, c := range AllCells() {
				if _, err := s.Profile(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
