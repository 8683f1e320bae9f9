package domains

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// testAADomains stand in for EasyList: like a "||domain^" rule, each
// matches the domain and its subdomains, label-aligned.
var testAAList = []struct{ domain, rule string }{
	{"adnet.example", "||adnet.example^"},
	{"analytics-co.example", "||analytics-co.example^"},
	{"analytics-os.example", "||analytics-os.example^"},
}

func testAA(host string) (string, bool) {
	for _, r := range testAAList {
		if host == r.domain || strings.HasSuffix(host, "."+r.domain) {
			return r.rule, true
		}
	}
	return "", false
}

func testCategorizer() *Categorizer {
	c := NewCategorizer(testAA)
	c.RegisterFirstParty("weather", "weather-sim.example", "wxcdn-sim.example")
	c.RegisterFirstParty("yelp", "yelp-sim.example")
	c.RegisterSSO("gigya-sim.example")
	return c
}

func TestCategorizeOrder(t *testing.T) {
	c := testCategorizer()
	cases := []struct {
		service, host string
		want          Category
	}{
		{"weather", "api.weather-sim.example", FirstParty},
		{"weather", "cdn.wxcdn-sim.example", FirstParty},
		{"weather", "yelp-sim.example", OtherThirdParty}, // someone else's first party
		{"weather", "ads.adnet.example", AdvertisingAnalytics},
		// The A&A matcher sees the same normalized host as the tables.
		{"weather", "ads.adnet.example.", AdvertisingAnalytics},
		{"weather", "ads.adnet.example:443", AdvertisingAnalytics},
		{"weather", "Ads.AdNet.Example", AdvertisingAnalytics},
		{"weather", "metrics.analytics-co.example", AdvertisingAnalytics},
		{"weather", "login.gigya-sim.example", SSO},
		{"weather", "cdn.cloudfiles.example", OtherThirdParty},
		{"weather", "sync.play-services.example", Background},
		{"weather", "push.apple.com", Background},
		{"weather", "push.apple.com.", Background},
		{"yelp", "yelp-sim.example", FirstParty},
	}
	for _, tc := range cases {
		if got := c.Categorize(tc.service, tc.host); got != tc.want {
			t.Errorf("Categorize(%q, %q) = %v, want %v", tc.service, tc.host, got, tc.want)
		}
		if bg := c.IsBackground(tc.host); bg != (tc.want == Background) {
			t.Errorf("IsBackground(%q) = %v, want %v", tc.host, bg, tc.want == Background)
		}
	}
}

func TestCategorizeBackgroundBeatsAA(t *testing.T) {
	// A platform domain that also looks like analytics must still be
	// filtered as background: filtering happens before categorization.
	c := testCategorizer()
	c.RegisterBackground("analytics-os.example")
	if got := c.Categorize("weather", "analytics-os.example"); got != Background {
		t.Errorf("background beaten by A&A: %v", got)
	}
}

func TestCategorizeNilAAMatcher(t *testing.T) {
	c := NewCategorizer(nil)
	if got := c.Categorize("svc", "ads.tracker.example"); got != OtherThirdParty {
		t.Errorf("nil matcher: %v", got)
	}
}

func TestCategoryString(t *testing.T) {
	for cat, want := range map[Category]string{
		FirstParty:           "first-party",
		AdvertisingAnalytics: "a&a",
		Background:           "background",
		SSO:                  "sso",
		OtherThirdParty:      "other-third-party",
		Unknown:              "unknown",
	} {
		if got := cat.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", cat, got, want)
		}
	}
	if got := Category(99).String(); got != "invalid" {
		t.Errorf("invalid category = %q", got)
	}
}

func TestThirdParty(t *testing.T) {
	if !AdvertisingAnalytics.ThirdParty() || !OtherThirdParty.ThirdParty() {
		t.Error("A&A/other must be third parties")
	}
	for _, c := range []Category{FirstParty, SSO, Background, Unknown} {
		if c.ThirdParty() {
			t.Errorf("%v must not be a third party", c)
		}
	}
}

// TestCategorizeRegistrationTakesEffect: a registration after a lookup
// changes the next lookup's verdict.
func TestCategorizeRegistrationTakesEffect(t *testing.T) {
	c := testCategorizer()
	host := "newsvc-sim.example"
	if got := c.Categorize("newsvc", host); got != OtherThirdParty {
		t.Fatalf("pre-registration: %v", got)
	}
	c.RegisterFirstParty("newsvc", host)
	if got := c.Categorize("newsvc", host); got != FirstParty {
		t.Errorf("post-registration: %v", got)
	}
}

func TestCategorizeConcurrent(t *testing.T) {
	c := testCategorizer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Categorize("weather", "ads.adnet.example")
				c.Categorize("weather", "api.weather-sim.example")
			}
		}()
	}
	wg.Wait()
}

func TestCategorizeRuleAttribution(t *testing.T) {
	c := testCategorizer()
	cases := []struct {
		host     string
		wantCat  Category
		wantRule string
	}{
		{"pixel.adnet.example", AdvertisingAnalytics, "||adnet.example^"},
		{"metrics.analytics-co.example.", AdvertisingAnalytics, "||analytics-co.example^"},
		{"api.weather-sim.example", FirstParty, ""},
		{"cdn.cloudfiles.example", OtherThirdParty, ""},
	}
	for _, tc := range cases {
		cat, rule := c.CategorizeRule("weather", tc.host)
		if cat != tc.wantCat || rule != tc.wantRule {
			t.Errorf("CategorizeRule(%q) = (%v, %q), want (%v, %q)", tc.host, cat, rule, tc.wantCat, tc.wantRule)
		}
	}
}

// TestCategorizeConcurrentMixed interleaves lookups and registrations
// across goroutines; run under -race.
func TestCategorizeConcurrentMixed(t *testing.T) {
	c := testCategorizer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Categorize("weather", "ads.adnet.example")
				c.Categorize("weather", fmt.Sprintf("g%d-j%d.example", g, j))
				if j%50 == 0 {
					c.RegisterBackground(fmt.Sprintf("bg%d-%d.example", g, j))
				}
			}
		}(i)
	}
	wg.Wait()
}

func BenchmarkCategorize(b *testing.B) {
	c := testCategorizer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Categorize("weather", "ads.adnet.example")
	}
}
