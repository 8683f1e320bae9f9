package domains_test

import (
	"fmt"

	"appvsweb/internal/domains"
)

// ETLDPlusOne computes the registrable domain: the unit at which first-
// party ownership and Table 2's per-domain aggregation operate.
func ExampleETLDPlusOne() {
	fmt.Println(domains.ETLDPlusOne("pixel.ads.doubleclick.net"))
	fmt.Println(domains.ETLDPlusOne("shop.example.co.uk"))
	// Output:
	// doubleclick.net
	// example.co.uk
}

// The categorizer labels each destination the way §3.2 does: background
// first, then first-party association, SSO, EasyList, else third party.
func ExampleCategorizer_Categorize() {
	cat := domains.NewCategorizer(func(host string) (string, bool) {
		return "||tracker.example^", host == "tracker.example"
	})
	cat.RegisterFirstParty("weather", "weather.example", "wxcdn.example")

	for _, host := range []string{
		"api.weather.example", "wxcdn.example", "tracker.example", "cdn.other.example",
	} {
		fmt.Printf("%-22s %s\n", host, cat.Categorize("weather", host))
	}
	// Output:
	// api.weather.example    first-party
	// wxcdn.example          first-party
	// tracker.example        a&a
	// cdn.other.example      other-third-party
}
