package easylist

import "testing"

// BenchmarkMatchHostHit measures the A&A categorization probe for a host
// the bundled list blocks.
func BenchmarkMatchHostHit(b *testing.B) {
	list := Bundled()
	host := ""
	for _, name := range AllAANames() {
		host = "cdn." + name + "-sim.example"
		if list.MatchHost(host) {
			break
		}
		host = ""
	}
	if host == "" {
		b.Fatal("no blocked host found in bundled list")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !list.MatchHost(host) {
			b.Fatal("expected block")
		}
	}
}

// BenchmarkMatchHostMiss measures the probe for a first-party host no rule
// covers — the common case in a campaign.
func BenchmarkMatchHostMiss(b *testing.B) {
	list := Bundled()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if list.MatchHost("www.weathernow-sim.example") {
			b.Fatal("unexpected block")
		}
	}
}

// BenchmarkMatchHostRule measures the verdict plus rule attribution (which
// rule fired): the call the categorizer makes for each kept flow.
func BenchmarkMatchHostRule(b *testing.B) {
	list := Bundled()
	host := ""
	for _, name := range AllAANames() {
		host = "cdn." + name + "-sim.example"
		if list.MatchHost(host) {
			break
		}
		host = ""
	}
	if host == "" {
		b.Fatal("no blocked host found in bundled list")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := list.MatchHostRule(host); !ok {
			b.Fatal("expected rule")
		}
	}
}
