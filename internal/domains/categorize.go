package domains

import "sync"

// Category labels a flow destination the way the paper's methodology does.
type Category int

const (
	// Unknown means the categorizer had no information for the host.
	Unknown Category = iota
	// FirstParty destinations belong to the service under test (or its CDN
	// domains, e.g. weather.com and imwx.com for The Weather Channel).
	FirstParty
	// SSO destinations are single sign-on identity providers; credentials
	// sent to them over HTTPS are not leaks (§3.2, footnote 1).
	SSO
	// AdvertisingAnalytics (A&A) destinations match the EasyList-derived
	// tracker list.
	AdvertisingAnalytics
	// OtherThirdParty destinations are third parties that are not A&A
	// (CDNs, payment processors, ...).
	OtherThirdParty
	// Background destinations belong to the OS platform (Google Play
	// services, Apple iCloud, ...) and are filtered from traces.
	Background
)

var categoryNames = map[Category]string{
	Unknown:              "unknown",
	FirstParty:           "first-party",
	SSO:                  "sso",
	AdvertisingAnalytics: "a&a",
	OtherThirdParty:      "other-third-party",
	Background:           "background",
}

func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return "invalid"
}

// ThirdParty reports whether the category counts as a third party for the
// leak policy. SSO is deliberately excluded: the paper treats single
// sign-on like a first party for credential flows.
func (c Category) ThirdParty() bool {
	return c == AdvertisingAnalytics || c == OtherThirdParty
}

// BackgroundDomains are eTLD+1s of OS platform services whose traffic the
// methodology filters out before analysis (§3.2 "Filtering").
var BackgroundDomains = []string{
	// Android / Google platform.
	"gvt1.example", "play-services.example", "android-sync.example",
	"gstatic-sim.example", "crashlytics-os.example",
	// iOS / Apple platform.
	"icloud-sim.example", "apple-push.example", "ocsp-sim.example",
	// Real-world equivalents kept for trace compatibility.
	"googleapis.com", "gvt1.com", "gstatic.com", "icloud.com", "apple.com",
	"mzstatic.com", "push.apple.com",
}

// Categorizer labels hosts. It combines a first-party registry (service →
// owned registrable domains), an SSO list, an A&A matcher (EasyList), and
// the background list. Every lookup walks the tables and the matcher
// directly (docs/performance.md); the categorizer is safe for concurrent
// use, including registrations that race lookups.
type Categorizer struct {
	mu         sync.RWMutex
	firstParty map[string]string // eTLD+1 → service key
	sso        map[string]bool   // eTLD+1 → true
	background map[string]bool   // eTLD+1 → true
	aa         func(host string) (rule string, ok bool)
}

// NewCategorizer builds a categorizer. aa reports whether a host is A&A and
// names the rule that says so (leak provenance, flow.categorize trace
// events). It may be nil, in which case no host is labeled A&A (useful for
// ablation runs).
func NewCategorizer(aa func(host string) (rule string, ok bool)) *Categorizer {
	c := &Categorizer{
		firstParty: make(map[string]string),
		sso:        make(map[string]bool),
		background: make(map[string]bool),
		aa:         aa,
	}
	for _, d := range BackgroundDomains {
		c.background[ETLDPlusOne(d)] = true
	}
	return c
}

// RegisterFirstParty associates one or more domains (any subdomain of their
// eTLD+1 counts) with a service key.
func (c *Categorizer) RegisterFirstParty(service string, hosts ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range hosts {
		c.firstParty[ETLDPlusOne(h)] = service
	}
}

// RegisterSSO marks a domain as a single sign-on provider.
func (c *Categorizer) RegisterSSO(hosts ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range hosts {
		c.sso[ETLDPlusOne(h)] = true
	}
}

// RegisterBackground adds extra OS/background domains.
func (c *Categorizer) RegisterBackground(hosts ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range hosts {
		c.background[ETLDPlusOne(h)] = true
	}
}

// IsBackground reports whether host is OS/background traffic: the first
// check Categorize makes, answered from the table alone (§3.2
// "Filtering").
func (c *Categorizer) IsBackground(host string) bool {
	reg := ETLDPlusOne(host)
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.background[reg]
}

// Categorize labels a destination host relative to the service under test.
func (c *Categorizer) Categorize(service, host string) Category {
	cat, _ := c.CategorizeRule(service, host)
	return cat
}

// CategorizeRule is Categorize plus attribution: for an A&A destination it
// also returns the EasyList rule that fired ("" otherwise). Order matters
// and mirrors the paper: background filtering first, then first-party
// association, then SSO, then EasyList A&A, else other third party. The
// host is normalized once (case, trailing dot, port), and the tables and
// the A&A matcher all see that same form.
func (c *Categorizer) CategorizeRule(service, host string) (Category, string) {
	host = normalizeHost(host)
	reg := ETLDPlusOne(host)
	c.mu.RLock()
	bg := c.background[reg]
	owner, owned := c.firstParty[reg]
	sso := c.sso[reg]
	c.mu.RUnlock()

	switch {
	case bg:
		return Background, ""
	case owned && owner == service:
		return FirstParty, ""
	case sso:
		return SSO, ""
	}
	if c.aa != nil {
		if rule, ok := c.aa(host); ok {
			return AdvertisingAnalytics, rule
		}
	}
	if host == "" && !owned {
		return Unknown, ""
	}
	// Includes some other service's domain: a third party here.
	return OtherThirdParty, ""
}
