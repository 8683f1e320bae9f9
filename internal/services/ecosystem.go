package services

import (
	"fmt"

	"appvsweb/internal/domains"
	"appvsweb/internal/easylist"
)

// SSODomain is the simulated single sign-on provider.
const SSODomain = "sso-sim.example"

// SimBackgroundDomains are the OS platform domains that generate
// background traffic in the simulation.
var SimBackgroundDomains = []string{
	"play-services.example", "gvt1.example", "android-sync.example",
	"icloud-sim.example", "apple-push.example", "ocsp-sim.example",
}

// Ecosystem is the running simulated world: the internet, every tracker,
// every first-party service, the background/OS endpoints, plus the
// categorizer and EasyList the analysis pipeline uses against it.
type Ecosystem struct {
	Internet    *Internet
	Catalog     []*Spec
	Categorizer *domains.Categorizer
	List        *easylist.List

	byKey map[string]*Spec
}

// Start validates the catalog and brings up the whole world.
func Start(catalog []*Spec) (*Ecosystem, error) {
	byKey := make(map[string]*Spec, len(catalog))
	for _, s := range catalog {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if byKey[s.Key] != nil {
			return nil, fmt.Errorf("services: duplicate key %q", s.Key)
		}
		byKey[s.Key] = s
	}

	in, err := StartInternet()
	if err != nil {
		return nil, err
	}
	e := &Ecosystem{
		Internet: in,
		Catalog:  catalog,
		List:     easylist.Bundled(),
		byKey:    byKey,
	}
	e.Categorizer = BuildCategorizer(catalog)

	// A&A ecosystem.
	for _, org := range easylist.AllAANames() {
		in.Handle(easylist.SimDomain(org), TrackerHandler(org))
	}
	// Non-A&A third parties (auth platforms, identity management, CDNs).
	for _, org := range easylist.NonAAThirdParties {
		in.Handle(easylist.SimDomain(org), ThirdPartyHandler(org))
	}
	// SSO provider.
	in.Handle(SSODomain, SSOHandler())
	// OS background services.
	for _, d := range SimBackgroundDomains {
		in.Handle(d, BackgroundHandler())
	}
	// First parties.
	for _, s := range catalog {
		h := ServiceHandler(s)
		for _, d := range s.Domains() {
			in.Handle(d, h)
		}
	}
	return e, nil
}

// BuildCategorizer constructs the domain categorizer for a catalog without
// starting any servers: EasyList for A&A labeling, first-party
// registrations, the SSO provider, and the simulated OS domains. Used by
// Start and by trace replay (re-analysis of persisted flows).
func BuildCategorizer(catalog []*Spec) *domains.Categorizer {
	list := easylist.Bundled()
	c := domains.NewCategorizer(func(host string) (string, bool) {
		r, ok := list.MatchHostRule(host)
		if !ok {
			return "", false
		}
		return r.Raw, true
	})
	c.RegisterSSO(SSODomain)
	c.RegisterBackground(SimBackgroundDomains...)
	for _, s := range catalog {
		c.RegisterFirstParty(s.Key, s.Domains()...)
	}
	return c
}

// Service looks a spec up by key.
func (e *Ecosystem) Service(key string) (*Spec, bool) {
	s, ok := e.byKey[key]
	return s, ok
}

// Close tears the world down.
func (e *Ecosystem) Close() { e.Internet.Close() }
