package services

import (
	"fmt"
	"sort"
	"strings"
)

// Lookup resolves service keys against Catalog(), then ProtocolSpecs(),
// and returns the specs in that order. Every key must name a service; the
// error lists the ones that do not. avwrun -services and trace replay
// both resolve a campaign's services this way.
func Lookup(keys []string) ([]*Spec, error) {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	var selected []*Spec
	for _, s := range append(Catalog(), ProtocolSpecs()...) {
		if want[s.Key] {
			selected = append(selected, s)
			delete(want, s.Key)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for k := range want {
			unknown = append(unknown, fmt.Sprintf("%q", k))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown service %s", strings.Join(unknown, ", "))
	}
	return selected, nil
}

// ProtocolSpecs returns demo services exercising the proxy's non-h1
// interception paths (docs/protocols.md): a chat app that streams
// name+location over a WebSocket, and an analytics-heavy app whose SDK
// multiplexes its beacons over HTTP/2. They are deliberately kept out of
// Catalog() — the calibrated 50-service corpus and its golden aggregates
// stay byte-stable — and are opted into a campaign explicitly
// (avwrun -services pulsechat,beaconify against a catalog that appends
// them, or directly in tests).
func ProtocolSpecs() []*Spec {
	return []*Spec{
		{
			Key: "pulsechat", Name: "PulseChat", Category: Social, Rank: 5,
			AppTrackers:     []string{"mixpanel"},
			WebTrackerCount: 4,
			AppAAFlows:      10, WebAAFlows: 30, WebAdKB: 2,
			ChatSocket: true,
			AndroidApp: "UID>mixpanel x6", IOSApp: "UID>mixpanel x6",
			AndroidWeb: "", IOSWeb: "",
		},
		{
			Key: "beaconify", Name: "Beaconify Metrics", Category: Business, Rank: 9,
			AppTrackers:     []string{"google-analytics", "amplitude"},
			WebTrackerCount: 5,
			AppAAFlows:      20, WebAAFlows: 40, WebAdKB: 2,
			H2Analytics: true,
			AndroidApp:  "UID*x8,E>amplitude x2", IOSApp: "UID*x8",
			AndroidWeb: "", IOSWeb: "",
		},
	}
}
