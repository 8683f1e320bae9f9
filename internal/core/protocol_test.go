package core

import (
	"path/filepath"
	"testing"

	"appvsweb/internal/capture"
	"appvsweb/internal/pii"
	"appvsweb/internal/services"
)

// protocolRunner boots the ProtocolSpecs demo ecosystem (the chat-socket
// and h2-analytics services) with the inline gateway logging.
func protocolRunner(t *testing.T, dir string) *Runner {
	t.Helper()
	eco, err := services.Start(services.ProtocolSpecs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eco.Close)
	r, err := NewRunner(eco, Options{Scale: 0.3, Inline: "log", TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunExperimentChatSocket: a campaign session over the chat-socket
// service produces a WebSocket flow whose PII (name + location in the
// message stream) carries frame-level provenance from the inline scanner,
// and the leak pipeline attributes the location leak like any other flow.
func TestRunExperimentChatSocket(t *testing.T) {
	dir := t.TempDir()
	r := protocolRunner(t, dir)
	cell := services.Cell{OS: services.Android, Medium: services.App}
	res, err := r.RunExperiment(spec(t, r, "pulsechat"), cell)
	if err != nil {
		t.Fatal(err)
	}
	if res.Excluded {
		t.Fatal("experiment wrongly excluded")
	}
	if !res.LeakTypes.Contains(pii.Location) {
		t.Errorf("chat socket must leak location: %v", res.LeakTypes)
	}

	flows, err := capture.LoadTrace(filepath.Join(dir, TraceFileName("pulsechat", cell)))
	if err != nil {
		t.Fatal(err)
	}
	var sock *capture.Flow
	for _, f := range flows {
		if f.Protocol == capture.WS {
			sock = f
			break
		}
	}
	if sock == nil {
		t.Fatal("no WebSocket flow captured")
	}
	if sock.Status != 101 || !sock.Intercepted || sock.WS == nil {
		t.Fatalf("socket flow: status=%d intercepted=%v ws=%+v", sock.Status, sock.Intercepted, sock.WS)
	}
	if sock.WS.MessagesUp < 1 || sock.WS.FramesUp < sock.WS.MessagesUp {
		t.Errorf("socket accounting: %+v", sock.WS)
	}
	if len(sock.WS.Hits) == 0 {
		t.Fatal("no frame-level PII provenance on the socket flow")
	}
	for _, h := range sock.WS.Hits {
		if h.Frame < 0 || h.End <= h.Start {
			t.Errorf("malformed frame hit: %+v", h)
		}
	}
	if sock.Inline == nil || sock.Inline.Action != "log" {
		t.Errorf("socket inline verdict = %+v", sock.Inline)
	}
}

// TestRunExperimentH2Analytics: the h2-analytics service's SDK beacons
// arrive multiplexed — the capture shows one h2 flow per beacon, and the
// UID leak is detected exactly as on the h1 path.
func TestRunExperimentH2Analytics(t *testing.T) {
	dir := t.TempDir()
	r := protocolRunner(t, dir)
	cell := services.Cell{OS: services.Android, Medium: services.App}
	res, err := r.RunExperiment(spec(t, r, "beaconify"), cell)
	if err != nil {
		t.Fatal(err)
	}
	if res.Excluded {
		t.Fatal("experiment wrongly excluded")
	}
	if !res.LeakTypes.Contains(pii.UniqueID) {
		t.Errorf("beaconify must leak the unique ID: %v", res.LeakTypes)
	}

	flows, err := capture.LoadTrace(filepath.Join(dir, TraceFileName("beaconify", cell)))
	if err != nil {
		t.Fatal(err)
	}
	var h2Flows int
	urls := make(map[string]bool)
	for _, f := range flows {
		if f.Protocol != capture.H2 {
			continue
		}
		h2Flows++
		urls[f.URL] = true
		if !f.Intercepted {
			t.Error("h2 flow not marked intercepted")
		}
	}
	if h2Flows < 2 {
		t.Fatalf("h2 flows = %d, want >= 2 (multiplexed SDK traffic)", h2Flows)
	}
	if len(urls) < 2 {
		t.Errorf("distinct h2 request URLs = %d, want >= 2", len(urls))
	}
}
