package proxy

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/obs"
	"appvsweb/internal/pii"
	"appvsweb/internal/ws"
)

// wsEchoHandler upgrades and echoes every text message back verbatim.
func wsEchoHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := ws.Upgrade(w, r)
		if err != nil {
			return
		}
		defer c.NetConn().Close()
		for {
			op, msg, err := c.ReadMessage()
			if err != nil {
				return
			}
			if err := c.WriteMessage(op, msg); err != nil {
				return
			}
		}
	})
}

// wsDial opens a socket to host through the world's proxy.
func (w *testWorld) wsDial(t *testing.T, rawURL string) *ws.Conn {
	t.Helper()
	pool := w.proxyCA.Pool()
	pool.AddCert(w.originCA.cert)
	c, err := ws.Dial(context.Background(), rawURL, ws.DialOptions{
		ProxyAddr: w.proxy.Addr(),
		TLSConfig: &tls.Config{RootCAs: pool},
		Timeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatalf("ws dial %s: %v", rawURL, err)
	}
	t.Cleanup(func() { c.NetConn().Close() })
	return c
}

// TestH2Interception: a client that negotiates h2 via ALPN inside the
// CONNECT tunnel gets real multiplexing, and every stream lands as its own
// flow.
func TestH2Interception(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("h2.example", echoHandler())

	pool := w.proxyCA.Pool()
	pool.AddCert(w.originCA.cert)
	tr := ClientTransportH2(w.proxy.URL(), pool)
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}

	for i := 0; i < 2; i++ {
		resp, err := client.Post(fmt.Sprintf("https://h2.example/s/%d", i),
			"text/plain", strings.NewReader("ping"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("echo:POST:/s/%d:ping", i); string(body) != want {
			t.Errorf("body = %q, want %q", body, want)
		}
		if resp.ProtoMajor != 2 {
			t.Fatalf("response proto = %s, want HTTP/2.0", resp.Proto)
		}
	}

	tr.CloseIdleConnections()
	flows := drained(t, w.proxy, w.sink.Flows)
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(flows))
	}
	for i, f := range flows {
		if f.Protocol != capture.H2 || !f.Intercepted {
			t.Errorf("flow %d: protocol=%q intercepted=%v", i, f.Protocol, f.Intercepted)
		}
		if f.RequestBody != "ping" || f.Status != 200 {
			t.Errorf("flow %d: body=%q status=%d", i, f.RequestBody, f.Status)
		}
		if f.BytesUp <= 0 || f.BytesDown <= 0 {
			t.Errorf("flow %d: byte accounting up=%d down=%d", i, f.BytesUp, f.BytesDown)
		}
	}

	if n := drained(t, w.proxy, w.counter("proxy.tunnels_total")); n != 1 {
		t.Errorf("tunnels = %d, want 1 (multiplexed)", n)
	}
}

// TestH1ClientsUnaffectedByALPN: the ordinary h1 transport (no h2 offer)
// still takes the HTTP/1.1 tunnel path after the ALPN change.
func TestH1ClientsUnaffectedByALPN(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("h1.example", echoHandler())
	resp, err := w.client().Get("https://h1.example/still-h1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	f := drained(t, w.proxy, w.sink.Flows)[0]
	if f.Protocol != capture.HTTPS {
		t.Errorf("h1 flow: protocol=%q", f.Protocol)
	}
}

// TestWSRelay: an intercepted WebSocket round-trips messages through the
// proxy and yields one flow per socket with frame/message accounting.
func TestWSRelay(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("chat.example", wsEchoHandler())

	c := w.wsDial(t, "wss://chat.example/ws/chat")
	for i := 0; i < 3; i++ {
		msg := fmt.Sprintf(`{"seq":%d,"msg":"hello"}`, i)
		if err := c.WriteMessage(ws.OpText, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		_, echo, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if string(echo) != msg {
			t.Errorf("echo = %q, want %q", echo, msg)
		}
	}
	if err := c.Close(ws.CloseNormal, "done"); err != nil {
		t.Fatal(err)
	}
	c.NetConn().Close()

	f := waitForFlow(t, w.sink)
	if f.Protocol != capture.WS || !f.Intercepted || f.Status != http.StatusSwitchingProtocols {
		t.Fatalf("flow: protocol=%q intercepted=%v status=%d", f.Protocol, f.Intercepted, f.Status)
	}
	if f.WS == nil {
		t.Fatal("flow.WS missing")
	}
	if f.WS.MessagesUp != 3 || f.WS.FramesUp < 3 {
		t.Errorf("up accounting: messages=%d frames=%d", f.WS.MessagesUp, f.WS.FramesUp)
	}
	if f.WS.MessagesDown != 3 {
		t.Errorf("down accounting: messages=%d", f.WS.MessagesDown)
	}
	if !strings.Contains(f.RequestBody, `"seq":2`) {
		t.Errorf("captured socket body missing payloads: %q", f.RequestBody)
	}
	if f.BytesUp <= 0 || f.BytesDown <= 0 {
		t.Errorf("byte accounting: up=%d down=%d", f.BytesUp, f.BytesDown)
	}
}

// waitForFlow polls the sink until the socket's flow is recorded (the
// relay records after both pumps exit, slightly after the client close).
func waitForFlow(t *testing.T, sink *capture.MemSink) *capture.Flow {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if flows := sink.Flows(); len(flows) > 0 {
			return flows[0]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no flow recorded")
	return nil
}

// TestWSInlineRedactGolden: PII inside a WebSocket frame is rewritten
// mid-socket — the origin's echo returns the frame exactly as it crossed
// the wire, pinned as a golden fixture — and the flow carries frame-level
// provenance for every match.
func TestWSInlineRedactGolden(t *testing.T) {
	w, gw, _, _ := newInlineWorld(t, InlineRedact)
	w.serveTLS("chat.example", wsEchoHandler())
	rec := inlineRecord()

	c := w.wsDial(t, "wss://chat.example/ws/chat")
	// Frame 0 is clean; frame 1 carries the email; frame 2 is clean again.
	frames := []string{
		`{"msg":"hi there"}`,
		`{"msg":"reach me at ` + rec.Email + `"}`,
		`{"msg":"bye"}`,
	}
	var echoes []string
	for _, msg := range frames {
		if err := c.WriteMessage(ws.OpText, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		_, echo, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		echoes = append(echoes, string(echo))
	}
	c.Close(ws.CloseNormal, "done") //nolint:errcheck
	c.NetConn().Close()

	golden(t, "ws_redacted_frames.txt", []byte(strings.Join(echoes, "\n")+"\n"))
	if strings.Contains(echoes[1], rec.Email) {
		t.Fatalf("PII crossed the relay unredacted: %q", echoes[1])
	}
	if !strings.Contains(echoes[1], pii.RedactionMark) {
		t.Errorf("redaction mark missing: %q", echoes[1])
	}
	if echoes[0] != frames[0] || echoes[2] != frames[2] {
		t.Errorf("clean frames altered: %q %q", echoes[0], echoes[2])
	}

	f := waitForFlow(t, w.sink)
	if f.WS == nil || len(f.WS.Hits) == 0 {
		t.Fatalf("no frame-level hits recorded: %+v", f.WS)
	}
	hit := f.WS.Hits[0]
	if hit.Frame != 1 || hit.Type != pii.Email.Abbrev() {
		t.Errorf("hit = %+v, want frame 1 type %s", hit, pii.Email.Abbrev())
	}
	if hit.End <= hit.Start {
		t.Errorf("hit offsets: %d..%d", hit.Start, hit.End)
	}
	if f.Inline == nil || f.Inline.Action != string(InlineRedact) || !f.Inline.Mitigated {
		t.Errorf("verdict = %+v", f.Inline)
	}
	if !f.Rewritten {
		t.Error("mitigated socket not marked Rewritten")
	}
	if strings.Contains(f.RequestBody, rec.Email) {
		t.Errorf("captured body holds unredacted PII: %q", f.RequestBody)
	}
	if gets, puts := gw.PoolStats(); gets != puts || gets == 0 {
		t.Errorf("scanner pool: gets=%d puts=%d", gets, puts)
	}
}

// TestWSInlineBlock: the block action tears the socket down with a 1008
// close the moment a frame carries PII; the flow records the refusal.
func TestWSInlineBlock(t *testing.T) {
	w, _, _, _ := newInlineWorld(t, InlineBlock)
	w.serveTLS("chat.example", wsEchoHandler())
	rec := inlineRecord()

	c := w.wsDial(t, "wss://chat.example/ws/chat")
	if err := c.WriteMessage(ws.OpText, []byte(`{"msg":"clean"}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMessage(ws.OpText, []byte(`{"imei":"`+rec.IMEI+`"}`)); err != nil {
		t.Fatal(err)
	}
	// The relay refuses: the client's next read ends in a close (either the
	// proxy's 1008 or a teardown error, depending on shutdown interleaving).
	c.NetConn().SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	var closeErr *ws.CloseError
	for {
		_, _, err := c.ReadMessage()
		if err == nil {
			continue
		}
		if errors.As(err, &closeErr) && closeErr.Code != ws.ClosePolicyViolation {
			t.Errorf("close code = %d, want %d", closeErr.Code, ws.ClosePolicyViolation)
		}
		break
	}

	f := waitForFlow(t, w.sink)
	if f.WS == nil || !f.WS.Blocked {
		t.Fatalf("flow not marked blocked: %+v", f.WS)
	}
	if f.Inline == nil || f.Inline.Action != string(InlineBlock) || !f.Inline.Mitigated {
		t.Errorf("verdict = %+v", f.Inline)
	}
	if len(f.WS.Hits) == 0 {
		t.Error("blocked socket has no frame hits")
	}
}

// TestTunnelIdleReap: a tunnel that completes its handshake, serves one
// request, then goes silent is reaped by IdleTimeout and counted as an
// idle reap — NOT as a tunnel failure (the pinning signature).
func TestTunnelIdleReap(t *testing.T) {
	w := newWorldIdle(t, 150*time.Millisecond)
	w.serveTLS("idle.example", echoHandler())

	raw, err := net.DialTimeout("tcp", w.proxy.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	fmt.Fprintf(raw, "CONNECT idle.example:443 HTTP/1.1\r\nHost: idle.example:443\r\n\r\n")
	buf := make([]byte, 1024)
	if _, err := raw.Read(buf); err != nil {
		t.Fatal(err)
	}
	tlsConn := tls.Client(raw, &tls.Config{RootCAs: w.proxyCA.Pool(), ServerName: "idle.example"})
	if err := tlsConn.Handshake(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(tlsConn, "GET /one HTTP/1.1\r\nHost: idle.example\r\n\r\n")
	if _, err := tlsConn.Read(buf); err != nil {
		t.Fatal(err)
	}

	// Go silent; the proxy must reap the tunnel within the idle window.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w.count("proxy.tunnel_idle_reaps_total") >= 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := w.count("proxy.tunnel_idle_reaps_total"); n != 1 {
		t.Fatalf("idle reaps = %d, want 1", n)
	}
	if n := w.count("proxy.tunnel_failures_total"); n != 0 {
		t.Errorf("idle reap miscounted as tunnel failure (%d)", n)
	}
	if n := w.count("proxy.requests_total"); n != 1 {
		t.Errorf("requests = %d, want 1", n)
	}
}

// newWorldIdle is newWorld with a custom idle timeout.
func newWorldIdle(t testing.TB, idle time.Duration) *testWorld {
	t.Helper()
	originCA, err := NewCA("Origin Root")
	if err != nil {
		t.Fatal(err)
	}
	proxyCA, err := NewCA("Meddle Interception CA")
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorld{
		t:        t,
		originCA: originCA,
		proxyCA:  proxyCA,
		resolver: NewMapResolver(),
		sink:     capture.NewMemSink(),
		reg:      obs.New(),
	}
	p, err := New(Config{
		CA:          proxyCA,
		Resolver:    w.resolver,
		OriginPool:  originCA.Pool(),
		Sink:        w.sink,
		ClientID:    "test-device",
		IdleTimeout: idle,
		Metrics:     w.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	w.proxy = p
	return w
}

// TestConnectSetupFailureAccounted: a client that resets the connection
// right after the CONNECT line makes one of the setup steps (deadline
// arming, the 200 write, or the TLS handshake) fail — and whichever step
// it is, the tunnel must be recorded as a failure, never dropped silently.
func TestConnectSetupFailureAccounted(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("rst.example", echoHandler())

	raw, err := net.DialTimeout("tcp", w.proxy.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(raw, "CONNECT rst.example:443 HTTP/1.1\r\nHost: rst.example:443\r\n\r\n")
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetLinger(0) //nolint:errcheck // RST instead of FIN
	}
	raw.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w.count("proxy.tunnel_failures_total") >= 1 {
			if n := w.count("proxy.tunnels_total"); n != 1 {
				t.Errorf("tunnels = %d, want 1", n)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("tunnel death after CONNECT never recorded: tunnels=%d failures=%d",
		w.count("proxy.tunnels_total"), w.count("proxy.tunnel_failures_total"))
}

// TestBlockBytesUpAccounted: a blocked flow still reports the request's
// wire size in BytesUp — the leak table's byte totals must include the
// traffic the gateway refused.
func TestBlockBytesUpAccounted(t *testing.T) {
	w, _, _, _ := newInlineWorld(t, InlineBlock)
	rec := inlineRecord()

	body := "email=" + rec.Email
	resp, err := w.client().Post("https://svc.example/signup",
		"application/x-www-form-urlencoded", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
	f := drained(t, w.proxy, w.sink.Flows)[0]
	if f.BytesUp < int64(len(body)) {
		t.Errorf("blocked flow BytesUp = %d, want >= body size %d", f.BytesUp, len(body))
	}
	if f.BytesDown <= 0 {
		t.Errorf("blocked flow BytesDown = %d, want > 0 (the 403 page)", f.BytesDown)
	}
}

// h2Frame appends one HTTP/2 frame (RFC 7540 §4.1: 3-byte length, type,
// flags, 4-byte stream ID, payload) to buf.
func h2Frame(buf []byte, typ, flags byte, streamID uint32, payload []byte) []byte {
	n := len(payload)
	buf = append(buf, byte(n>>16), byte(n>>8), byte(n),
		typ, flags,
		byte(streamID>>24), byte(streamID>>16), byte(streamID>>8), byte(streamID))
	return append(buf, payload...)
}

// h2RawHeaders HPACK-encodes a minimal GET request header block without
// Huffman coding: indexed static entries for :method GET (2) and :scheme
// https (7), literal-without-indexing values against the static :path (4)
// and :authority (1) names.
func h2RawHeaders(path, authority string) []byte {
	b := []byte{0x82, 0x87}
	b = append(b, 0x04, byte(len(path)))
	b = append(b, path...)
	b = append(b, 0x01, byte(len(authority)))
	return append(b, authority...)
}

// TestH2InterleavedStreamIDs is the stream-attribution regression: a
// hand-rolled h2 client opens streams 3, 7, and 11 back-to-back — legal
// (client IDs only have to be odd and increasing, not contiguous). Each
// stream must land as its own h2 flow carrying its own request path: no
// stream lost, merged, or given another stream's request.
func TestH2InterleavedStreamIDs(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("h2i.example", echoHandler())

	raw, err := net.DialTimeout("tcp", w.proxy.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	fmt.Fprintf(raw, "CONNECT h2i.example:443 HTTP/1.1\r\nHost: h2i.example:443\r\n\r\n")
	buf := make([]byte, 1024)
	if _, err := raw.Read(buf); err != nil {
		t.Fatal(err)
	}
	tlsConn := tls.Client(raw, &tls.Config{
		RootCAs:    w.proxyCA.Pool(),
		ServerName: "h2i.example",
		NextProtos: []string{"h2"},
	})
	if err := tlsConn.Handshake(); err != nil {
		t.Fatal(err)
	}
	if got := tlsConn.ConnectionState().NegotiatedProtocol; got != "h2" {
		t.Fatalf("negotiated %q, want h2", got)
	}

	wantIDs := []uint32{3, 7, 11}
	out := []byte("PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n")
	out = h2Frame(out, 0x4, 0, 0, nil) // empty SETTINGS completes the preface
	for _, sid := range wantIDs {
		hb := h2RawHeaders(fmt.Sprintf("/s/%d", sid), "h2i.example")
		out = h2Frame(out, 0x1, 0x05, sid, hb) // HEADERS, END_STREAM|END_HEADERS
	}
	if _, err := tlsConn.Write(out); err != nil {
		t.Fatal(err)
	}

	// Drain server frames (acking its SETTINGS so it keeps talking) until
	// all three flows are recorded or the deadline passes.
	tlsConn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for len(w.sink.Flows()) < len(wantIDs) {
		hdr := make([]byte, 9)
		if _, err := io.ReadFull(tlsConn, hdr); err != nil {
			t.Fatalf("read frame header (flows so far: %d): %v", len(w.sink.Flows()), err)
		}
		n := int(hdr[0])<<16 | int(hdr[1])<<8 | int(hdr[2])
		payload := make([]byte, n)
		if _, err := io.ReadFull(tlsConn, payload); err != nil {
			t.Fatal(err)
		}
		if hdr[3] == 0x4 && hdr[4]&0x1 == 0 { // SETTINGS, not an ACK
			if _, err := tlsConn.Write(h2Frame(nil, 0x4, 0x1, 0, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var paths []string
	for _, f := range w.sink.Flows() {
		if f.Protocol != capture.H2 {
			t.Errorf("%s: protocol = %q, want h2", f.Path(), f.Protocol)
		}
		paths = append(paths, f.Path())
	}
	sort.Strings(paths)
	if want := []string{"/s/11", "/s/3", "/s/7"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("h2 flow paths = %q, want exactly %q", paths, want)
	}
}
