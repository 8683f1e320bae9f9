package proxy

import (
	"bufio"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"appvsweb/internal/capture"
)

// TestGarbageInsideTunnel: a client that completes the TLS handshake and
// then speaks something other than HTTP must not wedge or crash the
// proxy; subsequent clients keep working.
func TestGarbageInsideTunnel(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("svc.example", echoHandler())

	raw, err := net.DialTimeout("tcp", w.proxy.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(raw, "CONNECT svc.example:443 HTTP/1.1\r\nHost: svc.example:443\r\n\r\n")
	br := bufio.NewReader(raw)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("CONNECT failed: %v %v", err, resp)
	}
	tlsConn := tls.Client(raw, &tls.Config{RootCAs: w.proxyCA.Pool(), ServerName: "svc.example"})
	if err := tlsConn.Handshake(); err != nil {
		t.Fatal(err)
	}
	_, _ = tlsConn.Write([]byte("NOT HTTP AT ALL\x00\x01\x02\r\n\r\n"))
	_ = tlsConn.Close()
	raw.Close()

	// The proxy must still serve a well-behaved client.
	resp2, err := w.client().Get("https://svc.example/after-garbage")
	if err != nil {
		t.Fatalf("proxy wedged after garbage: %v", err)
	}
	resp2.Body.Close()
}

// TestAbruptClientDisconnectMidRequest: the client dies after sending half
// a request; the proxy must recover.
func TestAbruptClientDisconnectMidRequest(t *testing.T) {
	w := newWorld(t)
	w.servePlain("plain.example", echoHandler())
	raw, err := net.DialTimeout("tcp", w.proxy.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(raw, "POST http://plain.example/upload HTTP/1.1\r\nHost: plain.example\r\nContent-Length: 100000\r\n\r\npartial")
	raw.Close()

	resp, err := w.client().Get("http://plain.example/ok")
	if err != nil {
		t.Fatalf("proxy wedged after disconnect: %v", err)
	}
	resp.Body.Close()
}

// TestOversizedBodyTruncatedInRecord: bodies beyond MaxBodyBytes are
// recorded truncated (the proxy is a measurement tool, not a tarpit).
func TestOversizedBodyTruncatedInRecord(t *testing.T) {
	originCA, _ := NewCA("Origin Root")
	proxyCA, _ := NewCA("Proxy CA")
	resolver := NewMapResolver()
	sink := capture.NewMemSink()
	p, err := New(Config{
		CA: proxyCA, Resolver: resolver, OriginPool: originCA.Pool(), Sink: sink,
		MaxBodyBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	leaf, _ := originCA.Leaf("big.example")
	ln, _ := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{*leaf}})
	srv := &http.Server{Handler: echoHandler()}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	resolver.Register("big.example", "443", ln.Addr().String())

	client := &http.Client{Transport: ClientTransport(p.URL(), proxyCA.Pool()), Timeout: 5 * time.Second}
	body := strings.Repeat("x", 100_000)
	resp, err := client.Post("https://big.example/up", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	f := drained(t, p, sink.Flows)[0]
	if len(f.RequestBody) != 1024 {
		t.Errorf("recorded body = %d bytes, want truncated to 1024", len(f.RequestBody))
	}
}

// TestProxyServesManySequentialTunnels guards against descriptor leaks in
// the CONNECT path.
func TestProxyServesManySequentialTunnels(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("seq.example", echoHandler())
	client := w.client()
	for i := 0; i < 120; i++ {
		resp, err := client.Get(fmt.Sprintf("https://seq.example/n/%d", i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	if got := drained(t, w.proxy, w.sink.Len); got != 120 {
		t.Errorf("flows = %d, want 120", got)
	}
}

// rewriteDropper blanks every body it sees.
type rewriteDropper struct{}

func (rewriteDropper) Rewrite(host string, plaintext bool, url string, body []byte) (string, []byte, bool) {
	if len(body) == 0 {
		return url, body, false
	}
	return url, []byte("scrubbed=1"), true
}

// TestRewriterChangesUpstreamAndRecord: the origin must receive the
// rewritten body, and the flow must record it with the Rewritten mark.
func TestRewriterChangesUpstreamAndRecord(t *testing.T) {
	originCA, _ := NewCA("Origin Root")
	proxyCA, _ := NewCA("Proxy CA")
	resolver := NewMapResolver()
	sink := capture.NewMemSink()
	p, err := New(Config{
		CA: proxyCA, Resolver: resolver, OriginPool: originCA.Pool(), Sink: sink,
		Rewriter: rewriteDropper{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	leaf, _ := originCA.Leaf("rw.example")
	ln, _ := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{*leaf}})
	srv := &http.Server{Handler: echoHandler()}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	resolver.Register("rw.example", "443", ln.Addr().String())

	client := &http.Client{Transport: ClientTransport(p.URL(), proxyCA.Pool()), Timeout: 5 * time.Second}
	resp, err := client.Post("https://rw.example/p", "text/plain", strings.NewReader("secret=hunter2"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(got), "scrubbed=1") || strings.Contains(string(got), "hunter2") {
		t.Errorf("origin saw %q", got)
	}
	f := drained(t, p, sink.Flows)[0]
	if !f.Rewritten || strings.Contains(f.RequestBody, "hunter2") {
		t.Errorf("flow record: rewritten=%v body=%q", f.Rewritten, f.RequestBody)
	}
}
