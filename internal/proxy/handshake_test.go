package proxy

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/obs"
)

// TestHandshakeTimeoutCountsTunnelFailure: a client that opens a CONNECT
// tunnel and then stalls without starting the TLS handshake must not pin
// the tunnel goroutine — the handshake deadline fires and the stall is
// counted as a tunnel failure.
func TestHandshakeTimeoutCountsTunnelFailure(t *testing.T) {
	reg := obs.New()
	proxyCA, err := NewCA("Meddle Interception CA")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		CA: proxyCA, Resolver: NewMapResolver(), Sink: capture.NewMemSink(),
		Metrics:          reg,
		HandshakeTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	raw, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	fmt.Fprintf(raw, "CONNECT stall.example:443 HTTP/1.1\r\nHost: stall.example:443\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(raw), nil)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("CONNECT failed: %v %v", err, resp)
	}
	// Stall: never send the ClientHello. The proxy's deadline must cut
	// the tunnel down on its own.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Counters["proxy.tunnel_failures_total"] >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("stalled handshake never counted: counters = %v", reg.Snapshot().Counters)
}

// TestTunnelServesLeafWithoutAnchor: a device handshake through a tunnel
// sees exactly the minted leaf, which verifies against the interception
// CA's pool and not against a pool without it.
func TestTunnelServesLeafWithoutAnchor(t *testing.T) {
	w := newWorld(t)
	const host = "shop.example"
	w.serveTLS(host, echoHandler())

	raw, err := net.DialTimeout("tcp", w.proxy.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	fmt.Fprintf(raw, "CONNECT %s:443 HTTP/1.1\r\nHost: %s:443\r\n\r\n", host, host)
	br := bufio.NewReader(raw)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("CONNECT failed: %v %v", err, resp)
	}
	conn := tls.Client(raw, &tls.Config{ServerName: host, RootCAs: w.proxyCA.Pool()})
	if err := conn.Handshake(); err != nil {
		t.Fatalf("handshake against the interception CA: %v", err)
	}
	peers := conn.ConnectionState().PeerCertificates
	if len(peers) != 1 {
		t.Fatalf("device saw %d peer certificates, want the leaf alone", len(peers))
	}
	verify := func(roots *x509.CertPool) error {
		_, err := peers[0].Verify(x509.VerifyOptions{DNSName: host, Roots: roots})
		return err
	}
	if err := verify(w.proxyCA.Pool()); err != nil {
		t.Errorf("leaf does not verify against the interception CA: %v", err)
	}
	if err := verify(w.originCA.Pool()); err == nil {
		t.Error("leaf verifies against a pool without the interception CA")
	}
}
