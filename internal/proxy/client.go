package proxy

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net/http"
	"net/url"
)

// ClientTransport returns the device-side transport: every request is sent
// through the measurement proxy, TLS trusts the device's root store (which
// includes the interception CA, as on a phone provisioned with the
// mitmproxy profile), and connections are not reused so that one request
// equals one TCP connection — the paper's flow unit.
func ClientTransport(proxyURL *url.URL, trust *x509.CertPool) *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyURL(proxyURL),
		TLSClientConfig: &tls.Config{
			RootCAs:            trust,
			ClientSessionCache: tls.NewLRUClientSessionCache(64),
		},
		DisableKeepAlives:  true,
		DisableCompression: true,
	}
}

// ClientTransportH2 is ClientTransport's HTTP/2 twin: the client offers
// "h2" via ALPN inside the CONNECT tunnel, and the proxy's h2 serving
// path multiplexes its requests into per-stream flows. Keep-alives stay
// on — multiplexing over one connection is the point — so callers must
// CloseIdleConnections when the session ends to release the tunnel.
func ClientTransportH2(proxyURL *url.URL, trust *x509.CertPool) *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyURL(proxyURL),
		TLSClientConfig: &tls.Config{
			RootCAs:            trust,
			ClientSessionCache: tls.NewLRUClientSessionCache(64),
		},
		ForceAttemptHTTP2:  true,
		DisableCompression: true,
	}
}

// ErrPinMismatch is returned (wrapped) by pinned transports when the
// presented certificate does not carry the expected public identity.
var ErrPinMismatch = fmt.Errorf("certificate pin mismatch")

// PinnedTransport returns a transport for an app that pins its origin
// server's certificate (the behaviour that excluded Facebook and Twitter
// from the study, §3.1/§3.3). The chain must verify against the device
// store and the leaf must match the pinned SHA-256 fingerprint; behind an
// intercepting proxy the minted leaf cannot match, so requests fail. The
// pin is checked in VerifyConnection, which runs on resumed handshakes too,
// so a session ticket can never carry a connection past it.
func PinnedTransport(proxyURL *url.URL, trust *x509.CertPool, pinSHA256 string) *http.Transport {
	t := ClientTransport(proxyURL, trust)
	t.TLSClientConfig.VerifyConnection = func(cs tls.ConnectionState) error {
		if len(cs.PeerCertificates) == 0 {
			return fmt.Errorf("%w: no certificate presented", ErrPinMismatch)
		}
		if got := Fingerprint(cs.PeerCertificates[0]); got != pinSHA256 {
			return fmt.Errorf("%w: got %s", ErrPinMismatch, got[:16])
		}
		return nil
	}
	return t
}
