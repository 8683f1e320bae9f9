package proxy

import (
	"crypto/tls"
	"net"
	"net/http"
	"strings"

	"appvsweb/internal/capture"
)

// serveH2Tunnel serves a CONNECT tunnel whose client negotiated "h2" via
// ALPN. The stdlib bundles an HTTP/2 server that http.Server.Serve
// auto-configures when TLSConfig is nil and dispatches for any accepted
// *tls.Conn with NegotiatedProtocol "h2" — so a one-connection listener
// turns the already-handshaked tunnel conn into a fully multiplexed h2
// session without any external dependency. Each stream reaches
// h2TunnelHandler as an ordinary *http.Request and is recorded as its own
// capture.Flow, with any request trailers.
//
// Serve returns as soon as the listener is exhausted while the connection
// is still being served in the background; raw.done (the close-notifying
// wrapper under the TLS layer) is the completion signal — the h2 server
// closes the conn when the client disconnects or IdleTimeout reaps it.
func (p *Proxy) serveH2Tunnel(tlsConn *tls.Conn, raw *notifyConn, tunnelHost string) {
	p.metrics.h2Conns.Inc()
	h := &h2TunnelHandler{p: p, tunnelHost: tunnelHost}
	srv := &http.Server{
		Handler:           h,
		IdleTimeout:       p.cfg.IdleTimeout,
		ReadHeaderTimeout: p.cfg.HandshakeTimeout,
	}
	srv.Serve(&oneConnListener{conn: tlsConn}) //nolint:errcheck // returns once the single conn is handed off
	<-raw.done
}

// h2TunnelHandler fans the tunnel's multiplexed streams into flows: the
// h2 adapter onto Proxy.exchange.
type h2TunnelHandler struct {
	p          *Proxy
	tunnelHost string
}

func (h *h2TunnelHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.p.metrics.h2Streams.Inc()
	host, absURL := tunnelTarget(r, h.tunnelHost, "https://")
	h.p.exchange(r, capture.H2, host, absURL, responder{w: w})
}

// trailerMap flattens received request trailers, dropping declared-but-
// absent fields (nil values before the body is consumed).
func trailerMap(t http.Header) map[string]string {
	var out map[string]string
	for k, vv := range t {
		if len(vv) == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]string, len(t))
		}
		out[k] = strings.Join(vv, ", ")
	}
	return out
}

// oneConnListener hands http.Server.Serve exactly one already-accepted
// connection, then reports closure so the accept loop exits.
type oneConnListener struct {
	conn net.Conn
	used bool
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	if l.used {
		return nil, net.ErrClosed
	}
	l.used = true
	return l.conn, nil
}

func (l *oneConnListener) Close() error   { return nil }
func (l *oneConnListener) Addr() net.Addr { return l.conn.LocalAddr() }
