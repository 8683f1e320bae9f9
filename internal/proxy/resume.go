package proxy

import (
	"crypto/rand"
	"crypto/tls"
	"fmt"
	"net/http"
	"sync"
)

// upstreamSessionCacheSize bounds the upstream TLS session cache. The
// simulated internet has a few hundred origin hosts at most, so one cache
// of this size holds a ticket for each of them.
const upstreamSessionCacheSize = 256

// Sessions is the connection state a long-lived interceptor keeps across
// tunnels, shared by every proxy built with it:
//
//   - one set of session-ticket keys for the device-facing tunnels, so a
//     device that reconnects presents a ticket the proxy can decrypt and
//     its handshake resumes, as a phone's does against a real interceptor;
//   - one upstream connection pool, so a proxy reuses the origin
//     connections an earlier proxy opened, and a new connection resumes
//     the TLS session an earlier one established.
//
// A campaign runner creates one next to its interception CA, hands it to
// each experiment's proxy, and calls CloseIdleConnections when the
// campaign ends; a proxy configured without one makes its own and releases
// it on Close. The first proxy built with a Sessions builds the pool from
// its Resolver, OriginPool, DisableTLSResume and Metrics, so proxies that
// share one must agree on those. Sharing changes no flow: a device request
// is still one TCP connection and one TLS handshake to the proxy; only the
// proxy's own side to the origin is pooled, like the paper's always-on box.
type Sessions struct {
	ticketKeys [][32]byte

	mu   sync.Mutex
	pool *http.Transport // built by the first proxy that uses it
}

// NewSessions creates fresh ticket keys and an empty upstream pool.
func NewSessions() (*Sessions, error) {
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, fmt.Errorf("proxy: session ticket key: %w", err)
	}
	return &Sessions{ticketKeys: [][32]byte{key}}, nil
}

// transport returns the shared upstream pool, building it the first time.
func (s *Sessions) transport(build func() *http.Transport) *http.Transport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pool == nil {
		s.pool = build()
	}
	return s.pool
}

// CloseIdleConnections releases the upstream pool's idle connections.
// The pool stays usable: a proxy still built on s dials again as needed.
func (s *Sessions) CloseIdleConnections() {
	s.mu.Lock()
	pool := s.pool
	s.mu.Unlock()
	if pool != nil {
		pool.CloseIdleConnections()
	}
}

// tunnelConfig is the server side of one CONNECT tunnel: the leaf minted
// for host, ALPN, and the shared ticket keys (or no tickets at all when
// resumption is disabled).
func (p *Proxy) tunnelConfig(host string) *tls.Config {
	cfg := &tls.Config{
		GetCertificate: p.cfg.CA.GetCertificate(host),
		NextProtos:     []string{"h2", "http/1.1"},
	}
	if p.cfg.DisableTLSResume {
		cfg.SessionTicketsDisabled = true
	} else {
		cfg.SetSessionTicketKeys(p.cfg.Sessions.ticketKeys)
	}
	return cfg
}
