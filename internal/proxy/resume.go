package proxy

import (
	"crypto/rand"
	"crypto/tls"
	"fmt"
)

// upstreamSessionCacheSize bounds the upstream TLS session cache. The
// simulated internet has a few hundred origin hosts at most, so one cache
// of this size holds a ticket for each of them.
const upstreamSessionCacheSize = 256

// Sessions is the TLS session state a long-lived interceptor keeps across
// tunnels, shared by every proxy built with it:
//
//   - one set of session-ticket keys for the device-facing tunnels, so a
//     device that reconnects presents a ticket the proxy can decrypt and
//     its handshake resumes, as a phone's does against a real interceptor;
//   - one upstream ClientSessionCache, so a proxy's first connection to an
//     origin resumes the session an earlier proxy established.
//
// A campaign runner creates one next to its interception CA and hands it
// to each experiment's proxy; a proxy configured without one makes its own.
// Resumption changes no flow: one request is still one TCP connection and
// one TLS handshake, only an abbreviated one.
type Sessions struct {
	ticketKeys [][32]byte
	upstream   tls.ClientSessionCache
}

// NewSessions creates fresh ticket keys and an empty upstream cache.
func NewSessions() (*Sessions, error) {
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, fmt.Errorf("proxy: session ticket key: %w", err)
	}
	return &Sessions{
		ticketKeys: [][32]byte{key},
		upstream:   tls.NewLRUClientSessionCache(upstreamSessionCacheSize),
	}, nil
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
