// Package proxy implements the measurement substrate of the study: a
// TLS-intercepting HTTP forward proxy equivalent to the paper's Meddle +
// mitmproxy stack (§3.2 "Test Environment"). Devices connect through the
// proxy; it records every request/response exchange — including the
// plaintext of HTTPS flows, recovered by minting leaf certificates from a
// CA the test devices trust — and emits capture.Flow records to a sink.
package proxy

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/hex"
	"encoding/pem"
	"fmt"
	"math/big"
	"sync"
	"time"
)

// CA is a certificate authority that can mint leaf certificates on demand.
// Two instances appear in the simulation: the proxy's interception CA
// (installed on test devices, like the mitmproxy profile) and the "origin"
// CA standing in for the public web PKI that signs upstream server
// certificates.
type CA struct {
	cert    *x509.Certificate
	key     *ecdsa.PrivateKey
	certDER []byte

	mu    sync.Mutex
	cache map[string]*tls.Certificate
	next  int64 // serial number counter
}

// NewCA creates a self-signed ECDSA P-256 authority.
func NewCA(commonName string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("proxy: generate CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject: pkix.Name{
			CommonName:   commonName,
			Organization: []string{"appvsweb measurement"},
		},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
		MaxPathLen:            1,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("proxy: self-sign CA: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{cert: cert, key: key, certDER: der, cache: make(map[string]*tls.Certificate), next: 1}, nil
}

// CertPEM returns the CA certificate in PEM form, as a device provisioning
// profile would carry it.
func (ca *CA) CertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.certDER})
}

// Pool returns a cert pool containing only this CA, for clients that trust
// it.
func (ca *CA) Pool() *x509.CertPool {
	p := x509.NewCertPool()
	p.AddCert(ca.cert)
	return p
}

// Leaf returns a server certificate for host, minting and caching it on
// first use. Hosts are certified by SAN DNS name.
func (ca *CA) Leaf(host string) (*tls.Certificate, error) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if c, ok := ca.cache[host]; ok {
		return c, nil
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("proxy: generate leaf key: %w", err)
	}
	ca.next++
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(ca.next),
		Subject:      pkix.Name{CommonName: host},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     []string{host},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		return nil, fmt.Errorf("proxy: sign leaf for %s: %w", host, err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	// The chain is the leaf alone. Every device that trusts the proxy
	// holds its CA as a root, and RFC 8446 §4.4.2 lets a server omit the
	// trust anchor; served as an intermediate too, it only made each
	// full handshake check the leaf's signature twice.
	cert := &tls.Certificate{
		Certificate: [][]byte{der},
		PrivateKey:  key,
		Leaf:        leaf,
	}
	ca.cache[host] = cert
	return cert, nil
}

// GetCertificate adapts Leaf to tls.Config.GetCertificate, using SNI with a
// fallback host for clients that omit it.
func (ca *CA) GetCertificate(fallbackHost string) func(*tls.ClientHelloInfo) (*tls.Certificate, error) {
	return func(chi *tls.ClientHelloInfo) (*tls.Certificate, error) {
		host := chi.ServerName
		if host == "" {
			host = fallbackHost
		}
		if host == "" {
			return nil, fmt.Errorf("proxy: no SNI and no fallback host")
		}
		return ca.Leaf(host)
	}
}

// Fingerprint returns the SHA-256 fingerprint of a certificate, as used by
// pinned apps to verify the upstream identity.
func Fingerprint(cert *x509.Certificate) string {
	sum := sha256.Sum256(cert.Raw)
	return hex.EncodeToString(sum[:])
}

// LeafFingerprint returns the pin for the CA's certificate for host.
func (ca *CA) LeafFingerprint(host string) (string, error) {
	c, err := ca.Leaf(host)
	if err != nil {
		return "", err
	}
	return Fingerprint(c.Leaf), nil
}
