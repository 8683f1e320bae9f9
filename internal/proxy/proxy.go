package proxy

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/obs"
	"appvsweb/internal/obs/trace"
	"appvsweb/internal/ws"
)

// Config parameterizes a measurement proxy.
type Config struct {
	// CA is the interception authority. Required to decrypt HTTPS; with a
	// nil CA, CONNECT tunnels are refused (plaintext-only proxying).
	CA *CA
	// Resolver locates upstream servers. Required.
	Resolver Resolver
	// OriginPool holds the roots the proxy trusts when dialing upstream
	// TLS servers (the simulated web PKI). Nil means system roots.
	OriginPool *x509.CertPool
	// Sink receives one capture.Flow per exchange. Required.
	Sink capture.Sink
	// Now supplies flow timestamps; the experiment runner injects its
	// virtual clock. Defaults to time.Now.
	Now func() time.Time
	// ClientID is stamped on every flow (the device/session identity the
	// Meddle VPN would provide).
	ClientID string
	// MaxBodyBytes caps recorded request bodies. Defaults to 1 MiB.
	MaxBodyBytes int64
	// HandshakeTimeout bounds the CONNECT setup: the 200 response write
	// plus the client-side TLS handshake. A client that stalls mid-
	// handshake would otherwise pin the tunnel goroutine forever; on
	// timeout the tunnel is torn down and counted as an intercept failure
	// (proxy.tunnel_failures_total). Defaults to 15s.
	HandshakeTimeout time.Duration
	// IdleTimeout bounds the wait between tunneled requests (and between
	// WebSocket frames) once the handshake has succeeded. An established
	// tunnel whose client goes silent forever would otherwise pin its
	// goroutine for the life of the process. Reaps are counted under
	// proxy.tunnel_idle_reaps_total — distinct from handshake failures,
	// because by this point interception has demonstrably worked.
	// Defaults to 5m; negative disables.
	IdleTimeout time.Duration
	// Sessions is the state shared across tunnels and across proxies: the
	// tunnels' session-ticket keys and the upstream connection pool. A
	// campaign runner passes one to every experiment's proxy. Nil makes a
	// proxy-private one, released on Close.
	Sessions *Sessions
	// DisableTLSResume turns off resumption on both sides: tunnels issue
	// no session tickets and upstream connections use no session cache.
	// Used by the ablation bench.
	DisableTLSResume bool
	// Rewriter, when set, may rewrite each intercepted request before it
	// is forwarded upstream — the ReCon-style protection mode the paper's
	// conclusion proposes. Recorded flows reflect what actually reached
	// the network.
	Rewriter Rewriter
	// Inline, when set, runs the streaming PII gateway on every exchange:
	// request bodies are scanned as they transit, and the gateway's action
	// (log/redact/block) is applied before the Rewriter sees the flow
	// (docs/inline.md). Nil disables inline detection.
	Inline *Inline
	// Tracer, when set, receives proxy-level trace events (certificate-
	// pinning tunnel failures) under SpanID — the experiment span the
	// campaign runner allocated. Nil disables them.
	Tracer *trace.Tracer
	// SpanID scopes this proxy's trace events to its experiment.
	SpanID string
	// Metrics receives the proxy's instrumentation (see docs/metrics.md).
	// Nil uses obs.Default; a proxy of its own registry counts alone.
	Metrics *obs.Registry
}

// Rewriter rewrites intercepted requests in flight.
type Rewriter interface {
	// Rewrite receives the destination host, whether the transport is
	// plaintext, the absolute URL, and the request body. It returns the
	// (possibly modified) URL and body, and whether anything changed.
	Rewrite(host string, plaintext bool, url string, body []byte) (newURL string, newBody []byte, changed bool)
}

// Proxy is a recording HTTP(S) forward proxy.
type Proxy struct {
	cfg      Config
	upstream *http.Transport   // cfg.Sessions' pool
	rt       http.RoundTripper // p.upstream, swappable by benchmarks
	// ownsPool is set when the proxy made its own Sessions, so Close
	// releases the pool; a shared pool is its owner's to release.
	ownsPool bool
	srv      *http.Server
	ln       net.Listener

	mu     sync.Mutex
	closed bool

	// tunnelWG tracks in-flight tunnel goroutines. Hijacked connections
	// fall outside http.Server's accounting, and the WS/h2 serving paths
	// record their flows only when the client's close is observed — so a
	// caller that snapshots the Sink right after its traffic ends can race
	// a flow still being written. Drain closes that window.
	tunnelWG sync.WaitGroup

	metrics proxyMetrics
}

// proxyMetrics holds the registry-wide counters, resolved once at
// construction so the per-exchange path never takes the registry lock. A
// campaign runs one proxy per experiment; these aggregate across all of
// them into one process-wide view.
type proxyMetrics struct {
	requests       *obs.Counter
	upstreamConns  *obs.Counter
	tunnels        *obs.Counter
	tunnelsResumed *obs.Counter
	tunnelFailures *obs.Counter
	tunnelIdle     *obs.Counter
	upstreamErrors *obs.Counter
	bytesUp        *obs.Counter
	bytesDown      *obs.Counter
	flowBytes      *obs.Histogram
	h2Conns        *obs.Counter
	h2Streams      *obs.Counter
	wsConns        *obs.Counter
	wsFramesUp     *obs.Counter
	wsFramesDown   *obs.Counter
	wsBytes        *obs.Counter
}

func newProxyMetrics(reg *obs.Registry) proxyMetrics {
	if reg == nil {
		reg = obs.Default
	}
	wsFrames := reg.CounterVec("proxy.ws.frames", "dir")
	return proxyMetrics{
		requests:       reg.Counter("proxy.requests_total"),
		upstreamConns:  reg.Counter("proxy.upstream_conns_total"),
		tunnels:        reg.Counter("proxy.tunnels_total"),
		tunnelsResumed: reg.Counter("proxy.tunnels_resumed_total"),
		tunnelFailures: reg.Counter("proxy.tunnel_failures_total"),
		tunnelIdle:     reg.Counter("proxy.tunnel_idle_reaps_total"),
		upstreamErrors: reg.Counter("proxy.upstream_errors_total"),
		bytesUp:        reg.Counter("proxy.bytes_up_total"),
		bytesDown:      reg.Counter("proxy.bytes_down_total"),
		flowBytes:      reg.Histogram("proxy.flow_bytes", "bytes"),
		h2Conns:        reg.Counter("proxy.h2.conns_total"),
		h2Streams:      reg.Counter("proxy.h2.streams_total"),
		wsConns:        reg.Counter("proxy.ws.conns_total"),
		wsFramesUp:     wsFrames.WithLabelValues("up"),
		wsFramesDown:   wsFrames.WithLabelValues("down"),
		wsBytes:        reg.Counter("proxy.ws.bytes_total"),
	}
}

// hop-by-hop headers stripped when forwarding (RFC 7230 §6.1).
var hopHeaders = []string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// New builds a proxy from the config.
func New(cfg Config) (*Proxy, error) {
	if cfg.Resolver == nil {
		return nil, errors.New("proxy: Resolver is required")
	}
	if cfg.Sink == nil {
		return nil, errors.New("proxy: Sink is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 15 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	} else if cfg.IdleTimeout < 0 {
		cfg.IdleTimeout = 0
	}
	ownsPool := cfg.Sessions == nil
	if ownsPool {
		s, err := NewSessions()
		if err != nil {
			return nil, err
		}
		cfg.Sessions = s
	}
	p := &Proxy{
		cfg:      cfg,
		metrics:  newProxyMetrics(cfg.Metrics),
		ownsPool: ownsPool,
	}
	conns := p.metrics.upstreamConns
	p.upstream = cfg.Sessions.transport(func() *http.Transport {
		tlsCfg := &tls.Config{RootCAs: cfg.OriginPool}
		if !cfg.DisableTLSResume {
			tlsCfg.ClientSessionCache = tls.NewLRUClientSessionCache(upstreamSessionCacheSize)
		}
		dial := DialContext(cfg.Resolver)
		return &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := dial(ctx, network, addr)
				if err == nil {
					conns.Inc()
				}
				return conn, err
			},
			TLSClientConfig:     tlsCfg,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     30 * time.Second,
		}
	})
	p.rt = p.upstream
	p.srv = &http.Server{Handler: p}
	return p, nil
}

// Start listens on an ephemeral loopback port and serves until Close.
func (p *Proxy) Start() error {
	return p.StartOn("127.0.0.1:0")
}

// StartOn listens on a fixed address (e.g. "127.0.0.1:18080") and serves
// until Close; avwproxy's -addr flag uses it.
func (p *Proxy) StartOn(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("proxy: listen %s: %w", addr, err)
	}
	p.ln = ln
	go p.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return nil
}

// Addr returns the proxy's listen address, e.g. "127.0.0.1:40123".
func (p *Proxy) Addr() string {
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// URL returns the proxy URL for http.Transport.Proxy.
func (p *Proxy) URL() *url.URL {
	return &url.URL{Scheme: "http", Host: p.Addr()}
}

// Drain blocks until every in-flight tunnel goroutine has exited — and
// therefore recorded its flow — or the timeout elapses; it reports whether
// the proxy fully drained. Callers whose clients have already closed their
// sockets use it to make the Sink snapshot complete: WS and h2 tunnels
// record asynchronously when they observe the client's close.
func (p *Proxy) Drain(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		p.tunnelWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close shuts the proxy down and, unless its Sessions was passed in,
// releases its upstream connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	if p.ownsPool {
		p.upstream.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return p.srv.Shutdown(ctx)
}

// ServeHTTP dispatches plaintext proxying and CONNECT interception.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodConnect {
		p.handleConnect(w, r)
		return
	}
	p.handleHTTP(w, r)
}

// handleHTTP forwards an absolute-URI plaintext request.
func (p *Proxy) handleHTTP(w http.ResponseWriter, r *http.Request) {
	if !r.URL.IsAbs() {
		http.Error(w, "proxy: absolute URI required", http.StatusBadRequest)
		return
	}
	p.exchange(r, capture.HTTP, strings.ToLower(r.URL.Hostname()), r.URL.String(), responder{w: w})
}

// handleConnect hijacks the connection, terminates TLS with a minted
// certificate, and serves the decrypted requests inside the tunnel.
func (p *Proxy) handleConnect(w http.ResponseWriter, r *http.Request) {
	if p.cfg.CA == nil {
		http.Error(w, "proxy: TLS interception disabled", http.StatusForbidden)
		return
	}
	host, _, err := net.SplitHostPort(r.Host)
	if err != nil {
		host = r.Host
	}
	host = strings.ToLower(host)

	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "proxy: hijacking unsupported", http.StatusInternalServerError)
		return
	}
	rawConn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	p.tunnelWG.Add(1)
	defer p.tunnelWG.Done()
	p.metrics.tunnels.Inc()
	// The close-notifying wrapper lets the h2 serving path learn when the
	// bundled HTTP/2 server (which owns the conn after handoff) is done
	// with it; for h1 and WS tunnels it is inert.
	raw := newNotifyConn(rawConn)
	defer raw.Close()
	start := p.cfg.Now()
	// The deadline covers both the 200 write and the TLS handshake: a
	// client that stalls mid-handshake must not pin this goroutine. The
	// deadline is real wall-clock time (p.cfg.Now may be a virtual clock).
	deadline := time.Now().Add(p.cfg.HandshakeTimeout)
	if err := raw.SetDeadline(deadline); err != nil {
		p.recordTunnelFailure(start, host, "connect setup: arm handshake deadline: "+err.Error())
		return
	}
	if _, err := io.WriteString(raw, "HTTP/1.1 200 Connection Established\r\n\r\n"); err != nil {
		p.recordTunnelFailure(start, host, "connect setup: write 200 Connection Established: "+err.Error())
		return
	}

	tlsConn := tls.Server(raw, p.tunnelConfig(host))
	defer tlsConn.Close()
	if err := tlsConn.HandshakeContext(r.Context()); err != nil {
		reason := "handshake: " + err.Error()
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			reason = fmt.Sprintf("handshake: client stalled past the %v intercept deadline: %v", p.cfg.HandshakeTimeout, err)
		}
		p.recordTunnelFailure(start, host, reason)
		return
	}
	// Handshake done: lift the deadline so long-lived tunnels keep
	// serving requests at their own pace (the idle deadline below re-arms
	// reads per request).
	if err := tlsConn.SetDeadline(time.Time{}); err != nil {
		p.recordTunnelFailure(start, host, "connect setup: lift handshake deadline: "+err.Error())
		return
	}

	cs := tlsConn.ConnectionState()
	if cs.DidResume {
		p.metrics.tunnelsResumed.Inc()
	}
	if cs.NegotiatedProtocol == "h2" {
		p.serveH2Tunnel(tlsConn, raw, host)
		return
	}

	br := newTunnelReader(tlsConn)
	defer putTunnelReader(br)
	served := 0
	for {
		if p.cfg.IdleTimeout > 0 {
			if err := tlsConn.SetReadDeadline(time.Now().Add(p.cfg.IdleTimeout)); err != nil {
				p.recordTunnelFailure(start, host, "arm idle deadline: "+err.Error())
				return
			}
		}
		req, err := http.ReadRequest(br)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				// The handshake worked and requests may already have been
				// served; the client just went silent. Reap the goroutine
				// and count it apart from intercept failures.
				p.recordTunnelIdle(host, served)
				return
			}
			if served == 0 {
				// The client completed the handshake but sent nothing:
				// the signature of certificate pinning rejecting our
				// minted certificate (§3.1: Facebook's app fails
				// criterion 4).
				p.recordTunnelFailure(start, host, "tunnel aborted before first request")
			}
			return
		}
		if ws.IsUpgrade(req) {
			p.serveWSTunnel(tlsConn, br, req, host)
			return
		}
		if !p.serveTunneledRequest(tlsConn, req, host) {
			return
		}
		served++
	}
}

// recordTunnelIdle accounts an established tunnel reaped by IdleTimeout —
// deliberately not a tunnel failure: interception succeeded, the client
// just stopped talking.
func (p *Proxy) recordTunnelIdle(host string, served int) {
	p.metrics.tunnelIdle.Inc()
	p.cfg.Tracer.Emit(trace.Event{Type: trace.EvTunnelIdle, Span: p.cfg.SpanID, Attrs: map[string]string{
		"host":   host,
		"served": fmt.Sprint(served),
		"idle":   p.cfg.IdleTimeout.String(),
		"client": p.cfg.ClientID,
	}})
}

// serveTunneledRequest forwards one decrypted request of an h1 tunnel;
// reports whether the tunnel should continue.
func (p *Proxy) serveTunneledRequest(conn net.Conn, r *http.Request, tunnelHost string) bool {
	host, absURL := tunnelTarget(r, tunnelHost, "https://")
	return p.exchange(r, capture.HTTPS, host, absURL, responder{conn: conn})
}

// tunnelTarget names the origin of a request decrypted inside a CONNECT
// tunnel: its Host header (or the CONNECT target when absent), lower-cased
// and without a port, and the absolute URL under scheme.
func tunnelTarget(r *http.Request, tunnelHost, scheme string) (host, absURL string) {
	host = r.Host
	if host == "" {
		host = tunnelHost
	}
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	host = strings.ToLower(host)
	return host, scheme + host + r.RequestURI
}

// textPlain is the header of the responses the proxy writes itself.
var textPlain = http.Header{"Content-Type": {textPlainType}}

const textPlainType = "text/plain; charset=utf-8"

// exchange serves one intercepted request and records its flow, whatever
// the transport: the inline gateway's verdict, the block page, the
// protection rewrite, the upstream round trip and the 502 all happen here,
// once. The transport adapters only name the host and URL and say, through
// rs, how to answer. It reports whether the client connection may carry
// another request.
func (p *Proxy) exchange(r *http.Request, proto capture.Protocol, host, absURL string, rs responder) bool {
	start := p.cfg.Now()
	insp := p.cfg.Inline.begin()
	defer insp.release()
	r.Body = insp.tee(r.Body)
	body, err := p.readBody(r)
	if err != nil {
		rs.respond(http.StatusBadGateway, textPlain, []byte("proxy: read body: "+err.Error()+"\n"))
		return false
	}
	iv, absURL, body := insp.finish(absURL, r.Header, body)
	if iv != nil {
		p.traceInlineVerdict(host, iv)
	}
	blocked := iv != nil && iv.Action == string(InlineBlock)
	var (
		resp      *http.Response
		respBody  []byte
		upErr     error
		rewritten bool
	)
	if !blocked {
		absURL, body, rewritten = p.rewrite(host, proto == capture.HTTP, absURL, body)
		resp, respBody, upErr = p.roundTrip(p.outboundRequest(r, absURL, body))
	}
	// The flow records the body that was forwarded, which redaction or
	// the rewriter may have resized; its Content-Length follows.
	if r.ContentLength != int64(len(body)) && r.Header.Get("Content-Length") != "" {
		r.Header.Set("Content-Length", strconv.Itoa(len(body)))
	}

	f := p.newFlow(start, proto, r, host, absURL, body)
	f.Inline = iv
	// Trailers arrive after the body; readBody above consumed it, so any
	// trailer fields have been merged by now.
	f.Trailers = trailerMap(r.Trailer)
	// A refusal is not a rewrite: nothing of a blocked request was sent.
	f.Rewritten = !blocked && (rewritten || (iv != nil && iv.Mitigated))
	keep := false
	switch {
	case blocked:
		// The request was refused, not the connection: later requests on
		// the same tunnel get their own verdicts.
		page := blockPage(iv)
		f.Status = http.StatusForbidden
		f.ResponseHeaders = map[string]string{"Content-Type": textPlainType}
		f.ResponseSize = int64(len(page))
		f.BytesDown, keep = rs.respond(http.StatusForbidden, textPlain, page)
	case upErr != nil:
		f.Status = http.StatusBadGateway
		f.ResponseHeaders = map[string]string{"X-Proxy-Error": upErr.Error()}
		f.BytesDown, _ = rs.respond(http.StatusBadGateway, nil, nil)
		p.metrics.upstreamErrors.Inc()
	default:
		f.Status = resp.StatusCode
		f.ResponseSize = int64(len(respBody))
		f.ResponseHeaders = flatten(resp.Header)
		f.BytesDown, keep = rs.respond(resp.StatusCode, resp.Header, respBody)
	}
	p.record(f)
	return keep
}

// responder answers an exchange on its transport: through the
// http.ResponseWriter of a plaintext request or an h2 stream, or as raw
// HTTP/1.1 on an h1 tunnel's conn. Exactly one field is set. A value, not
// an interface, so the per-exchange path allocates nothing for it.
type responder struct {
	w    http.ResponseWriter
	conn net.Conn
}

// respond writes one response. It returns the bytes the flow counts in
// BytesDown — the bytes written on a tunnel conn, the wire-size estimate
// behind a ResponseWriter (whose framing the server owns) — and whether
// the connection may carry another request.
func (rs responder) respond(status int, header http.Header, body []byte) (int64, bool) {
	if rs.conn != nil {
		n, err := writeSimpleResponse(rs.conn, status, header, body)
		return n, err == nil
	}
	h := rs.w.Header()
	for k, vv := range header {
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	rs.w.WriteHeader(status)
	rs.w.Write(body) //nolint:errcheck // client teardown is not an error
	return responseWireSize(header, body), true
}

// rewrite applies the configured protection rewriter, if any.
func (p *Proxy) rewrite(host string, plaintext bool, absURL string, body []byte) (string, []byte, bool) {
	if p.cfg.Rewriter == nil {
		return absURL, body, false
	}
	newURL, newBody, changed := p.cfg.Rewriter.Rewrite(host, plaintext, absURL, body)
	if !changed {
		return absURL, body, false
	}
	return newURL, newBody, true
}

// outboundRequest builds the upstream copy of an intercepted request.
func (p *Proxy) outboundRequest(r *http.Request, absURL string, body []byte) *http.Request {
	u, err := url.Parse(absURL)
	if err != nil {
		u = r.URL
	}
	out := &http.Request{
		Method:        r.Method,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        make(http.Header, len(r.Header)),
		Host:          u.Host,
		ContentLength: int64(len(body)),
	}
	for k, vv := range r.Header {
		out.Header[k] = append([]string(nil), vv...)
	}
	for _, h := range hopHeaders {
		out.Header.Del(h)
	}
	if len(body) > 0 {
		out.Body = io.NopCloser(bytes.NewReader(body))
	}
	return out.WithContext(r.Context())
}

// roundTrip performs the upstream exchange and drains the response body.
func (p *Proxy) roundTrip(out *http.Request) (*http.Response, []byte, error) {
	resp, err := p.rt.RoundTrip(out)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, nil, err
	}
	return resp, respBody, nil
}

func (p *Proxy) readBody(r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	defer r.Body.Close()
	return io.ReadAll(io.LimitReader(r.Body, p.cfg.MaxBodyBytes))
}

// newFlow builds the flow skeleton for one exchange.
func (p *Proxy) newFlow(start time.Time, proto capture.Protocol, r *http.Request, host, absURL string, body []byte) *capture.Flow {
	hdrs := make(map[string]string, len(r.Header))
	for k, vv := range r.Header {
		hdrs[k] = strings.Join(vv, ", ")
	}
	for _, h := range hopHeaders {
		delete(hdrs, h)
	}
	return &capture.Flow{
		Start:          start,
		Client:         p.cfg.ClientID,
		Protocol:       proto,
		Method:         r.Method,
		Host:           host,
		URL:            absURL,
		RequestHeaders: hdrs,
		RequestBody:    string(body),
		BytesUp:        requestWireSize(r, body),
		Intercepted:    proto != capture.HTTP,
	}
}

// flatten joins each header's values into one string, as flows record them.
func flatten(h http.Header) map[string]string {
	out := make(map[string]string, len(h))
	for k, vv := range h {
		out[k] = strings.Join(vv, ", ")
	}
	return out
}

// record counts one finished exchange and hands its flow to the sink.
func (p *Proxy) record(f *capture.Flow) {
	p.metrics.requests.Inc()
	p.metrics.bytesUp.Add(f.BytesUp)
	p.metrics.bytesDown.Add(f.BytesDown)
	p.metrics.flowBytes.Observe(f.BytesUp + f.BytesDown)
	p.cfg.Sink.Record(f)
}

// traceInlineVerdict publishes one inline-gateway verdict as a live trace
// event (nil-safe on the tracer, like every emit site).
func (p *Proxy) traceInlineVerdict(host string, iv *capture.InlineVerdict) {
	p.cfg.Tracer.Emit(trace.Event{Type: trace.EvInlineVerdict, Span: p.cfg.SpanID, Attrs: map[string]string{
		"host":     host,
		"action":   iv.Action,
		"types":    strings.Join(iv.Types, ","),
		"evidence": strings.Join(iv.Evidence, "; "),
		"client":   p.cfg.ClientID,
	}})
}

func (p *Proxy) recordTunnelFailure(start time.Time, host, reason string) {
	p.metrics.tunnelFailures.Inc()
	p.cfg.Tracer.Emit(trace.Event{Type: trace.EvTunnelFailure, Span: p.cfg.SpanID, Attrs: map[string]string{
		"host": host, "reason": reason, "client": p.cfg.ClientID,
	}})
	p.cfg.Sink.Record(&capture.Flow{
		Start:           start,
		Client:          p.cfg.ClientID,
		Protocol:        capture.HTTPS,
		Method:          http.MethodConnect,
		Host:            host,
		URL:             "https://" + host + "/",
		Status:          0,
		ResponseHeaders: map[string]string{"X-Proxy-Error": reason},
		Intercepted:     false,
	})
}

// requestWireSize approximates the on-the-wire size of a request.
func requestWireSize(r *http.Request, body []byte) int64 {
	n := int64(len(r.Method) + 1 + len(r.RequestURI) + 1 + len("HTTP/1.1") + 2)
	for k, vv := range r.Header {
		for _, v := range vv {
			n += int64(len(k) + 2 + len(v) + 2)
		}
	}
	return n + 2 + int64(len(body))
}

// responseWireSize approximates the on-the-wire size of a response.
func responseWireSize(header http.Header, body []byte) int64 {
	n := int64(len("HTTP/1.1 200 OK") + 2)
	for k, vv := range header {
		for _, v := range vv {
			n += int64(len(k) + 2 + len(v) + 2)
		}
	}
	return n + 2 + int64(len(body))
}

// writeSimpleResponse serializes a response with an explicit
// Content-Length, returning the bytes written.
func writeSimpleResponse(w io.Writer, status int, header http.Header, body []byte) (int64, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", status, http.StatusText(status))
	keys := make([]string, 0, len(header))
	for k := range header {
		if isHopHeader(k) || strings.EqualFold(k, "Content-Length") {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range header[k] {
			fmt.Fprintf(&b, "%s: %s\r\n", k, v)
		}
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(body))
	b.Write(body)
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

func isHopHeader(k string) bool {
	for _, h := range hopHeaders {
		if strings.EqualFold(h, k) {
			return true
		}
	}
	return false
}

// tunnelReaderPool recycles the per-tunnel request readers: a campaign
// opens one tunnel per simulated connection (clients disable keep-alive),
// so without pooling every CONNECT allocated a fresh 8 KiB buffer.
var tunnelReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 8<<10) },
}

func newTunnelReader(r io.Reader) *bufio.Reader {
	br := tunnelReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putTunnelReader(br *bufio.Reader) {
	br.Reset(nil)
	tunnelReaderPool.Put(br)
}

// notifyConn wraps the hijacked TCP conn underneath the TLS layer and
// closes a channel on first Close. The h2 tunnel path needs it: the
// bundled HTTP/2 server owns the *tls.Conn after handoff and closes it
// when the session ends, and that close (propagating to this wrapper) is
// the only completion signal available to the tunnel goroutine.
type notifyConn struct {
	net.Conn
	once sync.Once
	done chan struct{}
}

func newNotifyConn(c net.Conn) *notifyConn {
	return &notifyConn{Conn: c, done: make(chan struct{})}
}

func (c *notifyConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.Conn.Close()
}
