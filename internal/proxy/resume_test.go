package proxy

import (
	"crypto/tls"
	"errors"
	"io"
	"net/http"
	"net/http/httptrace"
	"reflect"
	"sync"
	"testing"
	"time"

	"appvsweb/internal/capture"
)

// getResumed sends one GET through client and reports whether the
// device-side handshake of its tunnel resumed a session.
func getResumed(t *testing.T, client *http.Client, url string) bool {
	t.Helper()
	resumed := false
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		TLSHandshakeDone: func(cs tls.ConnectionState, _ error) { resumed = cs.DidResume },
	}))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resumed
}

// timeless strips what legitimately differs between two recordings of the
// same exchange: the flow ID, the start time and the origin's Date header.
func timeless(f *capture.Flow) capture.Flow {
	c := *f
	c.ID, c.Start = 0, time.Time{}
	c.ResponseHeaders = make(map[string]string, len(f.ResponseHeaders))
	for k, v := range f.ResponseHeaders {
		if k != "Date" {
			c.ResponseHeaders[k] = v
		}
	}
	return c
}

// TestTunnelHandshakeResumes: a device reconnecting through one
// ClientTransport presents the ticket the proxy issued on its first
// tunnel, and the proxy can decrypt it, so the second handshake is
// abbreviated. The recorded flow is the same either way.
func TestTunnelHandshakeResumes(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("svc.example", echoHandler())
	client := w.client()
	if getResumed(t, client, "https://svc.example/same") {
		t.Fatal("first tunnel resumed a session it never had")
	}
	if !getResumed(t, client, "https://svc.example/same") {
		t.Fatal("second tunnel did not resume")
	}
	flows := drained(t, w.proxy, w.sink.Flows)
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(flows))
	}
	if a, b := timeless(flows[0]), timeless(flows[1]); !reflect.DeepEqual(a, b) {
		t.Errorf("resumed tunnel recorded a different flow:\nfull:    %+v\nresumed: %+v", a, b)
	}
	tunnels := drained(t, w.proxy, w.counter("proxy.tunnels_total"))
	if resumed := w.count("proxy.tunnels_resumed_total"); tunnels != 2 || resumed != 1 {
		t.Errorf("tunnels = %d, resumed = %d, want 2 and 1", tunnels, resumed)
	}
}

// TestPinnedTransportNeverResumes: a pinned app fails on every attempt,
// so it never holds a ticket that could carry a later handshake past the
// pin.
func TestPinnedTransportNeverResumes(t *testing.T) {
	w := newWorld(t)
	w.serveTLS("pinned.example", echoHandler())
	pin, err := w.originCA.LeafFingerprint("pinned.example")
	if err != nil {
		t.Fatal(err)
	}
	pool := w.proxyCA.Pool()
	pool.AddCert(w.originCA.cert)
	client := &http.Client{Transport: PinnedTransport(w.proxy.URL(), pool, pin), Timeout: 5 * time.Second}
	for i := 0; i < 3; i++ {
		_, err := client.Get("https://pinned.example/secret")
		if !errors.Is(err, ErrPinMismatch) {
			t.Fatalf("attempt %d: err = %v, want ErrPinMismatch", i+1, err)
		}
	}
	if n := drained(t, w.proxy, w.counter("proxy.tunnels_resumed_total")); n != 0 {
		t.Errorf("pinned client resumed %d tunnels", n)
	}
}

// resumeOrigin is a TLS origin that records, per accepted handshake,
// whether it resumed.
type resumeOrigin struct {
	mu      sync.Mutex
	resumed []bool
}

// serve starts the origin for host. Without keepAlive it closes every
// connection after one response, so each request needs a new handshake.
func (o *resumeOrigin) serve(w *testWorld, host string, keepAlive bool) {
	w.t.Helper()
	leaf, err := w.originCA.Leaf(host)
	if err != nil {
		w.t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{
		Certificates: []tls.Certificate{*leaf},
		VerifyConnection: func(cs tls.ConnectionState) error {
			o.mu.Lock()
			o.resumed = append(o.resumed, cs.DidResume)
			o.mu.Unlock()
			return nil
		},
	})
	if err != nil {
		w.t.Fatal(err)
	}
	srv := &http.Server{Handler: echoHandler()}
	srv.SetKeepAlivesEnabled(keepAlive)
	go srv.Serve(ln) //nolint:errcheck
	w.t.Cleanup(func() { srv.Close() })
	w.resolver.Register(host, "443", ln.Addr().String())
}

func (o *resumeOrigin) handshakes() []bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]bool(nil), o.resumed...)
}

// TestSharedSessionsResumeAcrossProxies: two proxies built from one
// Sessions value — as a campaign runner builds its experiments' proxies —
// share its upstream pool and TLS session state. A keep-alive origin
// serves both proxies over one pooled connection, which the first proxy's
// Close leaves open. An origin that closes every connection is dialed
// again by the second proxy, and that handshake resumes the session the
// first dial established. The device's tunnel to the second proxy resumes
// with a ticket the first one issued. DisableTLSResume turns resumption
// off on both sides; pooling does not depend on it. CloseIdleConnections
// releases the pool: the next request dials the keep-alive origin again.
func TestSharedSessionsResumeAcrossProxies(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "resume-on"
		if disable {
			name = "resume-off"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			pooled, closing := &resumeOrigin{}, &resumeOrigin{}
			pooled.serve(w, "svc.example", true)
			closing.serve(w, "close.example", false)
			sessions, err := NewSessions()
			if err != nil {
				t.Fatal(err)
			}
			pool := w.proxyCA.Pool()
			pool.AddCert(w.originCA.cert)
			// The device keeps one session cache across both proxies.
			deviceCache := tls.NewLRUClientSessionCache(8)
			var tunnelResumed []bool
			var p *Proxy
			device := func() *http.Client {
				p, err = New(Config{
					CA: w.proxyCA, Sessions: sessions, DisableTLSResume: disable,
					Resolver: w.resolver, OriginPool: w.originCA.Pool(), Sink: w.sink,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Start(); err != nil {
					t.Fatal(err)
				}
				tr := ClientTransport(p.URL(), pool)
				tr.TLSClientConfig.ClientSessionCache = deviceCache
				return &http.Client{Transport: tr, Timeout: 5 * time.Second}
			}
			for i := 0; i < 2; i++ {
				d := device()
				tunnelResumed = append(tunnelResumed, getResumed(t, d, "https://svc.example/x"))
				getResumed(t, d, "https://close.example/x")
				drained(t, p, w.sink.Flows)
				p.Close()
			}
			if n := len(pooled.handshakes()); n != 1 {
				t.Errorf("keep-alive origin handshakes = %d, want 1 (one pooled connection for both proxies)", n)
			}
			want := []bool{false, !disable}
			if got := closing.handshakes(); !reflect.DeepEqual(got, want) {
				t.Errorf("closing origin resumed = %v, want %v", got, want)
			}
			if !reflect.DeepEqual(tunnelResumed, want) {
				t.Errorf("device tunnel resumed = %v, want %v", tunnelResumed, want)
			}

			sessions.CloseIdleConnections()
			d := device()
			getResumed(t, d, "https://svc.example/x")
			drained(t, p, w.sink.Flows)
			p.Close()
			if got, want := pooled.handshakes(), []bool{false, !disable}; !reflect.DeepEqual(got, want) {
				t.Errorf("keep-alive origin resumed = %v after CloseIdleConnections, want %v (a new dial)", got, want)
			}
		})
	}
}
