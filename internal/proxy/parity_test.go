package proxy

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"appvsweb/internal/capture"
	"appvsweb/internal/obs"
)

// recConn stands in for an h1 tunnel's client conn and keeps what the
// proxy writes to it.
type recConn struct {
	net.Conn
	out bytes.Buffer
}

func (c *recConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// stubOrigin answers every upstream round trip with a fixed 200, or fails
// it with err.
type stubOrigin struct{ err error }

func (o stubOrigin) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // in-memory body
		r.Body.Close()
	}
	if o.err != nil {
		return nil, o.err
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"text/plain"}, "X-Origin": {"yes"}},
		Body:   io.NopCloser(strings.NewReader("origin says hi")),
	}, nil
}

// parityTransport drives one exchange through one transport's adapter. It
// returns the request the adapter saw and the BytesDown that transport's
// success path counts for what the client was sent.
type parityTransport struct {
	name        string
	proto       capture.Protocol
	intercepted bool
	serve       func(t *testing.T, p *Proxy, body string) (r *http.Request, bytesDown int64)
}

var parityTransports = []parityTransport{
	{
		name: "plaintext", proto: capture.HTTP,
		serve: func(t *testing.T, p *Proxy, body string) (*http.Request, int64) {
			r := httptest.NewRequest(http.MethodPost, "http://svc.example/signup", strings.NewReader(body))
			r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			r.Header.Set("Content-Length", strconv.Itoa(len(body)))
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, r)
			return r, responseWireSize(rec.Result().Header, rec.Body.Bytes())
		},
	},
	{
		name: "h1-tunnel", proto: capture.HTTPS, intercepted: true,
		serve: func(t *testing.T, p *Proxy, body string) (*http.Request, int64) {
			raw := fmt.Sprintf("POST /signup HTTP/1.1\r\nHost: svc.example\r\n"+
				"Content-Type: application/x-www-form-urlencoded\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
			r, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
			if err != nil {
				t.Fatal(err)
			}
			conn := &recConn{}
			p.serveTunneledRequest(conn, r, "svc.example")
			return r, int64(conn.out.Len())
		},
	},
	{
		name: "h2", proto: capture.H2, intercepted: true,
		serve: func(t *testing.T, p *Proxy, body string) (*http.Request, int64) {
			r := httptest.NewRequest(http.MethodPost, "/signup", strings.NewReader(body))
			r.Host = "svc.example"
			r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			r.Header.Set("Content-Length", strconv.Itoa(len(body)))
			rec := httptest.NewRecorder()
			(&h2TunnelHandler{p: p, tunnelHost: "svc.example"}).ServeHTTP(rec, r)
			return r, responseWireSize(rec.Result().Header, rec.Body.Bytes())
		},
	},
}

// TestTransportParity: plaintext, h1-tunnel and h2 exchanges run one
// exchange path, so each outcome — forwarded, blocked by the inline
// gateway, failed upstream — records the same flow shape on every
// transport: one flow, BytesUp the request's wire size, BytesDown by the
// transport's own success-path rule, the same Inline verdict and
// Rewritten mark, and exactly one exchange (plus one upstream error on the
// error row) in the proxy's metrics. The recorded Content-Length is the
// length of the recorded body, which redaction shortens.
func TestTransportParity(t *testing.T) {
	rec := inlineRecord()
	body := "email=" + rec.Email + "&plan=basic"
	outcomes := []struct {
		name      string
		action    InlineAction
		rewriter  Rewriter
		upErr     error
		status    int
		rewritten bool
		upErrors  int64
	}{
		{name: "forwarded", action: InlineRedact, status: http.StatusOK, rewritten: true},
		{name: "rewriter", action: InlineLog, rewriter: dropPlan{}, status: http.StatusOK, rewritten: true},
		{name: "inline-block", action: InlineBlock, status: http.StatusForbidden},
		{name: "upstream-error", action: InlineLog, upErr: errors.New("origin unreachable"),
			status: http.StatusBadGateway, upErrors: 1},
	}
	for _, oc := range outcomes {
		for _, tr := range parityTransports {
			t.Run(oc.name+"/"+tr.name, func(t *testing.T) {
				reg := obs.New()
				sink := capture.NewMemSink()
				p, err := New(Config{
					Resolver: NewMapResolver(),
					Sink:     sink,
					Inline:   NewInline(rec, oc.action, reg),
					Rewriter: oc.rewriter,
					Metrics:  reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				p.rt = stubOrigin{err: oc.upErr}

				r, bytesDown := tr.serve(t, p, body)

				flows := sink.Flows()
				if len(flows) != 1 {
					t.Fatalf("flows = %d, want 1", len(flows))
				}
				f := flows[0]
				if f.Protocol != tr.proto || f.Intercepted != tr.intercepted {
					t.Errorf("protocol = %q intercepted = %v, want %q %v", f.Protocol, f.Intercepted, tr.proto, tr.intercepted)
				}
				if f.Status != oc.status {
					t.Errorf("status = %d, want %d", f.Status, oc.status)
				}
				if want := requestWireSize(r, []byte(f.RequestBody)); f.BytesUp != want {
					t.Errorf("BytesUp = %d, want requestWireSize %d", f.BytesUp, want)
				}
				if cl, want := f.RequestHeaders["Content-Length"], strconv.Itoa(len(f.RequestBody)); cl != want {
					t.Errorf("Content-Length = %q, want %q (len(RequestBody))", cl, want)
				}
				if f.Rewritten && len(f.RequestBody) >= len(body) {
					t.Errorf("rewritten body %q is not shorter than %q", f.RequestBody, body)
				}
				if f.BytesDown <= 0 || f.BytesDown != bytesDown {
					t.Errorf("BytesDown = %d, want %d (> 0)", f.BytesDown, bytesDown)
				}
				if f.Inline == nil || f.Inline.Action != string(oc.action) {
					t.Errorf("inline verdict = %+v, want action %q", f.Inline, oc.action)
				} else if f.Inline.Mitigated != (oc.action != InlineLog) {
					t.Errorf("inline mitigated = %v for action %q", f.Inline.Mitigated, oc.action)
				}
				if f.Rewritten != oc.rewritten {
					t.Errorf("Rewritten = %v, want %v", f.Rewritten, oc.rewritten)
				}
				if n := reg.Counter("proxy.requests_total").Value(); n != 1 {
					t.Errorf("proxy.requests_total = %d, want 1", n)
				}
				if n := reg.Counter("proxy.upstream_errors_total").Value(); n != oc.upErrors {
					t.Errorf("proxy.upstream_errors_total = %d, want %d", n, oc.upErrors)
				}
			})
		}
	}
}

// dropPlan is a protection rewriter that strips the plan field from every
// request body.
type dropPlan struct{}

func (dropPlan) Rewrite(_ string, _ bool, url string, body []byte) (string, []byte, bool) {
	out := bytes.Replace(body, []byte("&plan=basic"), nil, 1)
	return url, out, len(out) != len(body)
}
