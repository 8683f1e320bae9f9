package main

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/device"
	"appvsweb/internal/obs"
	"appvsweb/internal/pii"
	"appvsweb/internal/proxy"
	"appvsweb/internal/services"
)

// The gateway workload is the standalone interception proxy as avwproxy
// runs it: one long-lived proxy with the inline gateway redacting one
// device identity. The traffic is every HTTP/1.1 entry of the catalog's
// Android-app request plans, expanded for that identity; two clients send
// it in a closed loop, each request on a fresh CONNECT and TLS tunnel
// (the paper's flow unit). One op is one request.

const (
	gatewayClients = 2
	gatewayOpName  = "gateway.request"
	// reqHeader tags each request with its plan index so the sink can
	// match the recorded flow to the request that caused it.
	reqHeader = "X-Perfbench-Req"
)

type gatewayReq struct {
	method, url, body, contentType string
	wantStatus                     int
	carriesPII                     bool
}

type gateway struct {
	seed  int64
	eco   *services.Ecosystem
	px    *proxy.Proxy
	trust *x509.CertPool
	plan  []gatewayReq
	sink  *gatewaySink
}

func newGateway(seed int64) workload { return &gateway{seed: seed} }

func (g *gateway) setUp() error {
	rng := rand.New(rand.NewSource(g.seed))
	cat := services.Catalog()
	var err error
	if g.eco, err = services.Start(cat); err != nil {
		return err
	}
	dev := device.NewDevice(services.Android, rng.Intn(2))
	identity := dev.Identity(device.NewAccount(cat[rng.Intn(len(cat))].Key))
	exp := device.NewExpander(identity, services.Android, services.App)
	matcher := pii.NewMatcher(identity)
	for _, spec := range cat {
		p, err := spec.Profile(services.Cell{OS: services.Android, Medium: services.App})
		if err != nil {
			return err
		}
		for _, r := range p.RequestPlan() {
			if r.Protocol != "" {
				continue
			}
			q := gatewayReq{method: r.Method, url: exp.Expand(r.URL), body: exp.ExpandBody(r.Body), contentType: r.ContentType}
			q.carriesPII = len(matcher.Scan("url", q.url))+len(matcher.Scan("body", q.body)) > 0
			g.plan = append(g.plan, q)
		}
	}
	rng.Shuffle(len(g.plan), func(i, j int) { g.plan[i], g.plan[j] = g.plan[j], g.plan[i] })
	if err := g.originStatuses(); err != nil {
		return err
	}

	ca, err := proxy.NewCA(interceptCAName)
	if err != nil {
		return err
	}
	g.trust = ca.Pool()
	g.sink = &gatewaySink{plan: g.plan}
	g.px, err = proxy.New(proxy.Config{
		CA: ca, Resolver: g.eco.Internet.Resolver, OriginPool: g.eco.Internet.CA.Pool(),
		Sink: g.sink, Inline: proxy.NewInline(identity, proxy.InlineRedact, obs.Default),
	})
	if err != nil {
		return err
	}
	if err := g.px.Start(); err != nil {
		return err
	}
	// Warm-up: one pass over the plan mints the leaf of every host, as a
	// long-lived avwproxy has after its first minutes.
	st := &runStats{}
	transport := proxy.ClientTransport(g.px.URL(), g.trust)
	for i := range g.plan {
		g.do(transport, i, st, nil, nil)
	}
	if !g.px.Drain(5 * time.Second) {
		return fmt.Errorf("warm-up: proxy did not drain")
	}
	if bad := g.sink.bad.Swap(0); st.failed > 0 || bad > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed, %d flows without their inline verdict", st.failed, len(g.plan), bad)
	}
	return nil
}

// originStatuses asks every origin directly, without the proxy, for the
// status the proxied request must come back with.
func (g *gateway) originStatuses() error {
	direct := &http.Transport{
		DialContext:     proxy.DialContext(g.eco.Internet.Resolver),
		TLSClientConfig: &tls.Config{RootCAs: g.eco.Internet.CA.Pool()},
	}
	defer direct.CloseIdleConnections()
	for i := range g.plan {
		q := &g.plan[i]
		req, err := q.request()
		if err != nil {
			return err
		}
		resp, err := direct.RoundTrip(req)
		if err != nil {
			return fmt.Errorf("origin %s: %w", q.url, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status is wanted
		resp.Body.Close()
		q.wantStatus = resp.StatusCode
	}
	return nil
}

func (q *gatewayReq) request() (*http.Request, error) {
	var body io.Reader
	if q.body != "" {
		body = strings.NewReader(q.body)
	}
	req, err := http.NewRequest(q.method, q.url, body)
	if err != nil {
		return nil, err
	}
	if q.contentType != "" {
		req.Header.Set("Content-Type", q.contentType)
	}
	return req, nil
}

func (g *gateway) close() {
	if g.px != nil {
		g.px.Close()
	}
	if g.eco != nil {
		g.eco.Close()
	}
}

// gatewayLayers are the traced run's client-side intervals per request.
type gatewayLayers struct {
	mu                         sync.Mutex
	connect, clientTLS, exchng []time.Duration
	handshakes, resumed        int
}

func (g *gateway) run(d time.Duration, tr *tracer) (*runStats, error) {
	st := &runStats{opName: gatewayOpName}
	ctr := snapCounters(ctrBytesUp, ctrBytesDown, ctrTunnels, ctrInlineBytes, ctrInlineMatch)
	flows0 := g.sink.recorded.Load()
	lt := &gatewayLayers{}
	var next atomic.Int64
	var mu sync.Mutex
	m := startMeter()
	deadline := m.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < gatewayClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := &runStats{}
			transport := proxy.ClientTransport(g.px.URL(), g.trust)
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(g.plan)
				g.do(transport, i, local, tr, lt)
				m.opDone()
			}
			mu.Lock()
			st.attempted += local.attempted
			st.failed += local.failed
			st.lat = append(st.lat, local.lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	m.finish(st)
	// Every tunnel records its flow before its goroutine ends; a flow still
	// missing after the drain is a request the proxy lost.
	if !g.px.Drain(5 * time.Second) {
		return nil, fmt.Errorf("gateway: proxy did not drain")
	}
	if lost := int64(st.attempted-st.failed) - (g.sink.recorded.Load() - flows0); lost > 0 {
		st.failed += int(lost)
	}
	st.failed += int(g.sink.bad.Swap(0))
	st.bytesMoved = ctr.delta(ctrBytesUp) + ctr.delta(ctrBytesDown)
	if tr != nil {
		n := len(st.lat)
		ops := float64(max(n, 1))
		st.layers = map[string]metricOut{
			"proxy.connect_ms":            meanOf(lt.connect),
			"proxy.client_tls_ms":         meanOf(lt.clientTLS),
			"proxy.exchange_ms":           meanOf(lt.exchng),
			"proxy.tls_resumed_ratio":     {ratio(int64(lt.resumed), int64(lt.handshakes)), "ratio", lt.handshakes},
			"proxy.tunnels_per_op":        {float64(ctr.delta(ctrTunnels)) / ops, "count", n},
			"proxy.inline_bytes_per_op":   {float64(ctr.delta(ctrInlineBytes)) / ops, "bytes", n},
			"proxy.inline_matches_per_op": {float64(ctr.delta(ctrInlineMatch)) / ops, "count", n},
		}
	}
	return st, nil
}

// do sends plan entry i through the proxy and checks the response status.
// With a tracer it records the client-side intervals of the exchange.
func (g *gateway) do(transport *http.Transport, i int, st *runStats, tr *tracer, lt *gatewayLayers) {
	q := &g.plan[i]
	st.attempted++
	req, err := q.request()
	if err != nil {
		st.failed++
		return
	}
	req.Header.Set(reqHeader, strconv.Itoa(i))
	op := tr.root(gatewayOpName)
	var getConn, tlsStart, tlsDone, wrote, firstByte time.Time
	resumed := false
	if tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GetConn:           func(string) { getConn = time.Now() },
			TLSHandshakeStart: func() { tlsStart = time.Now() },
			TLSHandshakeDone: func(cs tls.ConnectionState, _ error) {
				tlsDone = time.Now()
				resumed = cs.DidResume
			},
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { firstByte = time.Now() },
		}))
	}
	start := time.Now()
	resp, err := transport.RoundTrip(req)
	if err != nil {
		st.failed++
		return
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil || resp.StatusCode != q.wantStatus {
		st.failed++
		return
	}
	st.lat = append(st.lat, end.Sub(start))
	if tr != nil {
		tr.add(op, "proxy.connect", getConn, tlsStart)
		tr.add(op, "proxy.client_tls", tlsStart, tlsDone)
		tr.add(op, "proxy.exchange", wrote, firstByte)
		op.withStart(start).endAt(end)
		lt.mu.Lock()
		lt.connect = append(lt.connect, tlsStart.Sub(getConn))
		lt.clientTLS = append(lt.clientTLS, tlsDone.Sub(tlsStart))
		lt.exchng = append(lt.exchng, firstByte.Sub(wrote))
		lt.handshakes++
		if resumed {
			lt.resumed++
		}
		lt.mu.Unlock()
	}
}

// gatewaySink checks each recorded flow against its request: one that
// carried the identity's PII must carry an inline verdict.
type gatewaySink struct {
	plan     []gatewayReq
	recorded atomic.Int64
	bad      atomic.Int64
}

func (s *gatewaySink) Record(f *capture.Flow) {
	s.recorded.Add(1)
	i, err := strconv.Atoi(f.RequestHeaders[reqHeader])
	if err != nil || i < 0 || i >= len(s.plan) {
		s.bad.Add(1)
		return
	}
	if s.plan[i].carriesPII && f.Inline == nil {
		s.bad.Add(1)
	}
}
