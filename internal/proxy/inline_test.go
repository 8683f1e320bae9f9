package proxy

import (
	"bufio"
	"crypto/tls"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/obs"
	"appvsweb/internal/obs/trace"
	"appvsweb/internal/pii"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// inlineRecord is the fixed ground-truth identity the gateway tests plant
// and detect. Values mirror the pii package's test record shape.
func inlineRecord() *pii.Record {
	return &pii.Record{
		Username: "jdoe88",
		Email:    "jane.doe.test@example.com",
		Phone:    "6175551234",
		ZIP:      "02115",
		IMEI:     "356938035643809",
	}
}

// newInlineWorld builds a testWorld whose proxy runs the inline gateway
// with the given action, plus the tracer and private metric registry the
// assertions read.
func newInlineWorld(t testing.TB, action InlineAction) (*testWorld, *Inline, *trace.Tracer, *obs.Registry) {
	t.Helper()
	originCA, err := NewCA("Origin Root")
	if err != nil {
		t.Fatal(err)
	}
	proxyCA, err := NewCA("Meddle Interception CA")
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorld{
		t:        t,
		originCA: originCA,
		proxyCA:  proxyCA,
		resolver: NewMapResolver(),
		sink:     capture.NewMemSink(),
		reg:      obs.New(),
	}
	reg := w.reg
	tracer := trace.New(trace.Options{})
	gw := NewInline(inlineRecord(), action, reg)
	if gw == nil {
		t.Fatalf("NewInline(%q) = nil", action)
	}
	p, err := New(Config{
		CA:         proxyCA,
		Resolver:   w.resolver,
		OriginPool: originCA.Pool(),
		Sink:       w.sink,
		ClientID:   "test-device",
		Inline:     gw,
		Tracer:     tracer,
		SpanID:     "s1",
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	w.proxy = p
	return w, gw, tracer, reg
}

// golden compares got against testdata/golden/<name>, rewriting the file
// under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// inlineVerdictEvents filters the tracer's ring for gateway verdicts.
func inlineVerdictEvents(tr *trace.Tracer) []trace.Event {
	var out []trace.Event
	for _, e := range tr.Events() {
		if e.Type == trace.EvInlineVerdict {
			out = append(out, e)
		}
	}
	return out
}

// TestInlineRedactGolden: a tunneled POST whose URL and body carry PII
// under several encodings reaches the origin redacted. The echo origin
// reflects what it received, so the client-visible response body is the
// exact content that crossed the network — pinned as a golden fixture.
func TestInlineRedactGolden(t *testing.T) {
	w, gw, tracer, _ := newInlineWorld(t, InlineRedact)
	w.serveTLS("svc.example", echoHandler())
	rec := inlineRecord()

	body := "email=" + rec.Email +
		"&imei_b64=" + pii.Encode(pii.EncBase64, rec.IMEI) +
		"&note=hello"
	resp, err := w.client().Post("https://svc.example/login?user="+rec.Username,
		"application/x-www-form-urlencoded", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	echoed, _ := io.ReadAll(resp.Body)
	golden(t, "redacted_body.txt", echoed)

	if strings.Contains(string(echoed), rec.Email) || strings.Contains(string(echoed), rec.Username) {
		t.Fatalf("PII reached the origin: %q", echoed)
	}
	f := drained(t, w.proxy, w.sink.Flows)[0]
	if f.Inline == nil || f.Inline.Action != string(InlineRedact) || !f.Inline.Mitigated {
		t.Fatalf("flow verdict = %+v", f.Inline)
	}
	if !f.Rewritten {
		t.Error("redacted flow not marked Rewritten")
	}
	// The recorded flow reflects what actually reached the network.
	if strings.Contains(f.RequestBody, rec.Email) || strings.Contains(f.URL, rec.Username) {
		t.Errorf("recorded flow holds unredacted PII: url=%q body=%q", f.URL, f.RequestBody)
	}
	if !strings.Contains(f.RequestBody, pii.RedactionMark) {
		t.Errorf("redaction mark missing from body: %q", f.RequestBody)
	}
	evs := inlineVerdictEvents(tracer)
	if len(evs) != 1 || evs[0].Attrs["action"] != "redact" || evs[0].Attrs["host"] != "svc.example" {
		t.Errorf("verdict events = %+v", evs)
	}
	if gets, puts := gw.PoolStats(); gets != puts || gets == 0 {
		t.Errorf("scanner pool: gets=%d puts=%d", gets, puts)
	}
}

// TestInlineBlockGolden: a flow carrying PII is refused with the
// synthesized 403 page (golden fixture), nothing reaches the origin, the
// tunnel survives for later clean requests, and the blocked flow still
// carries the complete capture→match→action chain: recorded content,
// match evidence with stream offsets, verdict annotation, and a live
// trace event.
func TestInlineBlockGolden(t *testing.T) {
	w, _, tracer, reg := newInlineWorld(t, InlineBlock)
	rec := inlineRecord()
	var originHits int
	w.serveTLS("svc.example", http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		originHits++
		fmt.Fprint(rw, "origin reached")
	}))

	// A raw tunnel lets the test issue two requests over one CONNECT.
	conn, err := net.Dial("tcp", w.proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "CONNECT svc.example:443 HTTP/1.1\r\nHost: svc.example:443\r\n\r\n")
	br := bufio.NewReader(conn)
	if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, "200") {
		t.Fatalf("CONNECT: %q %v", line, err)
	}
	if _, err := br.ReadString('\n'); err != nil { // blank line
		t.Fatal(err)
	}
	tlsConn := tls.Client(conn, &tls.Config{RootCAs: w.proxyCA.Pool(), ServerName: "svc.example"})
	if err := tlsConn.Handshake(); err != nil {
		t.Fatal(err)
	}
	tbr := bufio.NewReader(tlsConn)

	// Request 1: carries the email in the body — blocked.
	body := "email=" + rec.Email + "&z=" + rec.ZIP
	fmt.Fprintf(tlsConn, "POST /login HTTP/1.1\r\nHost: svc.example\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp, err := http.ReadResponse(tbr, nil)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
	golden(t, "block_403.txt", page)
	if originHits != 0 {
		t.Fatalf("blocked request reached the origin %d times", originHits)
	}

	// Request 2 on the same tunnel: clean, forwarded.
	fmt.Fprintf(tlsConn, "GET /ok HTTP/1.1\r\nHost: svc.example\r\n\r\n")
	resp2, err := http.ReadResponse(tbr, nil)
	if err != nil {
		t.Fatalf("tunnel did not survive the block: %v", err)
	}
	ok, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 || string(ok) != "origin reached" {
		t.Fatalf("second request: %d %q", resp2.StatusCode, ok)
	}

	// Provenance: the blocked flow records the original content, the match
	// evidence (body hits with absolute stream offsets), and the verdict.
	tlsConn.Close()
	flows := drained(t, w.proxy, w.sink.Flows)
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(flows))
	}
	f := flows[0]
	if f.Status != http.StatusForbidden || f.Inline == nil || f.Inline.Action != "block" || !f.Inline.Mitigated {
		t.Fatalf("blocked flow = status %d, inline %+v", f.Status, f.Inline)
	}
	if !strings.Contains(f.RequestBody, rec.Email) {
		t.Errorf("blocked flow lost its captured content: %q", f.RequestBody)
	}
	var offsetEvidence bool
	for _, e := range f.Inline.Evidence {
		if strings.Contains(e, "in body @") {
			offsetEvidence = true
		}
	}
	if !offsetEvidence {
		t.Errorf("no body evidence with stream offsets: %v", f.Inline.Evidence)
	}
	evs := inlineVerdictEvents(tracer)
	if len(evs) != 1 || evs[0].Attrs["action"] != "block" || evs[0].Attrs["evidence"] == "" {
		t.Errorf("verdict events = %+v", evs)
	}
	if got := reg.CounterVec("proxy.inline.verdicts", "action").WithLabelValues("block").Value(); got != 1 {
		t.Errorf("proxy.inline.verdicts.block = %d, want 1", got)
	}
	if got := reg.Counter("proxy.inline.flows_total").Value(); got != 2 {
		t.Errorf("proxy.inline.flows_total = %d, want 2", got)
	}
}

// TestInlineLogObservesOnly: the log action annotates the flow and emits
// the verdict but forwards the content untouched.
func TestInlineLogObservesOnly(t *testing.T) {
	w, _, tracer, _ := newInlineWorld(t, InlineLog)
	w.serveTLS("svc.example", echoHandler())
	rec := inlineRecord()
	resp, err := w.client().Post("https://svc.example/p", "text/plain",
		strings.NewReader("email="+rec.Email))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	echoed, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(echoed), rec.Email) {
		t.Errorf("log action modified content: %q", echoed)
	}
	f := drained(t, w.proxy, w.sink.Flows)[0]
	if f.Inline == nil || f.Inline.Action != "log" || f.Inline.Mitigated || f.Rewritten {
		t.Errorf("flow = inline %+v rewritten %v", f.Inline, f.Rewritten)
	}
	if len(inlineVerdictEvents(tracer)) != 1 {
		t.Error("no verdict event")
	}
}

// TestInlineCleanFlowUnannotated: flows without ground-truth PII pass
// through with no verdict, no trace event, and no rewrite.
func TestInlineCleanFlowUnannotated(t *testing.T) {
	w, _, tracer, _ := newInlineWorld(t, InlineBlock)
	w.serveTLS("svc.example", echoHandler())
	resp, err := w.client().Post("https://svc.example/p", "text/plain",
		strings.NewReader("nothing sensitive here"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("clean flow blocked: %d", resp.StatusCode)
	}
	f := drained(t, w.proxy, w.sink.Flows)[0]
	if f.Inline != nil || f.Rewritten {
		t.Errorf("clean flow annotated: %+v", f.Inline)
	}
	if n := len(inlineVerdictEvents(tracer)); n != 0 {
		t.Errorf("verdict events on clean flow: %d", n)
	}
}

// TestInlineConcurrentRedact drives many tunneled flows through one
// gateway at once — the shared-automaton, pooled-scanner path the race
// detector must bless (wired into make race).
func TestInlineConcurrentRedact(t *testing.T) {
	w, gw, _, _ := newInlineWorld(t, InlineRedact)
	w.serveTLS("conc.example", echoHandler())
	rec := inlineRecord()
	client := w.client()
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf("i=%d&email=%s&imei=%s", i, rec.Email, pii.Encode(pii.EncHex, rec.IMEI))
			resp, err := client.Post(fmt.Sprintf("https://conc.example/r/%d", i), "text/plain", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			echoed, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(echoed), rec.Email) {
				errs <- fmt.Errorf("request %d: PII crossed the gateway: %q", i, echoed)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := drained(t, w.proxy, w.sink.Len); got != n {
		t.Errorf("flows = %d, want %d", got, n)
	}
	for _, f := range w.sink.Flows() {
		if f.Inline == nil || !f.Inline.Mitigated {
			t.Fatalf("unmitigated concurrent flow: %+v", f.Inline)
		}
	}
	if gets, puts := gw.PoolStats(); gets != puts || gets < n {
		t.Errorf("scanner pool: gets=%d puts=%d", gets, puts)
	}
}

// TestInlineClientDisconnectReleasesScanner: a client that dies mid-body
// must not leak its checked-out stream scanner or its goroutine. The
// deferred release runs when the body read fails, so the pool settles to
// gets == puts.
func TestInlineClientDisconnectReleasesScanner(t *testing.T) {
	w, gw, _, _ := newInlineWorld(t, InlineRedact)
	w.serveTLS("svc.example", echoHandler())
	rec := inlineRecord()

	before := runtime.NumGoroutine()
	const drops = 8
	for i := 0; i < drops; i++ {
		conn, err := net.Dial("tcp", w.proxy.Addr())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "CONNECT svc.example:443 HTTP/1.1\r\nHost: svc.example:443\r\n\r\n")
		br := bufio.NewReader(conn)
		if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, "200") {
			t.Fatalf("CONNECT: %q %v", line, err)
		}
		br.ReadString('\n') //nolint:errcheck
		tlsConn := tls.Client(conn, &tls.Config{RootCAs: w.proxyCA.Pool(), ServerName: "svc.example"})
		if err := tlsConn.Handshake(); err != nil {
			t.Fatal(err)
		}
		// Promise a large body, deliver a fragment (ending mid-needle),
		// then vanish.
		partial := "email=" + rec.Email[:10]
		fmt.Fprintf(tlsConn, "POST /drop HTTP/1.1\r\nHost: svc.example\r\nContent-Length: 1048576\r\n\r\n%s", partial)
		tlsConn.Close()
		conn.Close()
	}

	// The proxy notices each disconnect on its next body read; poll until
	// every checkout has been returned.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gets, puts := gw.PoolStats()
		if gets == puts && gets >= drops {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scanner pool did not settle: gets=%d puts=%d", gets, puts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Goroutines settle back near the baseline (no per-drop leak).
	deadline = time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestParseInlineAction pins the flag grammar.
func TestParseInlineAction(t *testing.T) {
	for in, want := range map[string]InlineAction{
		"": InlineOff, "log": InlineLog, "REDACT": InlineRedact, " block ": InlineBlock,
	} {
		got, err := ParseInlineAction(in)
		if err != nil || got != want {
			t.Errorf("ParseInlineAction(%q) = %q, %v", in, got, err)
		}
	}
	if _, err := ParseInlineAction("drop"); err == nil {
		t.Error("unknown action accepted")
	}
}

// TestNewInlineDisabled: nil record or the off action yield a nil gateway,
// and a nil gateway's methods are safe no-ops (the proxy calls them
// unguarded).
func TestNewInlineDisabled(t *testing.T) {
	if NewInline(nil, InlineBlock, nil) != nil {
		t.Error("nil record produced a gateway")
	}
	if NewInline(inlineRecord(), InlineOff, nil) != nil {
		t.Error("off action produced a gateway")
	}
	var g *Inline
	if g.Action() != InlineOff {
		t.Error("nil gateway action")
	}
	insp := g.begin()
	rc := insp.tee(io.NopCloser(strings.NewReader("x")))
	if rc == nil {
		t.Fatal("nil inspection dropped the body")
	}
	iv, u, b := insp.finish("https://x/", nil, []byte("y"))
	if iv != nil || u != "https://x/" || string(b) != "y" {
		t.Error("nil inspection modified the flow")
	}
	insp.release()
}
