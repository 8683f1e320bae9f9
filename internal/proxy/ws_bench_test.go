package proxy

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"appvsweb/internal/capture"
	"appvsweb/internal/pii"
	"appvsweb/internal/ws"
)

// benchWSStream encodes a masked client frame stream: frames chat-style
// messages, optionally one mid-stream carrying the record's email, closed
// with a normal-closure frame. Returns the wire bytes and the total data
// payload size (for SetBytes).
func benchWSStream(rec *pii.Record, frames, payloadSize int, hit bool) ([]byte, int64) {
	filler := `{"from":"user-1","msg":"on my way","ts":1459501200}`
	var msg strings.Builder
	for msg.Len() < payloadSize {
		msg.WriteString(filler)
	}
	var stream []byte
	var payload int64
	key := [4]byte{0x12, 0x34, 0x56, 0x78}
	for i := 0; i < frames; i++ {
		body := msg.String()
		if hit && i == frames/2 {
			body = `{"from":"user-1","msg":"reach me at ` + rec.Email + `"}`
		}
		stream = ws.AppendFrame(stream, ws.Frame{
			FIN: true, Opcode: ws.OpText, Masked: true, MaskKey: key,
			Payload: []byte(body),
		})
		payload += int64(len(body))
	}
	stream = ws.AppendFrame(stream, ws.Frame{
		FIN: true, Opcode: ws.OpClose, Masked: true, MaskKey: key,
		Payload: ws.ClosePayload(ws.CloseNormal, "done"),
	})
	return stream, payload
}

// benchProxy builds a proxy whose flows are counted, not retained, so the
// sink stays O(1) across iterations.
func benchProxy(b *testing.B) *Proxy {
	b.Helper()
	p, err := New(Config{Resolver: NewMapResolver(), Sink: &capture.CountingSink{}})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkWSRelay is the bench-gated cost model for the WebSocket frame
// relay (docs/protocols.md): the client→origin pump over an in-memory
// frame stream — the exact read/scan/re-frame/write path serveWSTunnel's
// up pump runs — with the inline scanner off versus on. In-memory by
// design, like BenchmarkInlineThroughput: no sockets, no TLS, just the
// per-frame work, so the gate isolates the scanner's marginal cost.
func BenchmarkWSRelay(b *testing.B) {
	rec := inlineRecord()
	px := benchProxy(b)
	const frames, payloadSize = 64, 1024
	cases := []struct {
		name string
		gw   *Inline
		hit  bool
	}{
		{name: "off", gw: nil, hit: false},
		{name: "log-clean", gw: NewInline(rec, InlineLog, nil), hit: false},
		{name: "log-hit", gw: NewInline(rec, InlineLog, nil), hit: true},
		{name: "redact-hit", gw: NewInline(rec, InlineRedact, nil), hit: true},
	}
	for _, tc := range cases {
		stream, payload := benchWSStream(rec, frames, payloadSize, tc.hit)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(payload)
			rd := bytes.NewReader(stream)
			br := bufio.NewReaderSize(rd, 8<<10)
			for i := 0; i < b.N; i++ {
				rd.Reset(stream)
				br.Reset(rd)
				insp := tc.gw.begin()
				rl := &wsRelay{p: px, insp: insp, host: "bench.example", maxBody: px.cfg.MaxBodyBytes}
				rl.pumpUp(br, io.Discard, nil)
				insp.release()
				if rl.upFrames != frames+1 {
					b.Fatalf("relayed %d frames, want %d", rl.upFrames, frames+1)
				}
				if tc.hit && len(rl.hits) == 0 {
					b.Fatal("planted PII not detected")
				}
				if !tc.hit && len(rl.hits) != 0 {
					b.Fatalf("phantom hits: %+v", rl.hits)
				}
			}
		})
	}
}

// noopRT answers every upstream exchange with an empty 204, so the h2
// bench times the interception path, not a loopback origin.
type noopRT struct{}

func (noopRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // in-memory body
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusNoContent,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{},
		Body:   http.NoBody,
	}, nil
}

// BenchmarkH2Intercept measures one multiplexed h2 stream through the h2
// adapter — body capture, inline lifecycle, flow recording — against a
// stubbed upstream, with the gateway off versus scanning.
func BenchmarkH2Intercept(b *testing.B) {
	rec := inlineRecord()
	const bodySize = 4 << 10
	cases := []struct {
		name string
		gw   *Inline
		hit  bool
	}{
		{name: "off", gw: nil, hit: false},
		{name: "log-clean", gw: NewInline(rec, InlineLog, nil), hit: false},
		{name: "log-hit", gw: NewInline(rec, InlineLog, nil), hit: true},
	}
	for _, tc := range cases {
		body := benchInlineBody(rec, bodySize, tc.hit)
		b.Run(tc.name, func(b *testing.B) {
			px := benchProxy(b)
			px.rt = noopRT{}
			px.cfg.Inline = tc.gw
			h2 := &h2TunnelHandler{p: px, tunnelHost: "api.bench.example"}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				r := httptest.NewRequest(http.MethodPost, "https://api.bench.example/v1/batch",
					bytes.NewReader(body))
				r.Header.Set("Content-Type", "application/json")
				w := httptest.NewRecorder()
				h2.ServeHTTP(w, r)
				if w.Code != http.StatusNoContent {
					b.Fatalf("status %d", w.Code)
				}
			}
		})
	}
}
