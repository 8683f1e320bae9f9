package proxy

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/pii"
	"appvsweb/internal/ws"
)

// maxWSFramePayload caps a single relayed frame; larger frames kill the
// session (a simulated client never sends them, a fuzzer might).
const maxWSFramePayload = 4 << 20

// wsBufPool recycles frame payload buffers across relay sessions so the
// steady-state pump does no per-frame allocation.
var wsBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 32<<10)
		return &b
	},
}

// serveWSTunnel relays a WebSocket session detected inside a CONNECT
// tunnel: the upgrade request is forwarded to the origin verbatim, the 101
// is relayed back, and then both directions pump raw frames. Client→server
// data frames are teed through the inline gateway's stream scanner, so
// log/redact/block verdicts apply mid-socket (docs/protocols.md); the
// server→client direction is relayed without scanning.
//
// One capture.Flow records the whole socket: the handshake, the
// concatenated upstream payloads as the request body (post-mitigation,
// capped at MaxBodyBytes), and frame-level counts/hits under Flow.WS.
func (p *Proxy) serveWSTunnel(clientConn net.Conn, br *bufio.Reader, r *http.Request, tunnelHost string) {
	start := p.cfg.Now()
	reqHost, absURL := tunnelTarget(r, tunnelHost, "wss://")
	p.metrics.wsConns.Inc()

	fail := func(err error) {
		f := p.newFlow(start, capture.WS, r, reqHost, absURL, nil)
		f.Status = http.StatusBadGateway
		f.ResponseHeaders = map[string]string{"X-Proxy-Error": err.Error()}
		f.BytesDown, _ = writeSimpleResponse(clientConn, http.StatusBadGateway, nil, nil)
		p.metrics.upstreamErrors.Inc()
		p.record(f)
	}

	up, err := p.dialOriginTLS(r.Context(), reqHost)
	if err != nil {
		fail(err)
		return
	}
	defer up.Close()
	if err := r.Write(up); err != nil {
		fail(fmt.Errorf("forward upgrade: %w", err))
		return
	}
	upBr := newTunnelReader(up)
	defer putTunnelReader(upBr)
	resp, err := http.ReadResponse(upBr, r)
	if err != nil {
		fail(fmt.Errorf("read upgrade response: %w", err))
		return
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		// The origin refused the upgrade: relay its answer as a normal
		// exchange and end the tunnel (the client's framing expectations
		// are void anyway).
		respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		f := p.newFlow(start, capture.HTTPS, r, reqHost, "https://"+reqHost+r.RequestURI, nil)
		f.Status = resp.StatusCode
		f.ResponseSize = int64(len(respBody))
		f.ResponseHeaders = flatten(resp.Header)
		f.BytesDown, _ = writeSimpleResponse(clientConn, resp.StatusCode, resp.Header, respBody)
		p.record(f)
		return
	}
	resp.Body.Close()
	hsDown, err := relay101(clientConn, resp)
	if err != nil {
		return
	}

	insp := p.cfg.Inline.begin()
	defer insp.release()
	rl := &wsRelay{p: p, insp: insp, host: reqHost, maxBody: p.cfg.MaxBodyBytes}

	downDone := make(chan struct{})
	go func() {
		defer close(downDone)
		rl.pumpDown(upBr, clientConn, up)
	}()
	rl.pumpUp(br, up, clientConn)
	// Give the origin a moment to echo the close handshake to the client,
	// then tear the upstream down to unblock the other pump. closing stops
	// the down pump from re-arming its (much longer) idle deadline.
	rl.closing.Store(true)
	up.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // TCP conns accept deadlines
	<-downDone
	if rl.blocked {
		// Both pumps have exited, so this goroutine is the sole writer:
		// refuse the rest of the socket with a policy-violation close.
		ws.WriteFrame(clientConn, ws.Frame{ //nolint:errcheck // client teardown is not an error
			FIN:     true,
			Opcode:  ws.OpClose,
			Payload: ws.ClosePayload(ws.ClosePolicyViolation, "blocked by inline PII gateway"),
		})
	}

	p.metrics.wsFramesUp.Add(rl.upFrames)
	p.metrics.wsFramesDown.Add(rl.downFrames)
	p.metrics.wsBytes.Add(rl.upPayload + rl.downPayload)

	// The handshake request has no body, so newFlow's BytesUp is just the
	// upgrade's wire size; the relayed frames are added on top, and the
	// captured payload rides in RequestBody without re-entering the size.
	f := p.newFlow(start, capture.WS, r, reqHost, absURL, nil)
	f.RequestBody = string(rl.body)
	f.Status = http.StatusSwitchingProtocols
	f.ResponseHeaders = flatten(resp.Header)
	f.ResponseSize = rl.downPayload
	f.BytesUp += rl.upWire
	f.BytesDown = hsDown + rl.downWire
	f.WS = &capture.WSInfo{
		FramesUp:     rl.upFrames,
		FramesDown:   rl.downFrames,
		MessagesUp:   rl.upMessages,
		MessagesDown: rl.downMessages,
		CloseCode:    rl.closeCode,
		Blocked:      rl.blocked,
		Hits:         rl.hits,
	}
	iv := insp.socketVerdict(absURL, r.Header, rl.mitigated || rl.blocked)
	if iv != nil {
		f.Inline = iv
		f.Rewritten = rl.mitigated // frames actually rewritten in flight
		p.traceInlineVerdict(reqHost, iv)
	}
	p.record(f)
}

// dialOriginTLS opens the upstream TLS connection for a relayed socket.
func (p *Proxy) dialOriginTLS(ctx context.Context, host string) (*tls.Conn, error) {
	raw, err := DialContext(p.cfg.Resolver)(ctx, "tcp", net.JoinHostPort(host, "443"))
	if err != nil {
		return nil, err
	}
	tc := tls.Client(raw, &tls.Config{
		RootCAs:    p.cfg.OriginPool,
		ServerName: host,
	})
	tc.SetDeadline(time.Now().Add(p.cfg.HandshakeTimeout)) //nolint:errcheck // TCP conns accept deadlines
	if err := tc.HandshakeContext(ctx); err != nil {
		raw.Close()
		return nil, fmt.Errorf("origin tls: %w", err)
	}
	tc.SetDeadline(time.Time{}) //nolint:errcheck // TCP conns accept deadlines
	return tc, nil
}

// relay101 writes the origin's 101 Switching Protocols verbatim (sorted
// headers, no Content-Length — the socket follows immediately).
func relay101(w io.Writer, resp *http.Response) (int64, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", resp.StatusCode, http.StatusText(resp.StatusCode))
	resp.Header.Write(&b) //nolint:errcheck // bytes.Buffer cannot fail
	b.WriteString("\r\n")
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

// wsRelay is the per-socket relay state. The up-pump fields are owned by
// the goroutine running pumpUp, the down-pump fields by pumpDown; the
// orchestrator reads both only after the pumps have exited.
type wsRelay struct {
	p       *Proxy
	insp    *inlineInspection
	host    string
	maxBody int64
	closing atomic.Bool // set by the orchestrator during teardown

	// client → origin (scanned)
	upFrames   int64
	upMessages int64
	upPayload  int64 // pre-mitigation payload bytes == scanner stream offset
	upWire     int64
	dataFrames int
	body       []byte
	hits       []capture.WSFrameHit
	mitigated  bool
	blocked    bool
	closeCode  int

	// origin → client (relayed blind)
	downFrames   int64
	downMessages int64
	downPayload  int64
	downWire     int64
}

// pumpUp relays client frames toward dst, feeding every data payload
// through the inline scanner and applying the gateway action per frame.
// clientConn carries the idle read deadline; nil (benchmarks) skips
// deadline arming. Returns on any read/write error, a client close frame,
// or a block verdict.
func (rl *wsRelay) pumpUp(br *bufio.Reader, dst io.Writer, clientConn net.Conn) {
	bufp := wsBufPool.Get().(*[]byte)
	outp := wsBufPool.Get().(*[]byte)
	buf, out := *bufp, *outp
	defer func() {
		*bufp, *outp = buf, out
		wsBufPool.Put(bufp)
		wsBufPool.Put(outp)
	}()
	idle := rl.p.cfg.IdleTimeout
	for {
		if clientConn != nil && idle > 0 {
			if err := clientConn.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return
			}
		}
		f, b, err := ws.ReadFrame(br, buf, maxWSFramePayload)
		if cap(b) > cap(buf) {
			buf = b[:cap(b)]
		}
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				rl.p.recordTunnelIdle(rl.host, int(rl.upMessages))
			}
			return
		}
		rl.upFrames++
		if f.IsControl() {
			if f.Opcode == ws.OpClose {
				rl.closeCode, _ = ws.ParseClose(f.Payload)
			}
			out = ws.AppendFrame(out[:0], f)
			if _, err := dst.Write(out); err != nil {
				return
			}
			rl.upWire += int64(len(out))
			if f.Opcode == ws.OpClose {
				return
			}
			continue
		}
		if f.FIN {
			rl.upMessages++
		}
		frameIdx := rl.dataFrames
		rl.dataFrames++
		payload := f.Payload
		origLen := int64(len(payload))
		if rl.insp != nil {
			g := rl.insp.g
			before := len(rl.insp.ss.Matches())
			rl.insp.ss.Write(payload) //nolint:errcheck // never fails
			g.metrics.bytes.Add(origLen)
			fresh := rl.insp.ss.Matches()[before:]
			var freshTypes pii.TypeSet
			for _, sm := range fresh {
				freshTypes = freshTypes.Add(sm.Type)
				rl.hits = append(rl.hits, capture.WSFrameHit{
					Frame: frameIdx,
					Type:  sm.Type.Abbrev(),
					Start: sm.Start,
					End:   sm.End,
				})
			}
			if len(fresh) > 0 {
				switch g.action {
				case InlineBlock:
					// Refuse the rest of the socket: close the origin leg
					// here (this pump owns writes to dst); the client gets
					// its close frame from the orchestrator once the down
					// pump has stopped writing.
					rl.blocked = true
					out = ws.AppendFrame(out[:0], ws.Frame{
						FIN:     true,
						Opcode:  ws.OpClose,
						Masked:  true,
						MaskKey: f.MaskKey,
						Payload: ws.ClosePayload(ws.ClosePolicyViolation, "blocked by inline PII gateway"),
					})
					dst.Write(out) //nolint:errcheck // origin teardown follows regardless
					return
				case InlineRedact:
					// Frame-local rewrite: the scanner's state is global to
					// the stream, but replacement happens within the frame
					// that completed the match (a needle split across
					// frames is detected yet not rewritten — see
					// docs/protocols.md).
					red, hit := g.redactor.Redact(string(payload), freshTypes)
					if !hit.Empty() {
						payload = []byte(red)
						rl.mitigated = true
					}
				}
			}
		}
		rl.upPayload += origLen
		if room := rl.maxBody - int64(len(rl.body)); room > 0 {
			chunk := payload
			if int64(len(chunk)) > room {
				chunk = chunk[:room]
			}
			rl.body = append(rl.body, chunk...)
		}
		ff := f
		ff.Payload = payload
		// Client→server frames must stay masked (RFC 6455 §5.1); reusing
		// the client's key keeps the relay deterministic.
		ff.Masked = true
		out = ws.AppendFrame(out[:0], ff)
		if _, err := dst.Write(out); err != nil {
			return
		}
		rl.upWire += int64(len(out))
	}
}

// pumpDown relays origin frames to the client without scanning.
func (rl *wsRelay) pumpDown(br *bufio.Reader, dst io.Writer, originConn net.Conn) {
	bufp := wsBufPool.Get().(*[]byte)
	outp := wsBufPool.Get().(*[]byte)
	buf, out := *bufp, *outp
	defer func() {
		*bufp, *outp = buf, out
		wsBufPool.Put(bufp)
		wsBufPool.Put(outp)
	}()
	idle := rl.p.cfg.IdleTimeout
	for {
		if originConn != nil && idle > 0 && !rl.closing.Load() {
			if err := originConn.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return
			}
		}
		f, b, err := ws.ReadFrame(br, buf, maxWSFramePayload)
		if cap(b) > cap(buf) {
			buf = b[:cap(b)]
		}
		if err != nil {
			return
		}
		rl.downFrames++
		if f.IsData() {
			rl.downPayload += int64(len(f.Payload))
			if f.FIN {
				rl.downMessages++
			}
		}
		out = ws.AppendFrame(out[:0], f)
		if _, err := dst.Write(out); err != nil {
			return
		}
		rl.downWire += int64(len(out))
		if f.Opcode == ws.OpClose {
			return
		}
	}
}
