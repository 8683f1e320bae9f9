// Package capture defines the flow record — the unit of analysis for the
// whole study — along with in-memory and JSONL trace stores and the
// background-traffic filter of §3.2.
//
// A Flow is one HTTP request/response exchange observed at the measurement
// proxy. The simulated clients disable connection reuse, so one flow
// corresponds to one TCP connection, matching the paper's flow counting in
// Figure 1b.
package capture

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"
)

// Protocol distinguishes plaintext from intercepted-TLS exchanges.
type Protocol string

const (
	HTTP  Protocol = "http"
	HTTPS Protocol = "https"
	// H2 marks intercepted HTTPS exchanges carried as HTTP/2 streams; one
	// flow per stream.
	H2 Protocol = "h2"
	// WS marks intercepted WebSocket (wss) sessions; one flow per socket,
	// with frame-level detail in the WS field. RequestBody holds the
	// concatenated client→server data payloads (capped like HTTP bodies).
	WS Protocol = "wss"
)

// Flow is one captured request/response exchange.
type Flow struct {
	ID       int64     `json:"id"`
	Start    time.Time `json:"start"`
	Client   string    `json:"client"`   // device/session identifier
	Protocol Protocol  `json:"protocol"` // http or https
	Method   string    `json:"method"`
	Host     string    `json:"host"` // destination host (SNI / Host header)
	URL      string    `json:"url"`  // absolute request URL

	RequestHeaders  map[string]string `json:"request_headers,omitempty"`
	RequestBody     string            `json:"request_body,omitempty"`
	Status          int               `json:"status"`
	ResponseHeaders map[string]string `json:"response_headers,omitempty"`
	ResponseSize    int64             `json:"response_size"` // body bytes (not stored)

	BytesUp   int64 `json:"bytes_up"`
	BytesDown int64 `json:"bytes_down"`

	// Intercepted marks HTTPS flows whose plaintext was recovered by the
	// proxy. Non-intercepted TLS (certificate pinning) records metadata
	// only.
	Intercepted bool `json:"intercepted"`

	// Rewritten marks flows whose content the proxy's protection rewriter
	// modified before forwarding; the recorded content is what actually
	// reached the network.
	Rewritten bool `json:"rewritten,omitempty"`

	// Inline carries the inline gateway's verdict when the proxy ran in
	// detect-and-mitigate mode (docs/inline.md). Nil when the gateway was
	// off or the flow carried no ground-truth PII.
	Inline *InlineVerdict `json:"inline,omitempty"`

	// Trailers records request trailer fields received after the body
	// (h2 streams, or chunked HTTP/1.1 bodies that declare them).
	Trailers map[string]string `json:"trailers,omitempty"`
	// WS carries frame-level detail for WebSocket flows.
	WS *WSInfo `json:"ws,omitempty"`
}

// WSInfo summarizes one relayed WebSocket session: frame and message
// counts per direction, the close code observed from the client, and —
// when the inline gateway ran — which data frame each PII match completed
// in. Only the client→server direction is scanned (docs/protocols.md).
type WSInfo struct {
	FramesUp     int64 `json:"frames_up"`
	FramesDown   int64 `json:"frames_down"`
	MessagesUp   int64 `json:"messages_up"`
	MessagesDown int64 `json:"messages_down"`
	// CloseCode is the close status the client sent (0 if the socket died
	// without a close handshake).
	CloseCode int `json:"close_code,omitempty"`
	// Blocked marks sockets the inline gateway tore down mid-connection
	// (close code 1008 sent both ways).
	Blocked bool `json:"blocked,omitempty"`
	// Hits attributes inline scanner matches to data frames.
	Hits []WSFrameHit `json:"hits,omitempty"`
}

// WSFrameHit is one inline PII match attributed to the client→server data
// frame in which it completed (a needle split across frames is attributed
// to the frame carrying its last byte). Offsets are absolute positions in
// the concatenated pre-mitigation payload stream, matching the verdict's
// body evidence.
type WSFrameHit struct {
	Frame int    `json:"frame"` // 0-based data-frame index, client→server order
	Type  string `json:"type"`  // PII class abbreviation (Table 1 columns)
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// Clone returns a deep copy.
func (w *WSInfo) Clone() *WSInfo {
	if w == nil {
		return nil
	}
	c := *w
	c.Hits = append([]WSFrameHit(nil), w.Hits...)
	return &c
}

// InlineVerdict is the inline gateway's per-flow outcome: the mitigation
// action taken, the PII classes seen, and the match evidence (body
// occurrences carry absolute stream offsets, e.g.
// "E (Email) as base64 in body @12..56").
type InlineVerdict struct {
	Action   string   `json:"action"`             // log | redact | block
	Types    []string `json:"types,omitempty"`    // PII class abbreviations (Table 1 columns)
	Evidence []string `json:"evidence,omitempty"` // one line per match, stream offsets for body hits
	// Mitigated marks flows whose content was actually rewritten
	// (redact) or refused (block); log verdicts observe only.
	Mitigated bool `json:"mitigated,omitempty"`
}

// Clone returns a deep copy of the verdict.
func (v *InlineVerdict) Clone() *InlineVerdict {
	if v == nil {
		return nil
	}
	c := *v
	c.Types = append([]string(nil), v.Types...)
	c.Evidence = append([]string(nil), v.Evidence...)
	return &c
}

// Plaintext reports whether the flow's content travelled unencrypted and
// was therefore visible to on-path eavesdroppers — the paper's leak
// condition (1).
func (f *Flow) Plaintext() bool { return f.Protocol == HTTP }

// Header returns a request header (canonical lookup is case-insensitive).
func (f *Flow) Header(name string) string {
	if v, ok := f.RequestHeaders[name]; ok {
		return v
	}
	for k, v := range f.RequestHeaders {
		if strings.EqualFold(k, name) {
			return v
		}
	}
	return ""
}

// ContentType returns the request body's declared media type.
func (f *Flow) ContentType() string { return f.Header("Content-Type") }

// Cookie returns the request Cookie header.
func (f *Flow) Cookie() string { return f.Header("Cookie") }

// Sections splits the flow into the named content sections the PII matcher
// scans: the URL, the serialized request headers, and the request body.
func (f *Flow) Sections() map[string]string {
	var hdr strings.Builder
	keys := make([]string, 0, len(f.RequestHeaders))
	for k := range f.RequestHeaders {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&hdr, "%s: %s\r\n", k, f.RequestHeaders[k])
	}
	return map[string]string{
		"url":     f.URL,
		"headers": hdr.String(),
		"body":    f.RequestBody,
	}
}

// Path returns the URL path, or "" if the URL does not parse.
func (f *Flow) Path() string {
	u, err := url.Parse(f.URL)
	if err != nil {
		return ""
	}
	return u.Path
}

// Bytes returns total bytes carried by the flow in both directions.
func (f *Flow) Bytes() int64 { return f.BytesUp + f.BytesDown }

// Clone returns a deep copy of the flow.
func (f *Flow) Clone() *Flow {
	c := *f
	c.RequestHeaders = cloneMap(f.RequestHeaders)
	c.ResponseHeaders = cloneMap(f.ResponseHeaders)
	c.Inline = f.Inline.Clone()
	c.Trailers = cloneMap(f.Trailers)
	c.WS = f.WS.Clone()
	return &c
}

func cloneMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
