// Command avwws is the WebSocket interop harness for the proxy's frame
// relay (docs/protocols.md). It has three modes that together script the
// CI ws-interop job end to end without any external tooling:
//
//   - echo: serve a TLS WebSocket echo origin on loopback, minting its
//     certificate from a fresh origin CA written out as PEM so the proxy
//     (-origin-ca) can trust it. A plain HTTP request gets its body
//     echoed, so curl can probe the proxy's h1 and h2 paths too.
//   - probe: dial a wss:// URL through a forward proxy, send one message,
//     and print the echo; -expect/-reject assert on the round-tripped
//     text, so a redacting proxy is verified by expecting the redaction
//     mark and rejecting the planted PII.
//   - genpii: emit the deterministic ground-truth PII record the probe
//     plants and avwproxy's -pii flag detects.
//
// A full interop pass:
//
//	avwws -mode genpii -out record.json
//	avwws -mode echo -addr 127.0.0.1:8443 -host echo.test -ca-out origin-ca.pem &
//	avwproxy -addr 127.0.0.1:18080 -resolve echo.test=127.0.0.1:8443 \
//	    -origin-ca origin-ca.pem -inline redact -pii record.json &
//	avwws -mode probe -url wss://echo.test/echo -proxy 127.0.0.1:18080 \
//	    -cacert avwproxy-ca.pem -pii record.json \
//	    -expect __redacted__ -reject jane.doe.interop@example.com
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"appvsweb/internal/pii"
	"appvsweb/internal/proxy"
	"appvsweb/internal/ws"
)

func main() {
	var (
		mode   = flag.String("mode", "", "echo | probe | genpii")
		addr   = flag.String("addr", "127.0.0.1:8443", "echo: TLS listen address")
		host   = flag.String("host", "echo.test", "echo: hostname the minted certificate covers")
		caOut  = flag.String("ca-out", "origin-ca.pem", "echo: path to write the origin CA certificate")
		rawURL = flag.String("url", "", "probe: wss:// URL to dial")
		pxAddr = flag.String("proxy", "", "probe: forward proxy host:port (empty dials direct)")
		cacert = flag.String("cacert", "", "probe: PEM roots to trust (the proxy's interception CA)")
		piiIn  = flag.String("pii", "", "probe: ground-truth record whose email rides in the message")
		send   = flag.String("send", "", "probe: message text (overrides the -pii template)")
		expect = flag.String("expect", "", "probe: fail unless the echo contains this substring")
		reject = flag.String("reject", "", "probe: fail if the echo contains this substring")
		out    = flag.String("out", "", "genpii: output path (empty writes stdout)")
	)
	flag.Parse()

	var err error
	switch *mode {
	case "echo":
		err = runEcho(*addr, *host, *caOut)
	case "probe":
		err = runProbe(*rawURL, *pxAddr, *cacert, *piiIn, *send, *expect, *reject)
	case "genpii":
		err = runGenPII(*out)
	default:
		err = fmt.Errorf("unknown -mode %q (want echo, probe, or genpii)", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "avwws:", err)
		os.Exit(1)
	}
}

// runEcho serves a TLS WebSocket echo origin until killed. Every upgraded
// socket echoes messages verbatim, and every other request its body, so
// whatever the proxy delivers upstream comes straight back — the probe
// reads the proxy's rewrite off the echo.
func runEcho(addr, host, caOut string) error {
	ca, err := proxy.NewCA("avwws origin CA")
	if err != nil {
		return err
	}
	if err := os.WriteFile(caOut, ca.CertPEM(), 0o644); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		TLSConfig:         &tls.Config{GetCertificate: ca.GetCertificate(host)},
		ReadHeaderTimeout: 10 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !ws.IsUpgrade(r) {
				io.Copy(w, r.Body) //nolint:errcheck // client teardown is not an error
				return
			}
			c, err := ws.Upgrade(w, r)
			if err != nil {
				return
			}
			defer c.NetConn().Close()
			for {
				op, msg, err := c.ReadMessage()
				if err != nil {
					return
				}
				if err := c.WriteMessage(op, msg); err != nil {
					return
				}
			}
		}),
	}
	fmt.Printf("avwws: echo origin on wss://%s (%s), ca %s\n", addr, host, caOut)
	return srv.ServeTLS(ln, "", "")
}

// runProbe dials, sends one message, and asserts on the echo.
func runProbe(rawURL, pxAddr, cacert, piiIn, send, expect, reject string) error {
	if rawURL == "" {
		return fmt.Errorf("probe needs -url")
	}
	msg := send
	if msg == "" {
		rec, err := loadRecord(piiIn)
		if err != nil {
			return err
		}
		msg = fmt.Sprintf(`{"from":%q,"msg":"reach me at %s"}`, rec.Username, rec.Email)
	}
	tlsCfg := &tls.Config{}
	if cacert != "" {
		pem, err := os.ReadFile(cacert)
		if err != nil {
			return err
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return fmt.Errorf("no certificates in %s", cacert)
		}
		tlsCfg.RootCAs = pool
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := ws.Dial(ctx, rawURL, ws.DialOptions{
		ProxyAddr: pxAddr,
		TLSConfig: tlsCfg,
		Timeout:   15 * time.Second,
	})
	if err != nil {
		return fmt.Errorf("dial %s: %w", rawURL, err)
	}
	defer c.NetConn().Close()
	if err := c.WriteMessage(ws.OpText, []byte(msg)); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	c.NetConn().SetReadDeadline(time.Now().Add(15 * time.Second)) //nolint:errcheck // TCP conns accept deadlines
	_, echo, err := c.ReadMessage()
	if err != nil {
		return fmt.Errorf("read echo: %w", err)
	}
	fmt.Printf("avwws: sent %q\navwws: echo %q\n", msg, echo)
	c.Close(ws.CloseNormal, "probe done") //nolint:errcheck // best-effort goodbye
	if expect != "" && !strings.Contains(string(echo), expect) {
		return fmt.Errorf("echo does not contain %q", expect)
	}
	if reject != "" && strings.Contains(string(echo), reject) {
		return fmt.Errorf("echo still contains %q", reject)
	}
	return nil
}

// interopRecord is the fixed ground truth shared by genpii and the probe's
// default message; deterministic so the proxy and the probe agree without
// coordination beyond the record file.
func interopRecord() *pii.Record {
	return &pii.Record{
		Username:  "interop-probe",
		Email:     "jane.doe.interop@example.com",
		FirstName: "Jane",
		LastName:  "Doe",
		Phone:     "6175550142",
		ZIP:       "02115",
		IMEI:      "356938035643809",
	}
}

func runGenPII(out string) error {
	data, err := json.MarshalIndent(interopRecord(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// loadRecord reads a ground-truth record, defaulting to the built-in
// interop record when no path is given.
func loadRecord(path string) (*pii.Record, error) {
	if path == "" {
		return interopRecord(), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec pii.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rec, nil
}
