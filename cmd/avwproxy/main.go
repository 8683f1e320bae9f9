// Command avwproxy runs the measurement proxy standalone — the
// Meddle + mitmproxy substrate by itself. It listens as an HTTP(S) forward
// proxy, mints leaf certificates from a fresh interception CA (written out
// as PEM so a client can trust it), and streams every captured flow as
// JSONL.
//
// With -metrics-addr set it also serves the internal/obs observability
// surface on a separate listener: live proxy counters (flows, bytes,
// tunnel failures) as Prometheus text at /debug/metrics, their windowed
// rates at /debug/metrics/series, and the runtime profiler at
// /debug/pprof/.
//
// Usage:
//
//	avwproxy -ca ca.pem -flows flows.jsonl [-metrics-addr 127.0.0.1:8789]
//	curl -x http://127.0.0.1:<port> --cacert ca.pem https://example.com/
//	curl http://127.0.0.1:8789/debug/metrics
//
// For interop tests against a local TLS origin (see the ws-interop CI
// job), -addr pins the listen port, -resolve maps a hostname to the
// origin's loopback address, and -origin-ca trusts the origin's root:
//
//	avwproxy -addr 127.0.0.1:18080 -resolve echo.test=127.0.0.1:8443 \
//	    -origin-ca origin-ca.pem -inline redact -pii record.json
package main

import (
	"context"
	"crypto/x509"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/obs"
	"appvsweb/internal/obs/trace"
	"appvsweb/internal/pii"
	"appvsweb/internal/proxy"
)

// logger emits structured JSON logs; the trace ID correlates every line of
// one avwproxy run (and its trace events, with -trace).
var logger = obs.NopLogger()

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:0", "proxy listen address")
		caOut       = flag.String("ca", "avwproxy-ca.pem", "path to write the interception CA certificate")
		originCA    = flag.String("origin-ca", "", "PEM bundle of extra roots to trust when dialing origins (a test origin's CA)")
		flowOut     = flag.String("flows", "flows.jsonl", "path for the captured flow log (JSONL)")
		metricsAddr = flag.String("metrics-addr", "", "serve /debug/metrics and /debug/pprof/ on this address")
		tracePath   = flag.String("trace", "", "stream trace events (tunnel failures, inline verdicts) to this JSONL file")
		inline      = flag.String("inline", "", "inline PII gateway action: log, redact, or block (requires -pii)")
		piiPath     = flag.String("pii", "", "ground-truth PII record (JSON) the inline gateway detects")
		idleTimeout = flag.Duration("idle-timeout", 0, "reap established tunnels after this much client silence (0 = 5m default, negative = never)")
	)
	resolves := make(map[string]string)
	flag.Func("resolve", "pin host=addr instead of DNS (repeatable, e.g. -resolve echo.test=127.0.0.1:8443)", func(v string) error {
		host, target, ok := strings.Cut(v, "=")
		if !ok || host == "" || target == "" {
			return fmt.Errorf("want host=addr, got %q", v)
		}
		resolves[strings.ToLower(host)] = target
		return nil
	})
	flag.Parse()

	var tracer *trace.Tracer
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			logger = obs.NewLogger(os.Stderr, "avwproxy", "", slog.LevelInfo)
			fatal("open trace file", err)
		}
		traceFile = f
		tracer = trace.New(trace.Options{W: f})
	}
	logger = obs.NewLogger(os.Stderr, "avwproxy", tracer.TraceID(), slog.LevelInfo)

	ca, err := proxy.NewCA("avwproxy interception CA")
	if err != nil {
		fatal("generate CA", err)
	}
	if err := os.WriteFile(*caOut, ca.CertPEM(), 0o644); err != nil {
		fatal("write CA", err)
	}

	f, err := os.Create(*flowOut)
	if err != nil {
		fatal("open flow log", err)
	}
	defer f.Close()
	sink := capture.NewJSONLSink(f)

	gateway, err := loadInlineGateway(*inline, *piiPath)
	if err != nil {
		fatal("inline gateway", err)
	}

	var originPool *x509.CertPool
	if *originCA != "" {
		pem, err := os.ReadFile(*originCA)
		if err != nil {
			fatal("read origin CA", err)
		}
		originPool, err = x509.SystemCertPool()
		if err != nil {
			originPool = x509.NewCertPool()
		}
		if !originPool.AppendCertsFromPEM(pem) {
			fatal("origin CA", fmt.Errorf("no certificates in %s", *originCA))
		}
	}

	p, err := proxy.New(proxy.Config{
		CA:          ca,
		Resolver:    buildResolver(resolves),
		OriginPool:  originPool,
		Sink:        sink,
		ClientID:    "avwproxy",
		Tracer:      tracer,
		Inline:      gateway,
		IdleTimeout: *idleTimeout,
	})
	if err != nil {
		fatal("configure proxy", err)
	}
	if gateway != nil {
		logger.Info("inline gateway", "action", string(gateway.Action()), "pii", *piiPath)
	}
	if err := p.StartOn(*addr); err != nil {
		fatal("start proxy", err)
	}
	logger.Info("listening", "addr", p.Addr(), "ca", *caOut, "flows", *flowOut,
		"example", fmt.Sprintf("curl -x http://%s --cacert %s https://example.com/", p.Addr(), *caOut))
	if *metricsAddr != "" {
		msrv := &http.Server{
			Addr:              *metricsAddr,
			Handler:           obs.DebugMux(obs.Default),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics server", "err", err)
			}
		}()
		// Keep /debug/metrics/series and the runtime.* gauges live for
		// avwtop pointed at the proxy.
		go obs.NewRecorder(obs.Default, obs.RecorderOptions{Logger: logger}).Run(context.Background())
		logger.Info("metrics", "url", fmt.Sprintf("http://%s/debug/metrics", *metricsAddr))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info("shutting down", "signal", s.String())
	_ = p.Close()
	if err := sink.Err(); err != nil {
		fatal("flow log", err)
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fatal("trace write", err)
		}
		if err := traceFile.Close(); err != nil {
			fatal("trace file", err)
		}
	}
}

// buildResolver returns the proxy's name resolution: -resolve pins layered
// over the system resolver, so a test origin on loopback coexists with real
// DNS for everything else.
func buildResolver(pins map[string]string) proxy.Resolver {
	if len(pins) == 0 {
		return proxy.SystemResolver{}
	}
	m := proxy.NewMapResolver()
	for host, addr := range pins {
		m.Register(host, "443", addr)
		m.Register(host, "80", addr)
	}
	return pinResolver{pins: m}
}

// pinResolver consults the -resolve table first and falls through to the
// operating system for unpinned hosts.
type pinResolver struct {
	pins *proxy.MapResolver
}

func (r pinResolver) Resolve(host, port string) (string, error) {
	if addr, err := r.pins.Resolve(host, port); err == nil {
		return addr, nil
	}
	return proxy.SystemResolver{}.Resolve(host, port)
}

// loadInlineGateway builds the streaming detect-and-mitigate gateway from
// the -inline and -pii flags (both or neither).
func loadInlineGateway(action, piiPath string) (*proxy.Inline, error) {
	if action == "" && piiPath == "" {
		return nil, nil
	}
	a, err := proxy.ParseInlineAction(action)
	if err != nil {
		return nil, err
	}
	if a == proxy.InlineOff {
		return nil, fmt.Errorf("-pii %s given without -inline", piiPath)
	}
	if piiPath == "" {
		return nil, fmt.Errorf("-inline %s requires -pii with the ground-truth record", action)
	}
	data, err := os.ReadFile(piiPath)
	if err != nil {
		return nil, err
	}
	var rec pii.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", piiPath, err)
	}
	return proxy.NewInline(&rec, a, obs.Default), nil
}

// fatal logs a startup/shutdown failure as structured JSON and exits
// non-zero so supervisors notice.
func fatal(msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}
