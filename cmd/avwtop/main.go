// Command avwtop is a live terminal dashboard for any avw binary exposing
// /debug/metrics/series (avwserve, or avwrun/avwproxy with -metrics-addr).
// It polls the series view of the server's obs.Recorder and redraws one
// plain-ANSI frame per interval: request throughput and latency quantiles,
// artifact cache hit ratio, SSE subscribers, PII hit rates by wire
// encoding, and Go runtime health (goroutines, heap, GC). The rates are
// the recorder's own, over one of its windows.
//
// Usage:
//
//	avwtop                                  # watch http://127.0.0.1:8787
//	avwtop -url http://127.0.0.1:8790 -interval 2s -window 1m
//	avwtop -once                            # one plain frame, then exit
//	avwtop -once -min-rps 1                 # CI gate: exit 1 if idle
//	avwtop -csv load.csv                    # append one CSV row per frame
//
// Flags:
//
//	-url URL            base URL of the binary's debug surface; a
//	                    /debug/metrics[/series] URL works too
//	                    (default http://127.0.0.1:8787)
//	-interval duration  poll and redraw cadence (default 1s)
//	-window name        server rate window to show: 10s, 1m or 5m
//	                    (default 10s)
//	-once               print one frame without ANSI control codes as
//	                    soon as the series has rates (waiting at most
//	                    10s for a just-started recorder), and exit — the
//	                    mode CI and scripts consume
//	-min-rps n          with -once: exit 1 unless the request rate is at
//	                    least n (0 disables the gate)
//	-csv path           append one CSV row per frame (header written when
//	                    the file is empty); works in both modes
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"appvsweb/internal/obs"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8787", "base URL of the debug surface to poll")
		interval = flag.Duration("interval", time.Second, "poll and redraw cadence")
		window   = flag.String("window", "10s", "server rate window to show (10s, 1m, 5m)")
		once     = flag.Bool("once", false, "print one plain frame and exit")
		minRPS   = flag.Float64("min-rps", 0, "with -once: exit 1 unless request rate >= this")
		csvPath  = flag.String("csv", "", "append one CSV row per frame to this file")
	)
	flag.Parse()

	base, _, _ := strings.Cut(*url, "/debug/metrics")
	target := strings.TrimRight(base, "/") + "/debug/metrics/series"
	client := &http.Client{Timeout: 5 * time.Second}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "avwtop: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if info, err := f.Stat(); err == nil && info.Size() == 0 {
			fmt.Fprintln(f, csvHeader())
		}
		csv = f
	}

	if *once {
		os.Exit(runOnce(client, target, *window, *interval, *minRPS, csv))
	}
	runLive(client, target, *window, *interval, csv)
}

// onceWait bounds how long -once polls a recorder that does not yet hold
// the two ticks rates need (one tick per second at the binaries' default).
const onceWait = 10 * time.Second

// runOnce prints one plain frame once the series has rates, and gates on
// -min-rps.
func runOnce(client *http.Client, target, window string, poll time.Duration, minRPS float64, csv *os.File) int {
	var s obs.SeriesSnapshot
	for deadline := time.Now().Add(onceWait); ; time.Sleep(poll) {
		var err error
		if s, err = fetchSeries(client, target); err != nil {
			fmt.Fprintf(os.Stderr, "avwtop: %v\n", err)
			return 1
		}
		if s.Samples >= 2 {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "avwtop: no rates after %v: recorder holds %d tick(s)\n", onceWait, s.Samples)
			return 1
		}
	}
	st, err := computeStats(s, window)
	if err != nil {
		fmt.Fprintf(os.Stderr, "avwtop: %v\n", err)
		return 1
	}
	render(os.Stdout, target, st, false)
	if csv != nil {
		fmt.Fprintln(csv, csvRow(st))
	}
	if minRPS > 0 && st.RPS < minRPS {
		fmt.Fprintf(os.Stderr, "avwtop: measured %.2f req/s, want >= %.2f\n", st.RPS, minRPS)
		return 1
	}
	return 0
}

// runLive redraws until interrupted. Errors render in place of the frame
// and the loop keeps polling — a restarting server comes back.
func runLive(client *http.Client, target, window string, interval time.Duration, csv *os.File) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		s, err := fetchSeries(client, target)
		var st stats
		if err == nil {
			st, err = computeStats(s, window)
		}
		if err != nil {
			fmt.Printf("%savwtop — %s\n\n  %v\n", ansiClear, target, err)
		} else {
			fmt.Print(ansiClear)
			render(os.Stdout, target, st, true)
			if csv != nil {
				fmt.Fprintln(csv, csvRow(st))
			}
		}
		select {
		case <-sig:
			fmt.Println()
			return
		case <-t.C:
		}
	}
}
