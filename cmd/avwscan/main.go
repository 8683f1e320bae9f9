// Command avwscan hunts for PII in any flow trace — the library's
// detection pipeline applied to traffic captured elsewhere. It accepts the
// JSONL traces this project writes or HTTP Archive (HAR) files exported
// from browser devtools or mitmproxy, takes the user's known PII values as
// flags (the controlled-experiment trick of §3.2: you know your own
// ground truth), and reports every flow carrying any of them under any
// supported encoding, with the §3.2 leak policy applied.
//
// Usage:
//
//	avwscan -trace flows.jsonl -email me@example.com -phone 6175551234
//	avwscan -trace session.har -username jdoe -password 'hunter2' \
//	        -first-party myservice.com
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"appvsweb/internal/capture"
	"appvsweb/internal/core"
	"appvsweb/internal/domains"
	"appvsweb/internal/easylist"
	"appvsweb/internal/obs"
	"appvsweb/internal/pii"
)

func main() {
	var (
		trace      = flag.String("trace", "", "flow trace: .jsonl (this project) or .har (devtools/mitmproxy)")
		email      = flag.String("email", "", "your email address")
		username   = flag.String("username", "", "your username")
		password   = flag.String("password", "", "your password")
		firstName  = flag.String("first-name", "", "your first name")
		lastName   = flag.String("last-name", "", "your last name")
		phone      = flag.String("phone", "", "your phone number (digits)")
		zip        = flag.String("zip", "", "your ZIP code")
		gender     = flag.String("gender", "", "your gender as entered in profiles")
		birthday   = flag.String("birthday", "", "your birthday (YYYY-MM-DD)")
		lat        = flag.Float64("lat", 0, "your latitude")
		lon        = flag.Float64("lon", 0, "your longitude")
		imei       = flag.String("imei", "", "device IMEI")
		adid       = flag.String("adid", "", "advertising identifier (AdID/IDFA)")
		firstParty = flag.String("first-party", "", "comma-separated first-party domains (credential exemption)")
	)
	flag.Parse()
	if *trace == "" {
		fatalf("-trace is required")
	}

	rec := &pii.Record{
		Email: *email, Username: *username, Password: *password,
		FirstName: *firstName, LastName: *lastName, Phone: *phone,
		ZIP: *zip, Gender: *gender, Birthday: *birthday,
		Latitude: *lat, Longitude: *lon, IMEI: *imei, AdID: *adid,
	}
	if len(rec.Values()) == 0 {
		fatalf("no PII values given; pass at least one of -email/-username/...")
	}

	flows, err := loadFlows(*trace)
	if err != nil {
		fatalf("%v", err)
	}

	list := easylist.Bundled()
	cat := domains.NewCategorizer(func(host string) (string, bool) {
		r, ok := list.MatchHostRule(host)
		if !ok {
			return "", false
		}
		return r.Raw, true
	})
	if *firstParty != "" {
		for _, d := range strings.Split(*firstParty, ",") {
			cat.RegisterFirstParty("you", strings.TrimSpace(d))
		}
	}

	det := &core.Detector{Matcher: pii.NewMatcher(rec)}
	var policy core.LeakPolicy
	leaks := 0
	for _, f := range flows {
		detection := det.Detect(f)
		if detection.Types.Empty() {
			continue
		}
		fcat := cat.Categorize("you", f.Host)
		leakTypes, clause := policy.Explain(f, detection.Types, fcat)
		if leakTypes.Empty() {
			fmt.Printf("  ok    %-40s %v (%s)\n", f.Host, detection.Types, clause)
			continue
		}
		leaks++
		transport := "https"
		if f.Plaintext() {
			transport = "PLAINTEXT"
		}
		fmt.Printf("  LEAK  %-40s %-14v %-18s %s\n", f.Host, leakTypes, fcat, transport)
		fmt.Printf("        %s %s\n", f.Method, truncate(f.URL, 100))
		fmt.Printf("        why: %s; evidence: %s\n", clause, pii.DescribeMatches(detection.Matches))
	}
	fmt.Printf("\n%d flows scanned, %d leak flows\n", len(flows), leaks)
	if leaks > 0 {
		os.Exit(1)
	}
}

func loadFlows(path string) ([]*capture.Flow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".har") {
		return capture.ReadHAR(f)
	}
	return capture.ReadJSONL(f)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// fatalf logs a fatal error as structured JSON on stderr (the report goes
// to stdout, so logs never corrupt piped output) and exits non-zero.
func fatalf(format string, args ...any) {
	obs.NewLogger(os.Stderr, "avwscan", "", slog.LevelInfo).
		Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
