package pii

import (
	"strings"
	"testing"
)

func benchRecord() *Record {
	return &Record{
		Email: "jane.doe@example.com", Username: "janedoe42", Password: "correct-horse",
		FirstName: "Jane", LastName: "Doe", Phone: "6175551234",
		ZIP: "02115", Gender: "female", Birthday: "1988-04-01",
		Latitude: 42.3398, Longitude: -71.0892,
		IMEI: "490154203237518", AdID: "38400000-8cf0-11bd-b23e-10b96e40000d",
	}
}

// benchBody builds a request body carrying the record's email under one
// encoding, padded with realistic filler to a typical analytics-beacon size.
func benchBody(enc Encoding, rec *Record) string {
	filler := strings.Repeat(`{"event":"screen_view","ts":1459501200,"sdk":"3.2.1"},`, 20)
	encoded := rec.Email
	for _, e := range Encoders() {
		if e.Name == enc {
			encoded = e.Apply(rec.Email)
			break
		}
	}
	return `{"batch":[` + filler + `{"uid":"` + encoded + `"}]}`
}

// BenchmarkScanEncodings measures the full multi-encoding scan of one body
// section, one sub-benchmark per wire encoding the needle hides under.
func BenchmarkScanEncodings(b *testing.B) {
	rec := benchRecord()
	m := NewMatcher(rec)
	for _, e := range Encoders() {
		body := benchBody(e.Name, rec)
		b.Run(string(e.Name), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if ms := m.Scan("body", body); len(ms) == 0 && !e.OneWay {
					b.Fatalf("no match under %s", e.Name)
				}
			}
		})
	}
}

// BenchmarkScanClean measures the common case: a body carrying no PII at
// all, where every needle misses.
func BenchmarkScanClean(b *testing.B) {
	m := NewMatcher(benchRecord())
	body := benchBody(EncIdentity, &Record{Email: "nobody@else.invalid"})
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if ms := m.Scan("body", body); len(ms) != 0 {
			b.Fatalf("unexpected match: %v", ms)
		}
	}
}

// BenchmarkScanAll measures the per-flow entry point: URL, headers, and
// body sections scanned together, as analyzeFlows does per kept flow.
func BenchmarkScanAll(b *testing.B) {
	rec := benchRecord()
	m := NewMatcher(rec)
	sections := map[string]string{
		"url":     "https://tracker.example/v1/collect?adid=" + rec.AdID,
		"headers": "User-Agent: svc/3.2 (Android 6.0)\r\nX-Device: " + rec.IMEI,
		"body":    benchBody(EncBase64, rec),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ms := m.ScanAll(sections); len(ms) == 0 {
			b.Fatal("no match")
		}
	}
}

// BenchmarkScanManyNeedles is the acceptance benchmark for the
// Aho–Corasick engine: the full needle set of a realistic record (well
// over 50 needles) scanning one analytics-beacon body, engine vs the
// retained per-needle reference. The micro gate in bench_gates.json
// guards both sub-benchmarks.
func BenchmarkScanManyNeedles(b *testing.B) {
	rec := benchRecord()
	m := NewMatcher(rec)
	if n := m.NumNeedles(); n < 50 {
		b.Fatalf("needle count %d < 50; benchmark no longer meaningful", n)
	}
	bodies := map[string]string{
		"hit":   benchBody(EncBase64, rec),
		"clean": benchBody(EncIdentity, &Record{Email: "nobody@else.invalid"}),
	}
	for _, kind := range []string{"hit", "clean"} {
		body := bodies[kind]
		b.Run("engine/"+kind, func(b *testing.B) {
			sc := m.NewScanner()
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				sc.Scan("body", body)
			}
		})
		b.Run("naive/"+kind, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				m.scanNaive("body", body)
			}
		})
	}
}

// BenchmarkNewMatcher measures needle precompilation — paid once per
// identity in a campaign, not per flow.
func BenchmarkNewMatcher(b *testing.B) {
	rec := benchRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m := NewMatcher(rec); m.NumNeedles() == 0 {
			b.Fatal("no needles")
		}
	}
}

// BenchmarkNewRedactor measures redactor construction, paid per record by
// the inline gateway's redact action and by the protection mode.
func BenchmarkNewRedactor(b *testing.B) {
	rec := benchRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := NewRedactor(rec); len(r.needles) == 0 {
			b.Fatal("no needles")
		}
	}
}

// BenchmarkStreamScan measures the streaming scanner against the batch
// engine on the same content: whole-body single Write (the pure DFA-walk
// overhead of the streaming bookkeeping) and 4 KiB chunked Writes (the
// relay shape the proxy's inline gateway feeds it).
func BenchmarkStreamScan(b *testing.B) {
	rec := benchRecord()
	m := NewMatcher(rec)
	body := []byte(benchBody(EncBase64, rec))
	for _, chunk := range []int{0, 4096} {
		name := "whole"
		if chunk > 0 {
			name = "chunk4k"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			ss := m.NewStreamScanner("body")
			for i := 0; i < b.N; i++ {
				ss.Reset("body")
				if chunk == 0 {
					ss.Write(body) //nolint:errcheck
				} else {
					for off := 0; off < len(body); off += chunk {
						end := off + chunk
						if end > len(body) {
							end = len(body)
						}
						ss.Write(body[off:end]) //nolint:errcheck
					}
				}
				if len(ss.Matches()) == 0 {
					b.Fatal("no match")
				}
			}
		})
	}
}
