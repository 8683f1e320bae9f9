package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeStream writes test2json output events, one per chunk, in order.
// A chunk is "pkg|text"; several chunks may make up one printed line.
func writeStream(t *testing.T, path string, chunks ...string) {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range chunks {
		pkg, text, _ := strings.Cut(c, "|")
		b, err := json.Marshal(event{Action: "output", Package: pkg, Output: text})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseStreamsReassemblesSplitLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	// test2json prints the name and the figures as separate events, and
	// another package's output may land in between.
	writeStream(t, path,
		"p|BenchmarkScan/engine-8 \t",
		"q|BenchmarkOther-8 \t     10\t       7 ns/op\n",
		"p|  278018\t      5093 ns/op\t     312 B/op\t       5 allocs/op\n",
		"p|PASS\n",
	)
	got, err := parseStreams([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"p/BenchmarkScan/engine": {NsPerOp: 5093, AllocsPerOp: 5},
		"q/BenchmarkOther":       {NsPerOp: 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
}

// TestParseStreamsResultColumns: ns/op and allocs/op are read whatever
// columns sit between them. The first row is BenchmarkAblationTLSResume's
// line from BENCH_macro.json, whose b.ReportMetric column once made its
// allocs parse as 0.
func TestParseStreamsResultColumns(t *testing.T) {
	for _, tc := range []struct {
		line string
		want Result
	}{
		{"BenchmarkAblationTLSResume/tunnel/resume-off-2   \t    1033\t   1519420 ns/op\t         0 resumed/op\t  153921 B/op\t    1325 allocs/op\n",
			Result{NsPerOp: 1519420, AllocsPerOp: 1325}},
		{"BenchmarkX-2 \t 100\t 42 ns/op\t 0.9991 resumed/op\t 3.000 conns/op\t 7 B/op\t 2 allocs/op\n",
			Result{NsPerOp: 42, AllocsPerOp: 2}},
		{"BenchmarkX-2 \t 100\t 42 ns/op\t 228.28 MB/s\t 312 B/op\t 5 allocs/op\n",
			Result{NsPerOp: 42, AllocsPerOp: 5}},
		{"BenchmarkX-2 \t 100\t 42 ns/op\t 228.28 MB/s\n", Result{NsPerOp: 42}},
		{"BenchmarkX-2 \t 100\t 42 ns/op\n", Result{NsPerOp: 42}},
	} {
		path := filepath.Join(t.TempDir(), "s.json")
		writeStream(t, path, "p|"+tc.line)
		got, err := parseStreams([]string{path})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Errorf("%q: parsed %v, want one result", tc.line, got)
			continue
		}
		for _, r := range got {
			if r != tc.want {
				t.Errorf("%q: parsed %+v, want %+v", tc.line, r, tc.want)
			}
		}
	}
}

func TestParseStreamsKeepsMinOfN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	// -count=3: the best ns/op and the best allocs/op are kept
	// independently, across streams too.
	writeStream(t, path,
		"p|BenchmarkX-2 \t 100\t 300 ns/op\t 4 allocs/op\n",
		"p|BenchmarkX-2 \t 100\t 200 ns/op\t 6 allocs/op\n",
	)
	other := filepath.Join(t.TempDir(), "t.json")
	writeStream(t, other, "p|BenchmarkX-2 \t 100\t 250 ns/op\t 5 allocs/op\n")
	got, err := parseStreams([]string{path, other})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Result{NsPerOp: 200, AllocsPerOp: 4}); got["p/BenchmarkX"] != want {
		t.Fatalf("min-of-N = %+v, want %+v", got["p/BenchmarkX"], want)
	}
}

func TestCompare(t *testing.T) {
	base := func() map[string]Result {
		return map[string]Result{
			"a": {NsPerOp: 100, AllocsPerOp: 10},
			"b": {NsPerOp: 100, AllocsPerOp: 10},
			"c": {NsPerOp: 100, AllocsPerOp: 10},
		}
	}
	uniform := map[string]Result{
		"a": {NsPerOp: 200, AllocsPerOp: 10},
		"b": {NsPerOp: 200, AllocsPerOp: 10},
		"c": {NsPerOp: 200, AllocsPerOp: 10},
	}
	localized := map[string]Result{
		"a": {NsPerOp: 100, AllocsPerOp: 10},
		"b": {NsPerOp: 100, AllocsPerOp: 10},
		"c": {NsPerOp: 300, AllocsPerOp: 10},
		// Not in the baseline, so not gated however slow.
		"d": {NsPerOp: 1e9, AllocsPerOp: 1e6},
	}
	for _, tc := range []struct {
		name     string
		nodrift  bool
		tolFloor float64
		cTol     float64 // per-entry tol on "c"
		fresh    map[string]Result
		pass     bool
	}{
		{name: "uniform slowdown divides out as drift", fresh: uniform, pass: true},
		{name: "nodrift gates the raw slowdown", nodrift: true, fresh: uniform, pass: false},
		{name: "localized regression fails", fresh: localized, pass: false},
		{name: "entry tol widens one benchmark", cTol: 2.5, fresh: localized, pass: true},
		{name: "entry tol below the gate tol changes nothing", cTol: 0.1, fresh: localized, pass: false},
		{name: "-tol floor widens the gate", tolFloor: 2.5, fresh: localized, pass: true},
		{name: "allocs regression fails", fresh: map[string]Result{
			"a": {NsPerOp: 100, AllocsPerOp: 10},
			"b": {NsPerOp: 100, AllocsPerOp: 10},
			"c": {NsPerOp: 100, AllocsPerOp: 15},
		}, pass: false},
		{name: "baseline entry missing from the stream fails", fresh: map[string]Result{
			"a": {NsPerOp: 100, AllocsPerOp: 10},
			"b": {NsPerOp: 100, AllocsPerOp: 10},
		}, pass: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &Gate{Tol: 0.4, NoDrift: tc.nodrift, Benchmarks: base()}
			c := g.Benchmarks["c"]
			c.Tol = tc.cTol
			g.Benchmarks["c"] = c
			var out bytes.Buffer
			if got := g.compare("g", tc.fresh, tc.tolFloor, &out); got != tc.pass {
				t.Fatalf("compare = %v, want %v\n%s", got, tc.pass, out.String())
			}
		})
	}
}

// gateFixture writes a manifest with one gate "g" whose command appends a
// line to runs.txt and leaves the pre-written stream s.json in place.
func gateFixture(t *testing.T, g *Gate, chunks ...string) (manifest, runs string) {
	t.Helper()
	dir := t.TempDir()
	stream := filepath.Join(dir, "s.json")
	writeStream(t, stream, chunks...)
	runs = filepath.Join(dir, "runs.txt")
	g.Cmd = "echo run >> " + runs
	g.Streams = []string{stream}
	manifest = filepath.Join(dir, "bench_gates.json")
	if err := (&Manifest{Gates: map[string]*Gate{"g": g}}).save(manifest); err != nil {
		t.Fatal(err)
	}
	return manifest, runs
}

func countRuns(t *testing.T, runs string) int {
	t.Helper()
	data, err := os.ReadFile(runs)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "run\n")
}

func TestRunResamplesOnceOnFailure(t *testing.T) {
	for _, tc := range []struct {
		name     string
		baseline float64
		pass     bool
		runs     int
	}{
		{name: "pass runs once", baseline: 100, pass: true, runs: 1},
		{name: "failure resamples once and fails again", baseline: 50, pass: false, runs: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			manifest, runs := gateFixture(t, &Gate{Tol: 0.4, NoDrift: true, Benchmarks: map[string]Result{
				"p/BenchmarkX": {NsPerOp: tc.baseline, AllocsPerOp: 1},
			}}, "p|BenchmarkX-2 \t 100\t 100 ns/op\t 1 allocs/op\n")
			var out bytes.Buffer
			passed, err := run(manifest, nil, 0, false, &out)
			if err != nil {
				t.Fatal(err)
			}
			if passed != tc.pass || countRuns(t, runs) != tc.runs {
				t.Fatalf("passed=%v after %d runs, want %v after %d\n%s",
					passed, countRuns(t, runs), tc.pass, tc.runs, out.String())
			}
		})
	}
}

func TestWriteKeepsTolAndKeySet(t *testing.T) {
	manifest, _ := gateFixture(t, &Gate{Tol: 0.6, NoDrift: true, Benchmarks: map[string]Result{
		"p/BenchmarkP50": {NsPerOp: 1},
		"p/BenchmarkP99": {NsPerOp: 1, Tol: 2.0},
	}},
		"p|BenchmarkP50 \t 1\t 200 ns/op\t 0 allocs/op\n",
		"p|BenchmarkP99 \t 1\t 900 ns/op\t 3 allocs/op\n",
		"p|BenchmarkUngated \t 1\t 5 ns/op\t 0 allocs/op\n",
	)
	if _, err := run(manifest, []string{"g"}, 0, true, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Gates["g"]
	want := map[string]Result{
		"p/BenchmarkP50": {NsPerOp: 200},
		"p/BenchmarkP99": {NsPerOp: 900, AllocsPerOp: 3, Tol: 2.0},
	}
	if !reflect.DeepEqual(g.Benchmarks, want) {
		t.Fatalf("regenerated %v, want %v", g.Benchmarks, want)
	}
	if g.Tol != 0.6 || !g.NoDrift {
		t.Fatalf("gate settings changed: tol %v nodrift %v", g.Tol, g.NoDrift)
	}
}

func TestWriteRefusesMissingBenchmark(t *testing.T) {
	manifest, _ := gateFixture(t, &Gate{Tol: 0.6, Benchmarks: map[string]Result{
		"p/BenchmarkGone": {NsPerOp: 7},
	}}, "p|BenchmarkX \t 1\t 200 ns/op\t 0 allocs/op\n")
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(manifest, nil, 0, true, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "BenchmarkGone") {
		t.Fatalf("err = %v, want one naming the missing benchmark", err)
	}
	after, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("manifest rewritten after a failed regeneration")
	}
}

func TestRunRejectsBadManifestAndGates(t *testing.T) {
	manifest, runs := gateFixture(t, &Gate{Tol: 0.6, Benchmarks: map[string]Result{}},
		"p|BenchmarkX \t 1\t 200 ns/op\t 0 allocs/op\n")
	if _, err := run(manifest, []string{"g", "nope"}, 0, false, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("unknown gate: err = %v", err)
	}
	if _, err := os.Stat(runs); !os.IsNotExist(err) {
		t.Fatal("a gate ran although another named gate does not exist")
	}
	bad := filepath.Join(t.TempDir(), "bench_gates.json")
	if err := os.WriteFile(bad, []byte(`{"gates":{"g":{"cmd":"true","nodrfit":true}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(bad, nil, 0, false, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "nodrfit") {
		t.Fatalf("misspelt field: err = %v", err)
	}
}

// TestCommittedManifest checks the repository's bench_gates.json decodes
// and that every gate can gate something.
func TestCommittedManifest(t *testing.T) {
	m, err := loadManifest(filepath.Join("..", "..", manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range m.Gates {
		if g.Cmd == "" || len(g.Streams) == 0 || len(g.Benchmarks) == 0 || g.Tol <= 0 {
			t.Errorf("gate %s: needs cmd, streams, tol and baseline entries: %+v", name, g)
		}
	}
}
