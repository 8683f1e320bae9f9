// Command benchcheck runs the benchmark regression gates declared in
// bench_gates.json. A gate records the shell command that writes its
// test2json streams (BENCH_*.json), the stream paths, its tolerance and
// drift mode, and its baseline entries. For each gate named on the
// command line (every gate when none is named) benchcheck runs the
// command, extracts each benchmark's ns/op and allocs/op from the
// streams, and fails a baseline entry whose fresh ns/op or allocs/op
// exceeds the baseline by more than the tolerance. A failing gate is
// resampled once: interference phases on shared hosts can outlast one
// benchmark's consecutive samples, and a genuine regression fails both
// passes.
//
//	benchcheck                  # run and compare every gate
//	benchcheck -tol 0.60 micro  # one gate under a looser floor (CI)
//	benchcheck -write macro     # regenerate one gate's baseline in place
//
// The effective tolerance of an entry is max(-tol, gate tol, entry tol),
// so a noisy benchmark (a load-test p99, say) can carry a wide band while
// the rest of its gate stays tight. Only the benchmarks a gate's baseline
// lists are gated; -write rewrites their ns/op and allocs/op, keeps their
// tol and adds nothing. To gate a new benchmark, add its key to the gate
// with zero values and run -write. Baselines are machine-specific for
// ns/op; docs/performance.md explains the gates and their settings.
//
// Exit status: 0 when every gate passes, 1 when a gate fails twice, 2
// when the manifest, a gate's command or a stream cannot be used.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const manifestPath = "bench_gates.json"

// Result is one benchmark measurement. Tol, set only on baseline entries,
// widens that benchmark's allowed regression fraction.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Tol         float64 `json:"tol,omitempty"`
}

// Gate is one regression gate of the manifest.
type Gate struct {
	// Cmd is a sh command line, run from the repository root, that
	// writes Streams.
	Cmd     string   `json:"cmd"`
	Streams []string `json:"streams"`
	// Tol is the allowed regression fraction in ns/op and allocs/op.
	Tol float64 `json:"tol"`
	// NoDrift compares ns/op raw. Gates whose benchmarks all move
	// together (whole campaigns, the quantiles of one load run) need it:
	// their own median ratio would define the drift and gate nothing.
	NoDrift bool `json:"nodrift,omitempty"`
	// Benchmarks is the baseline; its key set is what the gate gates.
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Manifest is the bench_gates.json shape.
type Manifest struct {
	Gates map[string]*Gate `json:"gates"`
}

// event is the subset of a test2json record benchcheck needs.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchLine matches a `go test -bench` result line inside an Output
// field, e.g. "BenchmarkScan/engine-8   278018   5093 ns/op   312 B/op   5 allocs/op".
// Any columns between ns/op and B/op (MB/s, b.ReportMetric units) are
// skipped; the line must end after the last column, so B/op and
// allocs/op are read where `go test -benchmem` prints them, last.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.e+-]+ \S+)*?(?:\s+([0-9.]+) B/op)?(?:\s+([0-9]+) allocs/op)?\s*$`)

func parseStreams(paths []string) (map[string]Result, error) {
	out := make(map[string]Result)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		// test2json splits one printed benchmark line ("BenchmarkX-8 \t"
		// then "  278018\t 5093 ns/op...\n") across Output events, so
		// reassemble complete lines per package before matching.
		lines := make(map[string]string)
		flush := func(pkg, chunk string) {
			buf := lines[pkg] + chunk
			for {
				i := strings.IndexByte(buf, '\n')
				if i < 0 {
					break
				}
				if m := benchLine.FindStringSubmatch(buf[:i]); m != nil {
					ns, err := strconv.ParseFloat(m[2], 64)
					if err == nil {
						var allocs int64
						if m[4] != "" {
							allocs, _ = strconv.ParseInt(m[4], 10, 64)
						}
						key := pkg + "/" + m[1]
						r := Result{NsPerOp: ns, AllocsPerOp: allocs}
						// Gates run each benchmark with -count>1; keep
						// the best iteration — min-of-N damps scheduler
						// noise that a single sample would turn into a
						// flaky regression verdict.
						if prev, ok := out[key]; ok {
							r.NsPerOp = min(r.NsPerOp, prev.NsPerOp)
							r.AllocsPerOp = min(r.AllocsPerOp, prev.AllocsPerOp)
						}
						out[key] = r
					}
				}
				buf = buf[i+1:]
			}
			lines[pkg] = buf
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var ev event
			if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Action != "output" {
				continue
			}
			flush(ev.Package, ev.Output)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return out, nil
}

// medianRatio is the median got/want ns ratio over benchmarks present in
// both sets — the whole-machine speed drift since the baseline was
// written. Falls back to 1 when nothing overlaps.
func medianRatio(base, fresh map[string]Result) float64 {
	var ratios []float64
	for name, want := range base {
		if got, ok := fresh[name]; ok && want.NsPerOp > 0 && got.NsPerOp > 0 {
			ratios = append(ratios, got.NsPerOp/want.NsPerOp)
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	if len(ratios)%2 == 1 {
		return ratios[mid]
	}
	return (ratios[mid-1] + ratios[mid]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sample runs the gate's command and reads its streams.
func (g *Gate) sample(out io.Writer) (map[string]Result, error) {
	cmd := exec.Command("sh", "-c", g.Cmd)
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", g.Cmd, err)
	}
	fresh, err := parseStreams(g.Streams)
	if err != nil {
		return nil, err
	}
	if len(fresh) == 0 {
		return nil, fmt.Errorf("no benchmark results in %s", strings.Join(g.Streams, ", "))
	}
	return fresh, nil
}

// compare gates fresh against the baseline, reporting every entry to out,
// and returns whether all of them passed. tolFloor is the -tol flag.
func (g *Gate) compare(name string, fresh map[string]Result, tolFloor float64, out io.Writer) bool {
	// A committed ns/op baseline encodes one machine at one moment; the
	// whole fleet of benchmarks drifts together when the hardware, CPU
	// frequency, or co-tenant load changes. The median fresh/baseline
	// ratio estimates that drift, and each benchmark is gated relative to
	// it: a genuine code regression is localized (its benchmark moves
	// while the rest don't), so it still trips the tolerance.
	drift := 1.0
	if g.NoDrift {
		fmt.Fprintf(out, "benchcheck: %s: drift normalization disabled (nodrift)\n", name)
	} else {
		drift = medianRatio(g.Benchmarks, fresh)
		fmt.Fprintf(out, "benchcheck: %s: machine drift x%.2f (median fresh/baseline ns ratio)\n", name, drift)
	}
	failed := 0
	for _, bench := range sortedKeys(g.Benchmarks) {
		want := g.Benchmarks[bench]
		got, ok := fresh[bench]
		if !ok {
			fmt.Fprintf(out, "MISSING %s (in baseline, not in fresh run)\n", bench)
			failed++
			continue
		}
		eff := max(tolFloor, g.Tol, want.Tol)
		if want.NsPerOp > 0 && got.NsPerOp > want.NsPerOp*drift*(1+eff) {
			fmt.Fprintf(out, "FAIL    %s: ns/op %.1f > baseline %.1f (x%.2f drift-adjusted, +%.0f%% over, tol %.0f%%)\n",
				bench, got.NsPerOp, want.NsPerOp, drift, 100*(got.NsPerOp/(want.NsPerOp*drift)-1), 100*eff)
			failed++
			continue
		}
		if allowed := int64(float64(want.AllocsPerOp) * (1 + eff)); got.AllocsPerOp > allowed {
			fmt.Fprintf(out, "FAIL    %s: allocs/op %d > baseline %d (tol %.0f%%)\n",
				bench, got.AllocsPerOp, want.AllocsPerOp, 100*eff)
			failed++
			continue
		}
		fmt.Fprintf(out, "ok      %s: %.1f ns/op (baseline %.1f), %d allocs/op (baseline %d)\n",
			bench, got.NsPerOp, want.NsPerOp, got.AllocsPerOp, want.AllocsPerOp)
	}
	fmt.Fprintf(out, "benchcheck: %s: %d gated, %d failed (tolerance %.0f%%)\n",
		name, len(g.Benchmarks), failed, 100*max(tolFloor, g.Tol))
	return failed == 0
}

// rebase rewrites every baseline entry's ns/op and allocs/op from fresh
// and keeps its tol. Benchmarks the baseline does not list stay ungated.
func (g *Gate) rebase(fresh map[string]Result) error {
	var missing []string
	for bench, want := range g.Benchmarks {
		got, ok := fresh[bench]
		if !ok {
			missing = append(missing, bench)
			continue
		}
		got.Tol = want.Tol
		g.Benchmarks[bench] = got
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("not in the fresh run: %s", strings.Join(missing, ", "))
	}
	return nil
}

func loadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// A misspelt field would otherwise silently fall back to its zero
	// value and loosen or disable part of a gate.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func (m *Manifest) save(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep the commands' shell redirections readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// run runs the named gates of the manifest at path, every gate when
// names is empty, and reports whether all passed. With write it
// regenerates their baselines instead, saving the manifest only when
// every named gate regenerated.
func run(path string, names []string, tolFloor float64, write bool, out io.Writer) (bool, error) {
	m, err := loadManifest(path)
	if err != nil {
		return false, err
	}
	if len(names) == 0 {
		names = sortedKeys(m.Gates)
	}
	for _, name := range names {
		if m.Gates[name] == nil {
			return false, fmt.Errorf("%s has no gate %q (gates: %s)", path, name, strings.Join(sortedKeys(m.Gates), ", "))
		}
	}
	passed := true
	for _, name := range names {
		g := m.Gates[name]
		fmt.Fprintf(out, "benchcheck: %s: %s\n", name, g.Cmd)
		fresh, err := g.sample(out)
		if err != nil {
			return false, fmt.Errorf("gate %s: %w", name, err)
		}
		if write {
			if err := g.rebase(fresh); err != nil {
				return false, fmt.Errorf("gate %s: %w", name, err)
			}
			continue
		}
		if g.compare(name, fresh, tolFloor, out) {
			continue
		}
		fmt.Fprintf(out, "benchcheck: %s: failure reported; resampling once to rule out interference\n", name)
		if fresh, err = g.sample(out); err != nil {
			return false, fmt.Errorf("gate %s: %w", name, err)
		}
		passed = g.compare(name, fresh, tolFloor, out) && passed
	}
	if write {
		if err := m.save(path); err != nil {
			return false, err
		}
		fmt.Fprintf(out, "benchcheck: regenerated %s in %s\n", strings.Join(names, ", "), path)
	}
	return passed, nil
}

func main() {
	tol := flag.Float64("tol", 0, "floor under every gate's allowed regression fraction (effective: max of this, gate tol, entry tol)")
	write := flag.Bool("write", false, "regenerate the gates' baseline entries in "+manifestPath+" instead of comparing")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchcheck [-tol f] [-write] [gate...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	passed, err := run(manifestPath, flag.Args(), *tol, *write, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	if !passed {
		os.Exit(1)
	}
}
