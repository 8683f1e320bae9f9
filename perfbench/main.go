// Command perfbench is the repository benchmark: one single-process program
// with three workloads (campaign, gateway, report-live) that times calls
// into the system's public packages from outside them.
//
//	perfbench --workload campaign --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced variant and prints the per-layer metrics plus a self-time
// table per layer. Every run checks its outputs; the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
// README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// outDir receives what a run writes (span dumps, report-live journals); it
// is under the build directory the run script uses, which git ignores.
const outDir = ".bench_build/perfbench"

// setupRepeats is how many times a run performs its set-up; setup_s is
// their median, so one slow first set-up (cold page cache, first TLS
// handshake in the process) does not decide the figure.
const setupRepeats = 5

// workload is one benchmark input mix. setUp builds the system under test
// and warms it; run measures it for the given duration.
type workload interface {
	setUp() error
	run(d time.Duration, tr *tracer) (*runStats, error)
	close()
}

type factory func(seed int64) workload

var workloads = map[string]factory{
	"campaign":    newCampaign,
	"gateway":     newGateway,
	"report-live": newReportLive,
}

// companionRun is how long each of the other workloads runs, traced, after
// the main traced run, so that every per-layer metric is measured in every
// traced run (see README.md, "Per-layer metrics").
const companionRun = 1500 * time.Millisecond

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the metric's sample count, printed beside it.
	n int
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "campaign, gateway or report-live")
	seed := flag.Int64("seed", 1, "workload seed: inputs are a function of it")
	seconds := flag.Float64("seconds", 30, "measured run length")
	traced := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	writeExpect := flag.Bool("write-expect", false, "campaign only: record the expected output digests instead of checking them")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced, *writeExpect); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced int, writeExpect bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if d <= 0 {
		return errors.New("--seconds must be positive")
	}
	if traced != 0 && traced != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if writeExpect {
		if name != "campaign" {
			return errors.New("--write-expect applies to the campaign workload")
		}
		return writeCampaignExpect(seed)
	}

	w, setups, err := setUp(mk, seed, setupRepeats)
	if err != nil {
		return err
	}
	var tr *tracer
	if traced == 1 {
		tr = newTracer()
	}
	st, err := w.run(d, tr)
	w.close()
	if err != nil {
		return err
	}
	if len(st.lat) == 0 {
		return errors.New("no op completed")
	}
	st.setups = setups

	res := resultOut{Attempted: st.attempted, Failed: st.failed}
	var all map[string]metricOut
	if tr == nil {
		all = endToEnd(st)
	} else {
		all = map[string]metricOut{}
		// Other workloads first, so the main workload's own figures win
		// wherever both measure the same layer.
		for _, other := range sortedWorkloads() {
			if other == name {
				continue
			}
			cw, _, err := setUp(workloads[other], seed, 1)
			if err != nil {
				return fmt.Errorf("companion %s: %w", other, err)
			}
			cst, err := cw.run(companionRun, newTracer())
			cw.close()
			if err != nil {
				return fmt.Errorf("companion %s: %w", other, err)
			}
			res.Attempted += cst.attempted
			res.Failed += cst.failed
			for k, v := range cst.layers {
				all[k] = v
			}
		}
		for k, v := range st.layers {
			all[k] = v
		}
		all["core.unattributed_ms"] = metricOut{tr.remainderMS(st.opName), "ms", len(st.lat)}
		all["bench.traced_ops_per_s"] = metricOut{float64(len(st.lat)) / st.wall.Seconds(), "1/s", len(st.lat)}
		fmt.Print(tr.table(name, st.opName))
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	listed, err := benchmarkMetrics(tr != nil)
	if err != nil {
		return err
	}
	res.Metrics = map[string]metricOut{}
	for _, k := range listed {
		m, ok := all[k]
		if !ok {
			return fmt.Errorf("%s lists metric %s, which this run does not measure", benchmarkFile, k)
		}
		res.Metrics[k] = m
	}
	res.Correct = res.Failed == 0
	printHuman(name, st, all, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// benchmarkFile declares which metrics the JSON line carries: its
// end_to_end names with --trace 0, its per_layer names with --trace 1.
const benchmarkFile = "BENCHMARK.json"

func benchmarkMetrics(traced bool) ([]string, error) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// setUp sets the workload up repeats times, closing all but the last, and
// returns the last with every set-up duration.
func setUp(mk factory, seed int64, repeats int) (workload, []time.Duration, error) {
	var setups []time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		w := mk(seed)
		if err := w.setUp(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		if i == repeats-1 {
			return w, setups, nil
		}
		w.close()
	}
}

func sortedWorkloads() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runStats is what one measured run hands back. lat holds every completed
// op's latency; the process-level figures are deltas over the run.
type runStats struct {
	// opName names the root span of one op in traced runs.
	opName            string
	attempted, failed int
	lat               []time.Duration
	wall              time.Duration
	cpu               time.Duration
	allocBytes        uint64
	peakLive          uint64
	bytesMoved        int64
	setups            []time.Duration
	// extra are workload-specific end-to-end figures (freshness on
	// report-live).
	extra map[string]metricOut
	// layers are the per-layer metrics of a traced run.
	layers map[string]metricOut
}

func endToEnd(st *runStats) map[string]metricOut {
	ops := float64(len(st.lat))
	n := len(st.lat)
	m := map[string]metricOut{
		"setup_s":           {medianDur(st.setups).Seconds(), "s", len(st.setups)},
		"ops_per_s":         {ops / st.wall.Seconds(), "1/s", n},
		"op_iqm_ms":         {iqmMS(st.lat), "ms", n},
		"op_p50_ms":         {ms(quantile(st.lat, 0.5)), "ms", n},
		"op_p99_ms":         {ms(quantile(st.lat, tailQ(n))), "ms", n},
		"cpu_ms_per_op":     {ms(st.cpu) / ops, "ms", n},
		"alloc_mb_per_op":   {float64(st.allocBytes) / 1e6 / ops, "MB", n},
		"peak_live_heap_mb": {float64(st.peakLive) / 1e6, "MB", n},
		"goodput_mb_per_s":  {float64(st.bytesMoved) / 1e6 / st.wall.Seconds(), "MB/s", n},
	}
	for k, v := range st.extra {
		m[k] = v
	}
	return m
}

// printHuman prints every metric the run measured with unit and sample
// count, marking those the JSON line that follows leaves out.
func printHuman(name string, st *runStats, all, inJSON map[string]metricOut) {
	fmt.Printf("workload %s: %d ops attempted, %d failed, %d completed in %.3fs\n",
		name, st.attempted, st.failed, len(st.lat), st.wall.Seconds())
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		suffix := ""
		if k == "op_p99_ms" && tailQ(all[k].n) != 0.99 {
			suffix = fmt.Sprintf(" (the p%g: too few ops for a p99)", 100*tailQ(all[k].n))
		}
		if _, ok := inJSON[k]; !ok {
			suffix += " (not in the JSON line)"
		}
		fmt.Printf("  %-34s %14.4f %-6s n=%d%s\n", k, all[k].Value, all[k].Unit, all[k].n, suffix)
	}
}

// tailQ is the highest percentile reported for n samples: p99 when at least
// ten samples lie beyond it, otherwise the highest quantile that keeps ten.
func tailQ(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n <= 20 {
		return 0.5
	}
	return math.Floor(100*(1-10/float64(n))) / 100
}

// quantile is the nearest-rank quantile of ds (which it sorts).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

// iqmMS is the interquartile mean of ds (which it sorts) in milliseconds:
// the mean of the middle half. Unlike the median it moves smoothly when
// ops fall into two latency modes in shifting proportions, as gateway
// requests do depending on whether the other client's handshake overlaps.
func iqmMS(ds []time.Duration) float64 {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	mid := ds[len(ds)/4 : len(ds)-len(ds)/4]
	return meanMS(mid)
}

func medianDur(ds []time.Duration) time.Duration {
	c := append([]time.Duration(nil), ds...)
	return quantile(c, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// meanMS is the mean of ds in milliseconds, 0 for no samples.
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// meanOf is the mean of ds as a metric in milliseconds, with its count.
func meanOf(ds []time.Duration) metricOut { return metricOut{meanMS(ds), "ms", len(ds)} }

// ratio is num/den, 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
