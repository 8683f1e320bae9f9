// Command avwanalyze regenerates the paper's evaluation artifacts from a
// dataset produced by avwrun: Tables 1–3, Figures 1a–1f (as text series or
// CSV), the headline shape statistics, and the §4.2 password audit.
//
// Usage:
//
//	avwanalyze -dataset dataset.json                 # full report
//	avwanalyze -dataset dataset.json -table 2        # one table
//	avwanalyze -dataset dataset.json -figure 1f -csv # one figure as CSV
//	avwanalyze -dataset dataset.json -passwords      # password audit
//	avwanalyze -dataset dataset.json -artifact list  # serving artifact IDs
//	avwanalyze -dataset dataset.json -artifact figure-1a.svg > 1a.svg
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"appvsweb/internal/analysis"
	"appvsweb/internal/capture"
	"appvsweb/internal/core"
	"appvsweb/internal/obs"
)

func main() {
	var (
		path      = flag.String("dataset", "dataset.json", "dataset produced by avwrun")
		artifact  = flag.String("artifact", "", "print one serving artifact by ID ('list' to enumerate)")
		table     = flag.Int("table", 0, "print one table (1, 2, or 3)")
		figure    = flag.String("figure", "", "print one figure (1a..1f)")
		csv       = flag.Bool("csv", false, "CSV output for -figure")
		passwords = flag.Bool("passwords", false, "print the password-leak audit")
		cross     = flag.Bool("crossservice", false, "print the cross-service PII survey")
		compare   = flag.Bool("compare", false, "run the paper-vs-measured calibration checks")
		svg       = flag.Bool("svg", false, "SVG output for -figure")
		traceHAR  = flag.String("tracehar", "", "convert a JSONL flow trace to HTTP Archive (HAR) on stdout")
		figDir    = flag.String("figures", "", "write every figure panel as SVG into this directory")
		diffOld   = flag.String("diff", "", "compare -dataset against this older snapshot (longitudinal)")
		markdown  = flag.Bool("markdown", false, "render the evaluation as Markdown")
		service   = flag.String("service", "", "print the drill-down for one service")
		replay    = flag.String("replay", "", "re-analyze persisted flow traces from this directory instead of loading -dataset")
		noFilter  = flag.Bool("nofilter", false, "with -replay: skip the background-traffic filter (ablation)")
	)
	flag.Parse()

	if *traceHAR != "" {
		flows, err := capture.LoadTrace(*traceHAR)
		if err != nil {
			fatalf("load trace: %v", err)
		}
		if err := capture.WriteHAR(os.Stdout, "appvsweb", flows); err != nil {
			fatalf("write HAR: %v", err)
		}
		return
	}

	var ds *core.Dataset
	var err error
	if *replay != "" {
		ds, err = core.ReplayCampaign(*replay, *noFilter)
		if err != nil {
			fatalf("replay traces: %v", err)
		}
	} else {
		ds, err = core.Load(*path)
		if err != nil {
			fatalf("load dataset: %v", err)
		}
	}

	if *artifact != "" {
		if *artifact == "list" {
			for _, id := range analysis.ArtifactIDs() {
				ct, _ := analysis.ArtifactContentType(id)
				fmt.Printf("%-18s %s\n", id, ct)
			}
			return
		}
		eng := analysis.NewEngine(analysis.EngineOptions{Metrics: obs.Default})
		art, err := eng.Register("dataset", ds).Artifact(context.Background(), *artifact)
		if err != nil {
			fatalf("artifact: %v", err)
		}
		os.Stdout.Write(art.Bytes)
		return
	}

	if *figDir != "" {
		if err := os.MkdirAll(*figDir, 0o755); err != nil {
			fatalf("figures dir: %v", err)
		}
		// The figure panels are independent jobs: compute them through the
		// engine's worker pool instead of sequentially.
		eng := analysis.NewEngine(analysis.EngineOptions{Metrics: obs.Default})
		h := eng.Register("dataset", ds)
		var wg sync.WaitGroup
		errs := make([]error, len(analysis.FigureIDs()))
		for i, id := range analysis.FigureIDs() {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				art, err := h.Artifact(context.Background(), "figure-"+id+".svg")
				if err != nil {
					errs[i] = err
					return
				}
				path := filepath.Join(*figDir, "figure"+id+".svg")
				if err := os.WriteFile(path, art.Bytes, 0o644); err != nil {
					errs[i] = err
					return
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}(i, id)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				fatalf("figures: %v", err)
			}
		}
		return
	}

	switch {
	case *table == 1:
		fmt.Print(analysis.RenderTable1(analysis.Table1(ds)))
	case *table == 2:
		fmt.Print(analysis.RenderTable2(analysis.Table2(ds, 20)))
	case *table == 3:
		fmt.Print(analysis.RenderTable3(analysis.Table3(ds)))
	case *table != 0:
		fatalf("unknown table %d (want 1, 2, or 3)", *table)
	case *figure != "":
		if *csv {
			out, ok := analysis.FigureCSV(ds, *figure)
			if !ok {
				fatalf("unknown figure %q (want one of %v)", *figure, analysis.FigureIDs())
			}
			fmt.Print(out)
			return
		}
		if *svg {
			out, ok := analysis.FigureSVG(ds, *figure)
			if !ok {
				fatalf("unknown figure %q (want one of %v)", *figure, analysis.FigureIDs())
			}
			fmt.Print(out)
			return
		}
		found := false
		for _, id := range analysis.FigureIDs() {
			if id == *figure {
				found = true
			}
		}
		if !found {
			fatalf("unknown figure %q (want one of %v)", *figure, analysis.FigureIDs())
		}
		// Render via the full figure block, filtered.
		csvOut, _ := analysis.FigureCSV(ds, *figure)
		fmt.Printf("# Figure %s\n%s", *figure, csvOut)
	case *passwords:
		for _, s := range analysis.PasswordLeaks(ds) {
			fmt.Println(s)
		}
	case *cross:
		fmt.Print(analysis.RenderCrossService(analysis.CrossService(ds, 2)))
	case *compare:
		fmt.Print(analysis.RenderCompare(analysis.Compare(ds)))
	case *markdown:
		fmt.Print(analysis.ReportMarkdown(ds))
	case *service != "":
		out, ok := analysis.ServiceDetail(ds, *service)
		if !ok {
			fatalf("service %q not in dataset (known: %v)", *service, ds.ServiceKeys())
		}
		fmt.Print(out)
	case *diffOld != "":
		oldDS, err := core.Load(*diffOld)
		if err != nil {
			fatalf("load old snapshot: %v", err)
		}
		fmt.Print(analysis.RenderDiff(analysis.DiffDatasets(oldDS, ds)))
	default:
		fmt.Print(analysis.Report(ds))
	}
}

// fatalf logs a fatal error as structured JSON on stderr (reports go to
// stdout, so logs never corrupt piped output) and exits non-zero.
func fatalf(format string, args ...any) {
	obs.NewLogger(os.Stderr, "avwanalyze", "", slog.LevelInfo).
		Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
