package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"appvsweb/internal/capture"
	"appvsweb/internal/pii"
	"appvsweb/internal/services"
)

// ReplayCampaign re-runs the analysis pipeline over the flow traces a
// previous campaign persisted (Options.TraceDir) — the "we make our
// dataset and code available" workflow: anyone holding the traces can
// regenerate every result without re-measuring, or re-analyze them under
// different pipeline settings (e.g. the filtering ablation). The
// campaign's services, scale and duration come from the directory's
// TraceMetaFile; services resolve as services.Lookup resolves them.
//
// Ground truth is reconstructed deterministically: the same service key
// always yields the same account, and the same OS the same handset, so
// the detector sees exactly the values the original session carried.
func ReplayCampaign(traceDir string, disableBGFilter bool) (*Dataset, error) {
	tm, err := readTraceMeta(traceDir)
	if err != nil {
		return nil, err
	}
	catalog, err := services.Lookup(tm.Services)
	if err != nil {
		return nil, fmt.Errorf("core: replay: %s: %w", filepath.Join(traceDir, TraceMetaFile), err)
	}
	cat := services.BuildCategorizer(catalog)
	ds := &Dataset{
		Meta: Meta{
			GeneratedAt: time.Now(),
			Services:    len(catalog),
			Scale:       tm.Scale,
			Duration:    tm.Duration,
		},
	}
	for _, spec := range catalog {
		for _, cell := range services.AllCells() {
			result := &ExperimentResult{
				Service: spec.Key, Name: spec.Name, Category: spec.Category,
				Rank: spec.Rank, OS: cell.OS, Medium: cell.Medium,
			}
			path := filepath.Join(traceDir, TraceFileName(spec.Key, cell))
			flows, err := capture.LoadTrace(path)
			switch {
			case err == nil:
				det := &Detector{Matcher: pii.NewMatcher(IdentityFor(spec.Key, cell.OS))}
				AnalyzeFlows(cat, disableBGFilter, spec.Key, result, det, flows)
			case os.IsNotExist(err) && spec.PinsAndroid && cell.OS == services.Android && cell.Medium == services.App:
				// Pinned experiments never produced a trace.
				result.Excluded = true
				result.ExcludeReason = "certificate pinning prevents traffic decryption"
			default:
				return nil, fmt.Errorf("core: replay %s: %w", path, err)
			}
			ds.Results = append(ds.Results, result)
		}
	}
	ds.Sort()
	return ds, nil
}

// TraceMetaFile names the file in a trace directory that records what the
// flows cannot: the campaign's service keys, scale and session duration.
const TraceMetaFile = "campaign.json"

type traceMeta struct {
	Services []string      `json:"services"`
	Scale    float64       `json:"scale"`
	Duration time.Duration `json:"duration"`
}

// writeTraceMeta records a campaign's services, scale and duration in dir.
// Every shard of a campaign writes the same bytes, each after its own
// truncate, so concurrent writers still leave the whole file.
func writeTraceMeta(dir string, catalog []*services.Spec, scale float64, duration time.Duration) error {
	keys := make([]string, len(catalog))
	for i, s := range catalog {
		keys[i] = s.Key
	}
	b, err := json.Marshal(traceMeta{Services: keys, Scale: scale, Duration: duration})
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, TraceMetaFile), append(b, '\n'), 0o644)
	}
	if err != nil {
		return fmt.Errorf("core: trace meta: %w", err)
	}
	return nil
}

// readTraceMeta loads the settings writeTraceMeta recorded in dir.
func readTraceMeta(dir string) (traceMeta, error) {
	var tm traceMeta
	path := filepath.Join(dir, TraceMetaFile)
	b, err := os.ReadFile(path)
	if err != nil {
		return tm, fmt.Errorf("core: replay: campaign settings: %w", err)
	}
	if err := json.Unmarshal(b, &tm); err != nil {
		return tm, fmt.Errorf("core: replay: campaign settings %s: %w", path, err)
	}
	if len(tm.Services) == 0 {
		return tm, fmt.Errorf(`core: replay: campaign settings %s: no "services" list`, path)
	}
	return tm, nil
}
