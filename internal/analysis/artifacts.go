package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"appvsweb/internal/core"
)

// An artifact is one self-contained evaluation deliverable — the full
// report, a table, a figure panel as CSV or SVG, the cross-service survey
// — computed from a dataset and served as bytes. The registry below is the
// engine's unit of caching and parallelism: every artifact is an
// independent job keyed by its ID and one fingerprint of the dataset
// content. Every artifact reads the same service × OS × medium results, so
// a fold that changes the content changes the input of every artifact.

// Artifact is one computed deliverable, ready to serve.
type Artifact struct {
	ID          string `json:"id"`
	ContentType string `json:"content_type"`
	// ETag is a strong validator derived from the dataset fingerprint:
	// identical dataset content yields identical ETags across processes,
	// so HTTP caches revalidate with 304s even after a restart.
	ETag  string `json:"etag"`
	Bytes []byte `json:"-"`
}

// fingerprint hashes the dataset content every artifact reads: all
// result fields, the ReCon evaluation reports, scale/services, failures
// and stale-resume notes. GeneratedAt and Duration are deliberately
// excluded: two campaigns producing identical content must fingerprint
// identically (that property is what makes a resumed run's artifacts
// provably byte-identical to an uninterrupted one, and what lets HTTP
// caches survive a server restart).
func fingerprint(ds *core.Dataset) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(struct {
		Scale        float64                  `json:"scale"`
		Services     int                      `json:"services"`
		ReconReport  string                   `json:"recon,omitempty"`
		ReconHoldout string                   `json:"holdout,omitempty"`
		Failures     []core.FailureRecord     `json:"failures,omitempty"`
		Stale        []string                 `json:"stale,omitempty"`
		Results      []*core.ExperimentResult `json:"results"`
	}{ds.Meta.Scale, ds.Meta.Services, ds.Meta.ReconReport, ds.Meta.ReconHoldout,
		ds.Meta.Failures, ds.Meta.StaleResume, ds.Results}); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// artifactSpec wires one artifact ID to its compute function.
type artifactSpec struct {
	id          string
	contentType string
	compute     func(*core.Dataset) ([]byte, error)
}

func textArtifact(f func(*core.Dataset) string) func(*core.Dataset) ([]byte, error) {
	return func(ds *core.Dataset) ([]byte, error) { return []byte(f(ds)), nil }
}

func jsonArtifact(f func(*core.Dataset) any) func(*core.Dataset) ([]byte, error) {
	return func(ds *core.Dataset) ([]byte, error) {
		b, err := json.MarshalIndent(f(ds), "", " ")
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	}
}

// artifactSpecs is the registry of every computable artifact, in serving
// order. IDs are stable API surface: avwserve URLs and avwanalyze
// -artifact use them verbatim.
var artifactSpecs = buildArtifactSpecs()

func buildArtifactSpecs() []artifactSpec {
	specs := []artifactSpec{
		{"report", "text/plain; charset=utf-8", textArtifact(Report)},
		{"report.md", "text/markdown; charset=utf-8", textArtifact(ReportMarkdown)},
		{"compare", "text/plain; charset=utf-8", textArtifact(func(ds *core.Dataset) string {
			return RenderCompare(Compare(ds))
		})},
		{"stats.json", "application/json", jsonArtifact(func(ds *core.Dataset) any {
			return ds.Stats()
		})},
		{"headlines.json", "application/json", jsonArtifact(func(ds *core.Dataset) any {
			return ComputeHeadlines(ds)
		})},
		{"table1", "text/plain; charset=utf-8", textArtifact(func(ds *core.Dataset) string {
			return RenderTable1Grid(Table1(ds))
		})},
		{"table2", "text/plain; charset=utf-8", textArtifact(func(ds *core.Dataset) string {
			return RenderTable2(Table2(ds, 20))
		})},
		{"table3", "text/plain; charset=utf-8", textArtifact(func(ds *core.Dataset) string {
			return RenderTable3(Table3(ds))
		})},
		{"passwords", "text/plain; charset=utf-8", func(ds *core.Dataset) ([]byte, error) {
			var b []byte
			for _, s := range PasswordLeaks(ds) {
				b = append(b, s...)
				b = append(b, '\n')
			}
			return b, nil
		}},
		{"crossservice", "text/plain; charset=utf-8", textArtifact(func(ds *core.Dataset) string {
			return RenderCrossService(CrossService(ds, 2))
		})},
		{"figures", "text/plain; charset=utf-8", textArtifact(Figures)},
	}
	for _, id := range FigureIDs() {
		id := id
		specs = append(specs,
			artifactSpec{"figure-" + id + ".csv", "text/csv; charset=utf-8",
				func(ds *core.Dataset) ([]byte, error) {
					out, ok := FigureCSV(ds, id)
					if !ok {
						return nil, fmt.Errorf("analysis: unknown figure %q", id)
					}
					return []byte(out), nil
				}},
			artifactSpec{"figure-" + id + ".svg", "image/svg+xml",
				func(ds *core.Dataset) ([]byte, error) {
					out, ok := FigureSVG(ds, id)
					if !ok {
						return nil, fmt.Errorf("analysis: unknown figure %q", id)
					}
					return []byte(out), nil
				}},
		)
	}
	return specs
}

var artifactByID = func() map[string]*artifactSpec {
	m := make(map[string]*artifactSpec, len(artifactSpecs))
	for i := range artifactSpecs {
		m[artifactSpecs[i].id] = &artifactSpecs[i]
	}
	return m
}()

// ArtifactIDs lists every artifact the engine can compute, in serving
// order.
func ArtifactIDs() []string {
	out := make([]string, len(artifactSpecs))
	for i, s := range artifactSpecs {
		out[i] = s.id
	}
	return out
}

// ArtifactContentType reports the content type of one artifact ID.
func ArtifactContentType(id string) (string, bool) {
	s, ok := artifactByID[id]
	if !ok {
		return "", false
	}
	return s.contentType, true
}
