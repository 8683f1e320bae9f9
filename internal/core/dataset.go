// Package core implements the paper's primary contribution: the
// comparative measurement methodology of §3. It orchestrates controlled
// experiments (service × OS × medium) through the interception proxy,
// applies the filtering → PII-detection → verification → domain-
// categorization → leak-labeling pipeline to the captured flows, and
// produces the dataset from which every table and figure of §4 is
// computed.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"appvsweb/internal/domains"
	"appvsweb/internal/pii"
	"appvsweb/internal/services"
)

// LeakRecord is one PII-carrying flow that met the leak definition of
// §3.2: the PII travelled in plaintext, or reached a destination where it
// is not required for login.
type LeakRecord struct {
	FlowID    int64             `json:"flow_id"`
	Host      string            `json:"host"`
	Domain    string            `json:"domain"` // eTLD+1
	Org       string            `json:"org"`    // organizational label (Table 2 naming)
	Category  string            `json:"category"`
	Plaintext bool              `json:"plaintext"`
	Types     pii.TypeSet       `json:"types"`
	FoundBy   map[string]string `json:"found_by,omitempty"` // type abbrev → "string" | "recon" | "both"
	// Provenance is the causal chain of evidence behind the verdict.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// MatchEvidence is one piece of PII-match evidence in a provenance record:
// which class matched, under which wire encoding, in which flow section.
type MatchEvidence struct {
	Type     string `json:"type"`     // class abbreviation (Table 1 column)
	Encoding string `json:"encoding"` // wire encoding the value appeared under
	Where    string `json:"where"`    // flow section: "url", "headers", "body"
}

// Provenance records why a flow was judged a leak — the causal chain
// through the §3.2 pipeline: which capture session produced the flow, what
// the background filter decided, the PII-match evidence, the EasyList rule
// behind an A&A categorization, and the policy clause that decided. It
// makes every verdict in a saved dataset auditable without re-running the
// pipeline; avwtrace explain reconstructs the same chain from a live
// trace (docs/tracing.md).
type Provenance struct {
	Client  string          `json:"client,omitempty"`  // capture: session that produced the flow
	Filter  string          `json:"filter,omitempty"`  // background-filter decision
	Matches []MatchEvidence `json:"matches,omitempty"` // PII-match evidence
	Rule    string          `json:"rule,omitempty"`    // EasyList rule (A&A destinations only)
	Policy  string          `json:"policy,omitempty"`  // the deciding policy clause
	// Inline summarizes the proxy's live gateway verdict for the flow
	// ("block: E,L" style), when the campaign ran with -inline. Blocked
	// flows keep their full capture→match→action chain here even though
	// nothing reached the network.
	Inline string `json:"inline,omitempty"`
}

// ExperimentResult is the outcome of one four-minute session plus its
// analysis pipeline.
type ExperimentResult struct {
	Service  string            `json:"service"`
	Name     string            `json:"name"`
	Category services.Category `json:"category"`
	Rank     int               `json:"rank"`
	OS       services.OS       `json:"os"`
	Medium   services.Medium   `json:"medium"`

	// Excluded marks experiments that could not be measured (certificate
	// pinning); excluded services are removed from that OS's comparison.
	Excluded      bool   `json:"excluded,omitempty"`
	ExcludeReason string `json:"exclude_reason,omitempty"`

	TotalFlows      int   `json:"total_flows"`      // after background filtering
	BackgroundFlows int   `json:"background_flows"` // removed by filtering
	TotalBytes      int64 `json:"total_bytes"`

	AADomains []string `json:"aa_domains"` // unique A&A eTLD+1s contacted
	AAFlows   int      `json:"aa_flows"`
	AABytes   int64    `json:"aa_bytes"`

	Leaks      []LeakRecord `json:"leaks"`
	LeakTypes  pii.TypeSet  `json:"leak_types"`
	PIIDomains []string     `json:"pii_domains"` // eTLD+1s receiving leaks

	Requests        int           `json:"requests"`
	FailedRequests  int           `json:"failed_requests"`
	BlockedRequests int           `json:"blocked_requests,omitempty"` // adblock mode only
	Virtual         time.Duration `json:"virtual_duration"`
}

// CellKey identifies the experiment's configuration.
func (r *ExperimentResult) CellKey() services.Cell {
	return services.Cell{OS: r.OS, Medium: r.Medium}
}

// LeaksOfType counts leak flows carrying the given class.
func (r *ExperimentResult) LeaksOfType(t pii.Type) int {
	n := 0
	for _, l := range r.Leaks {
		if l.Types.Contains(t) {
			n++
		}
	}
	return n
}

// LeaksToDomain counts leak flows to one eTLD+1.
func (r *ExperimentResult) LeaksToDomain(domain string) int {
	n := 0
	for _, l := range r.Leaks {
		if l.Domain == domain {
			n++
		}
	}
	return n
}

// Dataset is a full campaign's results.
type Dataset struct {
	Meta    Meta                `json:"meta"`
	Results []*ExperimentResult `json:"results"`
}

// Meta records how the dataset was produced.
type Meta struct {
	GeneratedAt time.Time `json:"generated_at"`
	// Services counts the services with at least one result.
	Services int     `json:"services"`
	Scale    float64 `json:"scale"`
	// Duration is the virtual session length of every experiment
	// (Options.Duration, avwrun -duration), not the campaign's wall time.
	Duration    time.Duration `json:"duration"`
	ReconReport string        `json:"recon_report,omitempty"`
	// ReconHoldout is the held-out (50/50 split) generalization report.
	ReconHoldout string `json:"recon_holdout,omitempty"`
	// Failures lists the experiments the campaign could not complete and
	// skipped under FailSkip/FailRetrySkip (docs/robustness.md). Their
	// cells appear in Results as excluded placeholders.
	Failures []FailureRecord `json:"failures,omitempty"`
	// StaleResume lists journal keys ("service/os/medium") from a -resume
	// journal that matched no experiment in this campaign's spec — the
	// signature of resuming with a journal from a different campaign (other
	// services, or a changed -services subset). The records are ignored,
	// never replayed; this field makes the mismatch auditable instead of
	// silent.
	StaleResume []string `json:"stale_resume,omitempty"`
}

// FailureRecord describes one experiment the campaign gave up on: which
// cell, which pipeline stage failed, after how many attempts, and why.
type FailureRecord struct {
	Service  string          `json:"service"`
	OS       services.OS     `json:"os"`
	Medium   services.Medium `json:"medium"`
	Stage    string          `json:"stage,omitempty"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error"`
}

// Result finds one experiment's outcome.
func (d *Dataset) Result(key string, c services.Cell) (*ExperimentResult, bool) {
	for _, r := range d.Results {
		if r.Service == key && r.OS == c.OS && r.Medium == c.Medium {
			return r, true
		}
	}
	return nil, false
}

// ServiceKeys lists the distinct services present, sorted.
func (d *Dataset) ServiceKeys() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range d.Results {
		if !seen[r.Service] {
			seen[r.Service] = true
			out = append(out, r.Service)
		}
	}
	sort.Strings(out)
	return out
}

// Included returns the result only if it was measured (not excluded).
func (d *Dataset) Included(key string, c services.Cell) (*ExperimentResult, bool) {
	r, ok := d.Result(key, c)
	if !ok || r.Excluded {
		return nil, false
	}
	return r, true
}

// Sort orders results deterministically (service, OS, medium).
func (d *Dataset) Sort() {
	sort.Slice(d.Results, func(i, j int) bool {
		a, b := d.Results[i], d.Results[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.OS != b.OS {
			return a.OS < b.OS
		}
		return a.Medium < b.Medium
	})
}

// WriteJSON streams the dataset as JSON.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// Save writes the dataset to a file.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.WriteJSON(f); err != nil {
		return fmt.Errorf("core: encode dataset: %w", err)
	}
	return f.Close()
}

// Load reads a dataset from a file.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d Dataset
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("core: decode dataset: %w", err)
	}
	return &d, nil
}

// OrgOf maps a host to the paper's Table 2 naming (registrable domain
// without its public suffix).
func OrgOf(host string) string { return domains.Org(host) }

// DatasetStats summarize a campaign at a glance.
type DatasetStats struct {
	Experiments int   `json:"experiments"`
	Excluded    int   `json:"excluded"`
	TotalFlows  int   `json:"total_flows"`
	TotalBytes  int64 `json:"total_bytes"`
	AAFlows     int   `json:"aa_flows"`
	AABytes     int64 `json:"aa_bytes"`
	LeakFlows   int   `json:"leak_flows"`
	Background  int   `json:"background_flows"`
}

// Stats computes the dataset summary.
func (d *Dataset) Stats() DatasetStats {
	var s DatasetStats
	for _, r := range d.Results {
		s.Experiments++
		if r.Excluded {
			s.Excluded++
			continue
		}
		s.TotalFlows += r.TotalFlows
		s.TotalBytes += r.TotalBytes
		s.AAFlows += r.AAFlows
		s.AABytes += r.AABytes
		s.LeakFlows += len(r.Leaks)
		s.Background += r.BackgroundFlows
	}
	return s
}
