package pii

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"appvsweb/internal/obs"
)

// Matcher instrumentation (docs/metrics.md): scan volume plus hit counts
// broken down by wire encoding, so a snapshot shows which obfuscations
// actually carry PII in a campaign. Hits are one labeled family —
// pii.match.hits with an encoding dimension — whose per-encoding series
// are resolved once at init, so the Scan hot path only touches atomics
// (and one map read per hit).
var matchMetrics = struct {
	scans   *obs.Counter
	needles *obs.Counter
	hits    map[Encoding]*obs.Counter
}{
	scans:   obs.Default.Counter("pii.scan.calls_total"),
	needles: obs.Default.Counter("pii.scan.needles_total"),
	hits:    make(map[Encoding]*obs.Counter),
}

func init() {
	vec := obs.Default.CounterVec("pii.match.hits", "encoding")
	for _, e := range Encoders() {
		matchMetrics.hits[e.Name] = vec.WithLabelValues(string(e.Name))
	}
}

// Match is one occurrence of ground-truth PII found in flow content.
type Match struct {
	Type     Type
	Value    string   // the plaintext ground-truth value
	Encoding Encoding // how the value appeared on the wire
	Where    string   // which part of the flow matched ("url", "headers", "body")
}

// Describe renders the match as one line of evidence for trace events and
// leak provenance, e.g. "E (Email) as base64 in body".
func (m Match) Describe() string {
	return fmt.Sprintf("%s (%s) as %s in %s", m.Type.Abbrev(), m.Type, m.Encoding, m.Where)
}

// DescribeMatches joins match evidence with "; " in the matches' order.
func DescribeMatches(ms []Match) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = m.Describe()
	}
	return strings.Join(parts, "; ")
}

// Matcher searches flow content for the ground-truth values of a Record
// under every supported encoding. Build one per device record and reuse it:
// construction precompiles every (value, encoding) needle into a single
// Aho–Corasick automaton (see ac.go), so a Scan is one pass over the
// content regardless of needle count. The Matcher is immutable after
// construction and safe for concurrent use.
type Matcher struct {
	needles  []needle
	ac       *automaton
	scanners sync.Pool // *Scanner scratch for the convenience methods
	// maxLookbehind is the raw-byte window a StreamScanner must retain
	// across chunk boundaries: the longest needle minus one byte (at
	// least one byte of any occurrence lies in the current chunk).
	maxLookbehind int
}

type needle struct {
	text      string // what to search for
	plaintext string // the original value
	typ       Type
	enc       Encoding
	fold      bool // case-insensitive search
}

// minNeedleLen guards against false positives from very short values
// matching incidental substrings, mirroring ReCon's length filter.
const minNeedleLen = 3

// NewMatcher precompiles the search needles for a ground-truth record.
func NewMatcher(rec *Record) *Matcher {
	m := &Matcher{}
	encs := Encoders()
	// Dedup key: the encoding plus the needle text, folded for
	// case-insensitive needles.
	type needleKey struct {
		enc  Encoding
		text string
	}
	vals := rec.Values()
	seen := make(map[needleKey]bool, len(vals)*len(encs))
	for _, v := range vals {
		for _, e := range encs {
			t := e.Apply(v.Text)
			if len(t) < minNeedleLen {
				continue
			}
			// Case-insensitive matching only makes sense for textual
			// encodings; digests and base64 are case-sensitive by nature
			// (except hex digests, which appear in both cases — cover via
			// fold on pure-hex needles).
			fold := e.Name == EncIdentity || e.Name == EncLower || e.Name == EncUpper ||
				e.Name == EncURL || e.Name == EncHex || e.OneWay
			key := needleKey{e.Name, t}
			if fold {
				key.text = asciiLower(t)
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			m.needles = append(m.needles, needle{
				text:      t,
				plaintext: v.Text,
				typ:       v.Type,
				enc:       e.Name,
				fold:      fold,
			})
		}
	}
	for i := range m.needles {
		if n := len(m.needles[i].text) - 1; n > m.maxLookbehind {
			m.maxLookbehind = n
		}
	}
	m.ac = buildAutomaton(m.needles)
	m.scanners.New = func() any { return m.NewScanner() }
	return m
}

// NumNeedles reports how many precompiled needles the matcher scans for.
func (m *Matcher) NumNeedles() int { return len(m.needles) }

// Scan searches one labeled section of flow content (e.g. the URL, the
// header block, or the body) and returns all matches found, deduplicated by
// (type, value, encoding). It borrows a pooled Scanner; batch callers
// should hold their own (NewScanner) to skip the pool round-trip.
func (m *Matcher) Scan(where, content string) []Match {
	sc := m.scanners.Get().(*Scanner)
	out := sc.Scan(where, content)
	m.scanners.Put(sc)
	return out
}

// ScanAll scans several sections at once; the map key is the section name.
func (m *Matcher) ScanAll(sections map[string]string) []Match {
	sc := m.scanners.Get().(*Scanner)
	out := sc.ScanAll(sections)
	m.scanners.Put(sc)
	return out
}

// Scanner is reusable per-goroutine scratch state for streaming many flows
// through one Matcher without per-flow allocations. Not safe for concurrent
// use; the Matcher it came from is.
type Scanner struct {
	m     *Matcher
	epoch uint32
	seen  []uint32 // per-needle epoch stamp: seen[i] == epoch ⇔ already hit
}

// NewScanner returns scratch state bound to the matcher.
func (m *Matcher) NewScanner() *Scanner {
	return &Scanner{m: m, seen: make([]uint32, len(m.needles))}
}

// Scan is Matcher.Scan on this scanner's scratch state: one automaton pass
// over the content, case-folding bytes on the fly.
func (s *Scanner) Scan(where, content string) []Match {
	if content == "" || len(s.m.needles) == 0 {
		return nil
	}
	matchMetrics.scans.Inc()
	matchMetrics.needles.Add(int64(len(s.m.needles)))
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps from 4B scans ago are stale
		clear(s.seen)
		s.epoch = 1
	}
	ac := s.m.ac
	nc := ac.numClasses
	st := int32(0)
	var out []Match
	for i := 0; i < len(content); i++ {
		st = ac.next[int(st)*nc+int(ac.classOf[foldByte(content[i])])]
		outs := ac.outputs[st]
		if len(outs) == 0 {
			continue
		}
		for _, ni := range outs {
			if s.seen[ni] == s.epoch {
				continue
			}
			n := &s.m.needles[ni]
			if !n.fold {
				// The automaton matched case-folded bytes; a
				// case-sensitive needle must also match the raw content
				// at this position. A failed check leaves the needle
				// eligible: a later occurrence may match exactly.
				if content[i+1-len(n.text):i+1] != n.text {
					continue
				}
			}
			s.seen[ni] = s.epoch
			if c := matchMetrics.hits[n.enc]; c != nil {
				c.Inc()
			}
			out = append(out, Match{Type: n.typ, Value: n.plaintext, Encoding: n.enc, Where: where})
		}
	}
	sortMatches(out)
	return out
}

// ScanAll is Matcher.ScanAll on this scanner's scratch state.
func (s *Scanner) ScanAll(sections map[string]string) []Match {
	names := make([]string, 0, len(sections))
	for k := range sections {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []Match
	for _, name := range names {
		out = append(out, s.Scan(name, sections[name])...)
	}
	return out
}

// scanNaive is the pre-automaton reference implementation: one
// strings.Contains pass per needle. It is retained verbatim (metrics
// aside) as the oracle for the differential fuzz test and the baseline
// side of the scan benchmarks; the automaton must return exactly its
// match sets.
func (m *Matcher) scanNaive(where, content string) []Match {
	if content == "" {
		return nil
	}
	lower := ""
	var out []Match
	type dedup struct {
		t Type
		v string
		e Encoding
	}
	found := make(map[dedup]bool)
	for i := range m.needles {
		n := &m.needles[i]
		var hit bool
		if n.fold {
			if lower == "" {
				// ASCII-only folding, matching the redactor: see
				// asciiLower for why strings.ToLower is unsuitable.
				lower = asciiLower(content)
			}
			hit = strings.Contains(lower, asciiLower(n.text))
		} else {
			hit = strings.Contains(content, n.text)
		}
		if !hit {
			continue
		}
		k := dedup{n.typ, n.plaintext, n.enc}
		if found[k] {
			continue
		}
		found[k] = true
		out = append(out, Match{Type: n.typ, Value: n.plaintext, Encoding: n.enc, Where: where})
	}
	sortMatches(out)
	return out
}

// MatchTypes summarizes matches into the set of PII classes present.
func MatchTypes(ms []Match) TypeSet {
	var s TypeSet
	for _, m := range ms {
		s = s.Add(m.Type)
	}
	return s
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Type != ms[j].Type {
			return ms[i].Type < ms[j].Type
		}
		if ms[i].Value != ms[j].Value {
			return ms[i].Value < ms[j].Value
		}
		return ms[i].Encoding < ms[j].Encoding
	})
}
