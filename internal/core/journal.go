package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"

	"appvsweb/internal/services"
)

// JournalRecord is one line of the campaign journal: the terminal outcome
// of one experiment — a measured result, a pinning exclusion, or a
// skipped failure. Records carry everything resume needs to reproduce the
// experiment's contribution to the dataset without re-running it.
type JournalRecord struct {
	Service string          `json:"service"`
	OS      services.OS     `json:"os"`
	Medium  services.Medium `json:"medium"`
	// Attempts counts how many attempts the experiment took (1 = no
	// retries).
	Attempts int `json:"attempts,omitempty"`
	// Skipped marks an experiment the failure policy gave up on; Stage
	// and Error describe the terminal failure.
	Skipped bool              `json:"skipped,omitempty"`
	Stage   string            `json:"stage,omitempty"`
	Error   string            `json:"error,omitempty"`
	Result  *ExperimentResult `json:"result"`
}

func (r *JournalRecord) key() string {
	return ExperimentKey(r.Service, services.Cell{OS: r.OS, Medium: r.Medium})
}

// ExperimentKey canonically names one experiment (service × OS × medium).
// Components are %-escaped ("%" → "%25", "/" → "%2F") before joining with
// "/", so a component containing a slash can never alias another cell —
// raw concatenation is ambiguous, and the ambiguity becomes load-bearing
// the moment per-shard journals from independent workers are merged into
// one set. For slash-free names (the entire shipped catalog) the key reads
// exactly as before: "service/os/medium". The shard planner keys shards by
// the same function, so journal keys and shard-assignment keys can never
// disagree.
func ExperimentKey(service string, cell services.Cell) string {
	return escapeKeyPart(service) + "/" + escapeKeyPart(string(cell.OS)) + "/" + escapeKeyPart(string(cell.Medium))
}

// escapeKeyPart escapes the two metacharacters of the key grammar. The
// fast path returns the input untouched: catalog keys never contain them.
func escapeKeyPart(s string) string {
	if !strings.ContainsAny(s, "/%") {
		return s
	}
	s = strings.ReplaceAll(s, "%", "%25")
	return strings.ReplaceAll(s, "/", "%2F")
}

// Journal is the crash-safe campaign checkpoint: an append-only JSONL
// file with one record per completed experiment, fsync'd after every
// append so a SIGKILL'd campaign loses at most the experiments still in
// flight. avwrun -resume replays it to continue where the process died.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

// CreateJournal opens (or continues) a journal file for appending. An
// existing file's tail is validated first: a crash mid-append can leave a
// torn final line (the write raced the kill, the fsync never ran), and
// appending the next record after it would fuse both into one corrupt
// line in the middle of the file — corruption LoadJournal rightly rejects,
// killing the exact resume the journal exists to enable. Torn or
// undecodable trailing lines are truncated away before the journal
// accepts appends; the experiments they described simply re-run.
func CreateJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: open journal: %w", err)
	}
	if err := repairJournalTail(f); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: seek journal: %w", err)
	}
	return &Journal{f: f, enc: json.NewEncoder(f)}, nil
}

// DecodeJournalRecord decodes one journal line and validates it: a record
// must carry a result or mark a skipped experiment. It is the one rule
// LoadJournal, CreateJournal's tail repair and live tails apply to a line.
func DecodeJournalRecord(line []byte) (JournalRecord, error) {
	var rec JournalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, err
	}
	if rec.Result == nil && !rec.Skipped {
		return rec, errors.New("record without result")
	}
	return rec, nil
}

// repairJournalTail truncates a torn tail off an existing journal: the
// trailing run of lines (unterminated or undecodable) after the last
// valid record. Only a pure suffix is dropped — an invalid line followed
// by later valid records is real mid-file corruption, which is left in
// place for LoadJournal to reject rather than silently destroying data.
func repairJournalTail(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("core: stat journal: %w", err)
	}
	if info.Size() == 0 {
		return nil
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	var offset, validEnd int64 // validEnd: byte offset after the last line of the valid prefix
	brokenSince := false       // an invalid line was seen after validEnd
	for sc.Scan() {
		line := sc.Bytes()
		offset += int64(len(line)) + 1 // the scanner strips the '\n'
		if offset > info.Size() {
			// Final line without a trailing newline: torn mid-write.
			brokenSince = true
			break
		}
		if _, err := DecodeJournalRecord(line); len(line) == 0 || err == nil {
			if brokenSince {
				// Valid records resume after an invalid line: not a torn
				// tail. Leave the file for LoadJournal to diagnose.
				return nil
			}
			validEnd = offset
			continue
		}
		brokenSince = true
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("core: read journal: %w", err)
	}
	if !brokenSince || validEnd == info.Size() {
		return nil
	}
	if err := f.Truncate(validEnd); err != nil {
		return fmt.Errorf("core: truncate torn journal tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("core: sync journal repair: %w", err)
	}
	return nil
}

// Append writes one record and forces it to stable storage.
func (j *Journal) Append(rec JournalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.enc.Encode(rec); err != nil {
		return fmt.Errorf("core: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("core: journal sync: %w", err)
	}
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// JournalSet is the keep-last fold of journal records, indexed by
// experiment: a later record for the same experiment replaces an earlier
// one. The zero value is an empty set ready for Add. Every campaign
// dataset — single-process, resumed, sharded, live or loaded from a
// saved journal — is built from one by Dataset.
type JournalSet struct {
	recs map[string]JournalRecord
}

// Add folds one record into the set, replacing any earlier record for
// the same experiment.
func (s *JournalSet) Add(rec JournalRecord) {
	if s.recs == nil {
		s.recs = make(map[string]JournalRecord)
	}
	s.recs[rec.key()] = rec
}

// Lookup finds the journaled outcome of one experiment.
func (s *JournalSet) Lookup(service string, cell services.Cell) (JournalRecord, bool) {
	if s == nil {
		return JournalRecord{}, false
	}
	rec, ok := s.recs[ExperimentKey(service, cell)]
	return rec, ok
}

// Len reports how many distinct experiments the journal covers.
func (s *JournalSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.recs)
}

// Keys lists the journaled experiment keys (ExperimentKey form,
// "service/os/medium" with escaped components), sorted.
func (s *JournalSet) Keys() []string {
	if s == nil {
		return nil
	}
	out := make([]string, 0, len(s.recs))
	for k := range s.recs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Records returns the journaled outcomes (last record per experiment),
// sorted by service, OS, medium — the deterministic order a dataset built
// from the journal uses.
func (s *JournalSet) Records() []JournalRecord {
	if s == nil {
		return nil
	}
	out := make([]JournalRecord, 0, len(s.recs))
	for _, rec := range s.recs {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.OS != b.OS {
			return a.OS < b.OS
		}
		return a.Medium < b.Medium
	})
	return out
}

// Dataset builds the campaign dataset the set records: results and
// failures in (service, OS, medium) order, and Meta.Services counting the
// services that have a result. The caller's meta supplies what the
// journal does not carry (Scale, Duration, GeneratedAt, StaleResume, the
// ReCon reports); its Services and Failures are replaced. Every producer
// folds through this one function, so the same records give the same
// dataset whether they came from one process, a resume, a sharded merge,
// a live tail or a journal load.
func (s *JournalSet) Dataset(meta Meta) *Dataset {
	ds := &Dataset{Meta: meta}
	ds.Meta.Failures = nil
	seen := make(map[string]bool)
	for _, rec := range s.Records() {
		if rec.Result != nil {
			ds.Results = append(ds.Results, rec.Result)
			seen[rec.Service] = true
		}
		if rec.Skipped {
			ds.Meta.Failures = append(ds.Meta.Failures, FailureRecord{
				Service: rec.Service, OS: rec.OS, Medium: rec.Medium,
				Stage: rec.Stage, Attempts: rec.Attempts, Error: rec.Error,
			})
		}
	}
	ds.Meta.Services = len(seen)
	return ds
}

// MergeJournals folds several campaign journals — typically the
// per-shard journals of one distributed campaign — into a single set.
// Within one journal the last record per experiment wins (LoadJournal's
// rule); across journals, later paths win, so callers pass paths in a
// deterministic order (sorted shard order). Duplicate records across
// journals are expected and harmless: a reassigned shard re-runs
// deterministic experiments, so any overlap re-asserts the same outcome.
// Dataset() of the merged set — and therefore the rendered report — is
// byte-identical to a single-process run over the same matrix, because
// the sort order depends only on (service, OS, medium). A missing path
// contributes nothing: a shard that died before journaling anything (and
// was given up on under a skip policy) has no records to merge.
func MergeJournals(paths ...string) (*JournalSet, error) {
	merged := &JournalSet{}
	for _, p := range paths {
		set, err := LoadJournal(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, rec := range set.recs {
			merged.Add(rec)
		}
	}
	return merged, nil
}

// LoadJournal reads a campaign journal for resumption. A corrupt final
// line is tolerated (the crash may have interrupted the write before the
// fsync); corruption anywhere else is an error. Duplicate records for one
// experiment keep the last — a resumed run may legitimately re-append.
func LoadJournal(path string) (*JournalSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open journal: %w", err)
	}
	defer f.Close()

	set := &JournalSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if pendingErr != nil {
			// The undecodable line was not the last one: real corruption.
			return nil, pendingErr
		}
		rec, err := DecodeJournalRecord(sc.Bytes())
		if err != nil {
			pendingErr = fmt.Errorf("core: journal %s line %d: %w", path, line, err)
			continue
		}
		set.Add(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: read journal: %w", err)
	}
	return set, nil
}
