package analysis

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"appvsweb/internal/core"
)

// Incremental mode: instead of waiting for a campaign to finish and
// loading its saved dataset, the engine can tail the campaign's crash-safe
// journal (core.Journal JSONL) while it is still being written. Each
// completed experiment record folds into a running partial dataset; the
// handle's generation bumps, the dataset fingerprint moves, and every
// artifact recomputes on its next request. The fold is a core.JournalSet, the same one a cold
// load builds, so a live tail that has seen the whole journal produces
// byte-identical artifacts to a cold load of the same file — the
// differential property live_test.go pins.

// JournalDataset folds a campaign journal into a (possibly partial)
// dataset with core.JournalSet.Dataset. Scale is recorded in Meta (the
// journal does not carry it).
func JournalDataset(path string, scale float64) (*core.Dataset, error) {
	set, err := core.LoadJournal(path)
	if err != nil {
		return nil, err
	}
	return set.Dataset(core.Meta{Scale: scale}), nil
}

// LiveOptions configure a journal tail.
type LiveOptions struct {
	// Scale is recorded in the partial dataset's Meta (journals do not
	// carry it; pass the campaign's -scale).
	Scale float64
	// Interval is the polling cadence of Run. Default 500ms.
	Interval time.Duration
}

// LiveTail tails one campaign journal into a registered live handle.
// Poll performs one incremental read — tests drive it directly for
// determinism; Run loops it on a timer for servers.
type LiveTail struct {
	h        *Handle
	path     string
	scale    float64
	interval time.Duration

	// Tail state: offset is the byte position up to which complete lines
	// have been consumed; set is the keep-last fold so far.
	offset int64
	set    core.JournalSet
	// Replacement detection: fileID is the FileInfo of the journal as last
	// consumed (os.SameFile catches a renamed-in replacement on a new
	// inode), and firstLine is the journal's first complete line including
	// its newline (a truncate-and-rewrite reuses the inode and can regrow
	// past offset between polls, but a fresh campaign's first record will
	// not be byte-identical at the same position).
	fileID    os.FileInfo
	firstLine []byte
}

// TailJournal registers a live handle (starting from an empty partial
// dataset) fed by polling the journal at path. The journal need not exist
// yet — a campaign that has not started simply yields no records. Call
// Poll or Run to make the handle track the file.
func (e *Engine) TailJournal(name, path string, opts LiveOptions) *LiveTail {
	if opts.Interval <= 0 {
		opts.Interval = 500 * time.Millisecond
	}
	t := &LiveTail{path: path, scale: opts.Scale, interval: opts.Interval}
	t.h = e.Register(name, t.set.Dataset(core.Meta{Scale: opts.Scale}))
	t.h.live = true
	return t
}

// Handle returns the live handle artifacts are requested from.
func (t *LiveTail) Handle() *Handle { return t.h }

// Poll performs one incremental read of the journal: consume newly
// appended complete lines, fold valid records, and — if anything changed —
// update the handle (bumping its generation and, when the fold changed the
// content, invalidating every artifact). It returns whether the
// dataset changed. A missing journal is not an error; a replaced journal
// (the campaign restarted without -resume) resets the fold. Replacement is
// detected three ways, because size alone is not enough — a fresh journal
// that grew to the old offset or past it between polls would otherwise be
// read from the middle of a record: the file shrank, the path now names a
// different file (os.SameFile), or the first journal line no longer
// matches the fingerprint remembered when it was first consumed.
func (t *LiveTail) Poll() (bool, error) {
	f, err := os.Open(t.path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("analysis: open live journal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("analysis: stat live journal: %w", err)
	}
	metrics := t.h.eng.metrics
	if replaced, err := t.journalReplaced(f, info); err != nil {
		return false, err
	} else if replaced {
		t.offset = 0
		t.set = core.JournalSet{}
		t.fileID = nil
		t.firstLine = nil
		metrics.Counter("analysis.live.resets_total").Inc()
	}
	if info.Size() == t.offset {
		t.fileID = info
		return false, nil
	}
	if _, err := f.Seek(t.offset, io.SeekStart); err != nil {
		return false, fmt.Errorf("analysis: seek live journal: %w", err)
	}
	buf, err := io.ReadAll(io.LimitReader(f, info.Size()-t.offset))
	if err != nil {
		return false, fmt.Errorf("analysis: read live journal: %w", err)
	}

	changed := false
	// Consume only '\n'-terminated lines: the final fragment may be a
	// record the campaign is mid-append on (core.Journal fsyncs whole
	// lines, but our read can race the write); it stays unconsumed until a
	// later poll sees its newline.
	for {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			break
		}
		line := buf[:nl]
		buf = buf[nl+1:]
		if t.offset == 0 {
			// Remember the journal's first complete line (newline included)
			// as the replacement fingerprint later polls verify.
			t.firstLine = append(append([]byte(nil), line...), '\n')
		}
		t.offset += int64(nl) + 1
		if len(line) == 0 {
			continue
		}
		rec, err := core.DecodeJournalRecord(line)
		if err != nil {
			// A complete-but-undecodable line; skip it, as LoadJournal
			// tolerates a torn final line and CreateJournal repairs it.
			metrics.Counter("analysis.live.bad_lines_total").Inc()
			continue
		}
		t.set.Add(rec)
		metrics.Counter("analysis.live.records_total").Inc()
		changed = true
	}
	t.fileID = info
	if !changed {
		return false, nil
	}

	t.h.Update(t.set.Dataset(core.Meta{Scale: t.scale}))
	metrics.Counter("analysis.live.folds_total").Inc()
	metrics.Gauge("analysis.live.experiments").Set(int64(t.set.Len()))
	return true, nil
}

// journalReplaced reports whether the file at the tail's path is no longer
// the journal the consumed prefix came from. Size regression is the
// classic signal, but it misses a fresh journal that regrew to ≥ offset
// between polls — hence the inode identity check and the first-line
// fingerprint (which also catches truncate-and-rewrite on the same inode).
func (t *LiveTail) journalReplaced(f *os.File, info os.FileInfo) (bool, error) {
	if t.offset == 0 {
		return false, nil // nothing consumed yet, nothing to invalidate
	}
	if info.Size() < t.offset {
		return true, nil // truncated under us
	}
	if t.fileID != nil && !os.SameFile(t.fileID, info) {
		return true, nil // the path names a different file now
	}
	if len(t.firstLine) > 0 {
		head := make([]byte, len(t.firstLine))
		if _, err := f.ReadAt(head, 0); err != nil {
			return false, fmt.Errorf("analysis: reread live journal head: %w", err)
		}
		if !bytes.Equal(head, t.firstLine) {
			return true, nil // same size class and inode, different content
		}
	}
	return false, nil
}

// Run polls until the context ends, logging nothing and ignoring transient
// read errors (the next tick retries). Servers run this in a goroutine.
func (t *LiveTail) Run(ctx context.Context) {
	tick := time.NewTicker(t.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if _, err := t.Poll(); err != nil {
				t.h.eng.metrics.Counter("analysis.live.poll_errors_total").Inc()
			}
		}
	}
}
