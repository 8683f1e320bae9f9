package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Store is the persistent artifact cache: a content-addressed on-disk
// mirror of the engine's in-memory cache, keyed by (dataset fingerprint,
// artifact ID). Because the key is a SHA-256 of the dataset content — not a campaign name or a timestamp — a restarted
// server, or a second replica pointed at the same directory, rehydrates
// every artifact it has ever computed instead of recomputing, and two
// campaigns that measured identical content share entries.
//
// Layout on disk (docs/serving.md):
//
//	<dir>/<fp[:2]>/<fp>-<artifact id>
//
// where fp is the full 64-hex-char dataset fingerprint. Each entry is one
// JSON header line (version, fingerprint, artifact ID, content type,
// payload SHA-256, payload length) followed by the raw artifact bytes.
//
// Reads are verified before trust: the header's fingerprint and ID must
// match the request, and the payload must hash to the header's SHA-256.
// An entry that fails verification is deleted (the next request recomputes
// and rewrites it) and reported as an error so the caller can count it.
// Writes are atomic (temp file + rename), so a crashed writer never leaves
// a half-written entry visible.
//
// The store performs no eviction of its own: entries are immutable and
// content-addressed, so operators prune by age (see docs/serving.md for
// the find(1) one-liner). The engine only persists artifacts of static
// datasets — live partial folds change every few hundred milliseconds and
// would churn the directory for entries that are never read back.
type Store struct {
	dir string
}

// storeHeader is the first line of every entry.
type storeHeader struct {
	Version     int    `json:"v"`
	View        string `json:"view"` // the dataset fingerprint
	ID          string `json:"id"`
	ContentType string `json:"content_type"`
	SHA256      string `json:"sha256"`
	Len         int    `json:"len"`
}

const storeVersion = 1

// OpenStore opens (creating if needed) a persistent artifact store rooted
// at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("analysis: store directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("analysis: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(fp, id string) string {
	return filepath.Join(s.dir, fp[:2], fp+"-"+id)
}

// Get looks up one artifact by dataset fingerprint and ID. It returns
// (payload, true, nil) on a verified hit, (nil, false, nil) on a miss, and
// a non-nil error when an entry exists but fails verification or cannot be
// read — in which case the corrupt entry has been deleted so the next
// request recomputes it.
func (s *Store) Get(fp, id string) ([]byte, bool, error) {
	if len(fp) < 2 {
		return nil, false, fmt.Errorf("analysis: store get: short fingerprint %q", fp)
	}
	path := s.path(fp, id)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("analysis: store get: %w", err)
	}
	payload, err := verifyEntry(data, fp, id)
	if err != nil {
		os.Remove(path) // self-heal: drop the bad entry, recompute next time
		return nil, false, fmt.Errorf("analysis: store entry %s: %w", filepath.Base(path), err)
	}
	return payload, true, nil
}

// verifyEntry parses and checks one entry against the requested key.
func verifyEntry(data []byte, fp, id string) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("missing header line")
	}
	var hdr storeHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil, fmt.Errorf("undecodable header: %w", err)
	}
	if hdr.Version != storeVersion {
		return nil, fmt.Errorf("version %d, want %d", hdr.Version, storeVersion)
	}
	if hdr.View != fp || hdr.ID != id {
		return nil, fmt.Errorf("keyed (%.8s…, %s), want (%.8s…, %s)", hdr.View, hdr.ID, fp, id)
	}
	payload := data[nl+1:]
	if len(payload) != hdr.Len {
		return nil, fmt.Errorf("payload %d bytes, header says %d", len(payload), hdr.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != hdr.SHA256 {
		return nil, fmt.Errorf("payload hash mismatch")
	}
	return payload, nil
}

// Put persists one artifact atomically. An existing entry for the same key
// is overwritten (the content is identical by construction — the key is a
// hash of what produced it).
func (s *Store) Put(fp, id, contentType string, payload []byte) error {
	if len(fp) < 2 {
		return fmt.Errorf("analysis: store put: short fingerprint %q", fp)
	}
	dir := filepath.Join(s.dir, fp[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("analysis: store put: %w", err)
	}
	sum := sha256.Sum256(payload)
	hdr, err := json.Marshal(storeHeader{
		Version: storeVersion, View: fp, ID: id, ContentType: contentType,
		SHA256: hex.EncodeToString(sum[:]), Len: len(payload),
	})
	if err != nil {
		return fmt.Errorf("analysis: store put: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-"+id+"-")
	if err != nil {
		return fmt.Errorf("analysis: store put: %w", err)
	}
	_, werr := tmp.Write(append(append(hdr, '\n'), payload...))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("analysis: store put: write %v, close %v", werr, cerr)
	}
	if err := os.Rename(tmp.Name(), s.path(fp, id)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("analysis: store put: %w", err)
	}
	return nil
}

// Len walks the store and reports how many entries it holds (a test and
// operations helper, not a hot path).
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && !bytes.HasPrefix([]byte(d.Name()), []byte(".tmp-")) {
			n++
		}
		return nil
	})
	return n, err
}
