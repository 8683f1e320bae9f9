package pii

import (
	"appvsweb/internal/obs"
)

// Streaming detection (docs/inline.md): the batch Scanner needs the whole
// content in memory before it can walk the automaton; the inline proxy
// gateway sees bodies one Write at a time. StreamScanner feeds the same
// DFA incrementally — the carried State preserves match progress across
// chunk boundaries, so a needle split between two Writes (mid-base64
// quantum, mid-URL escape) is still caught — and reports every occurrence
// in absolute stream coordinates.
//
// Case-sensitive needles (base64 and friends) need one extra mechanism:
// the automaton matches case-folded bytes, and the raw-byte verification
// at a hit position may reach back into bytes from earlier chunks. The
// scanner keeps a bounded lookbehind window of the last maxLookbehind raw
// bytes for exactly this; maxLookbehind is the longest needle minus one
// (at least one byte of any occurrence lies in the current chunk), so the
// window never grows with the stream.

var streamMetrics = struct {
	bytes *obs.Counter
}{
	bytes: obs.Default.Counter("pii.stream.bytes_total"),
}

// State is a resumable position in a Matcher's DFA — the minimal handle a
// streaming consumer needs to carry match progress across content
// boundaries without copying the automaton. The zero State is the start
// state. A State is only meaningful for the Matcher that produced it
// (see doc.go for the full invariant).
type State struct{ s int32 }

// Step advances the state by one content byte (case-folded internally,
// like Scanner.Scan) and reports how many needles end at the new
// position. A non-zero count is a *candidate* hit: case-sensitive needles
// still require raw-byte verification against the preceding content,
// which StreamScanner performs via its lookbehind window.
func (m *Matcher) Step(st State, b byte) (State, int) {
	ac := m.ac
	i := int(st.s)*ac.numClasses + int(ac.classOf[foldByte(b)])
	var next int32
	if ac.next16 != nil {
		next = int32(ac.next16[i])
	} else {
		next = ac.next32[i]
	}
	return State{next}, len(ac.outputs[next])
}

// StreamMatch is one needle occurrence found by a StreamScanner. Start
// and End are absolute stream offsets (End is one past the occurrence's
// last byte), valid regardless of how the stream was chunked.
type StreamMatch struct {
	Match
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// StreamScanner is an incremental Matcher pass over one content stream.
// Feed chunks with Write/WriteString in stream order; Matches reports the
// occurrences found so far. Semantics match the batch Scanner exactly:
// the first occurrence of each needle is reported, later ones are
// deduplicated, and a failed case-sensitive verification leaves the
// needle eligible for a later exact occurrence. Not safe for concurrent
// use; the Matcher it came from is.
type StreamScanner struct {
	m     *Matcher
	where string
	st    State
	off   int64  // absolute offset of the next byte Write will see
	tail  []byte // last maxLookbehind raw bytes of the stream
	epoch uint32
	seen  []uint32 // per-needle epoch stamp, as in Scanner
	out   []StreamMatch
}

// NewStreamScanner returns a scanner for one stream whose matches are
// labeled with the given section name.
func (m *Matcher) NewStreamScanner(where string) *StreamScanner {
	return &StreamScanner{
		m:     m,
		where: where,
		epoch: 1,
		seen:  make([]uint32, len(m.needles)),
	}
}

// Reset rebinds the scanner to a fresh stream, keeping its allocations —
// the pool-reuse entry point for the proxy's inline gateway.
func (s *StreamScanner) Reset(where string) {
	s.where = where
	s.st = State{}
	s.off = 0
	s.tail = s.tail[:0]
	s.out = s.out[:0]
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps from 4B streams ago are stale
		clear(s.seen)
		s.epoch = 1
	}
}

// Offset returns the number of stream bytes consumed so far — the
// absolute coordinate the next Write starts at.
func (s *StreamScanner) Offset() int64 { return s.off }

// Matches returns the occurrences found so far, in stream order. The
// slice aliases scanner state: copy it before Reset if it must outlive
// this stream.
func (s *StreamScanner) Matches() []StreamMatch { return s.out }

// Types summarizes the PII classes seen so far.
func (s *StreamScanner) Types() TypeSet {
	var t TypeSet
	for i := range s.out {
		t = t.Add(s.out[i].Type)
	}
	return t
}

// Write feeds the next chunk of the stream through the automaton. It
// never fails; the io.Writer signature lets the scanner sit directly on
// an io.TeeReader/io.MultiWriter relay path.
func (s *StreamScanner) Write(p []byte) (int, error) {
	m := s.m
	if len(p) == 0 {
		return 0, nil
	}
	streamMetrics.bytes.Add(int64(len(p)))
	if len(m.needles) == 0 {
		s.off += int64(len(p))
		return len(p), nil
	}
	if next := m.ac.next16; next != nil {
		streamChunk(s, next, p)
	} else {
		streamChunk(s, m.ac.next32, p)
	}
	s.updateTail(p)
	s.off += int64(len(p))
	return len(p), nil
}

// streamChunk is Write's automaton pass over one transition-table width.
func streamChunk[T stateIndex](s *StreamScanner, next []T, p []byte) {
	m := s.m
	ac := m.ac
	nc := ac.numClasses
	st := int(s.st.s)
	for i := 0; i < len(p); i++ {
		st = int(next[st*nc+int(ac.classOf[foldByte(p[i])])])
		outs := ac.outputs[st]
		if len(outs) == 0 {
			continue
		}
		end := s.off + int64(i) + 1
		for _, ni := range outs {
			if s.seen[ni] == s.epoch {
				continue
			}
			n := &m.needles[ni]
			if !n.fold && !s.verifyRaw(p, i, n.text) {
				// As in the batch scanner: a failed raw check leaves the
				// needle eligible for a later exact occurrence.
				continue
			}
			s.seen[ni] = s.epoch
			if c := matchMetrics.hits[n.enc]; c != nil {
				c.Inc()
			}
			s.out = append(s.out, StreamMatch{
				Match: Match{Type: n.typ, Value: n.plaintext, Encoding: n.enc, Where: s.where},
				Start: end - int64(len(n.text)),
				End:   end,
			})
		}
	}
	s.st.s = int32(st)
}

// WriteString is Write for string chunks (copies once; the relay hot
// path hands the scanner []byte chunks and never pays this).
func (s *StreamScanner) WriteString(chunk string) (int, error) {
	return s.Write([]byte(chunk))
}

// verifyRaw checks that the raw (unfolded) stream bytes of an occurrence
// ending at p[i] equal text. The occurrence may begin before this chunk;
// those bytes come from the lookbehind window.
func (s *StreamScanner) verifyRaw(p []byte, i int, text string) bool {
	n := len(text)
	inChunk := i + 1 // occurrence bytes available in p
	if inChunk >= n {
		start := i + 1 - n
		for k := 0; k < n; k++ {
			if p[start+k] != text[k] {
				return false
			}
		}
		return true
	}
	fromTail := n - inChunk
	if fromTail > len(s.tail) {
		// The occurrence would begin before the stream itself (the DFA
		// cannot produce this) or before the window; refuse the hit.
		return false
	}
	base := len(s.tail) - fromTail
	for k := 0; k < fromTail; k++ {
		if s.tail[base+k] != text[k] {
			return false
		}
	}
	for k := 0; k < inChunk; k++ {
		if p[k] != text[fromTail+k] {
			return false
		}
	}
	return true
}

// updateTail keeps s.tail equal to the last maxLookbehind bytes of the
// stream consumed so far.
func (s *StreamScanner) updateTail(p []byte) {
	max := s.m.maxLookbehind
	if max == 0 {
		return
	}
	if len(p) >= max {
		s.tail = append(s.tail[:0], p[len(p)-max:]...)
		return
	}
	keep := max - len(p)
	if keep > len(s.tail) {
		keep = len(s.tail)
	}
	copy(s.tail, s.tail[len(s.tail)-keep:])
	s.tail = append(s.tail[:keep], p...)
}

// MaxLookbehind reports the scanner's raw-byte lookbehind bound: the
// longest needle minus one byte. Diagnostics and docs only; the window is
// managed internally.
func (m *Matcher) MaxLookbehind() int { return m.maxLookbehind }
