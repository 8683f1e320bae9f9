package pii

import (
	"strings"
)

// RedactionMark replaces PII values removed from a flow.
const RedactionMark = "__redacted__"

// Redactor removes ground-truth PII values from flow content under every
// supported encoding. It implements the protection direction the paper's
// conclusion proposes ("how we might augment ReCon to provide improved
// protection"): the same value knowledge that detects leaks can rewrite
// them before they leave the measurement proxy.
type Redactor struct {
	needles []needle // the matcher's needles, longest first
}

// NewRedactor precompiles replacement needles for a ground-truth record.
func NewRedactor(rec *Record) *Redactor {
	// Longest needles first so that "Jane Doering" is redacted before
	// "Doering" could split it.
	needles := needlesFor(rec)
	for i := 1; i < len(needles); i++ {
		for j := i; j > 0 && len(needles[j].text) > len(needles[j-1].text); j-- {
			needles[j], needles[j-1] = needles[j-1], needles[j]
		}
	}
	return &Redactor{needles: needles}
}

// Redact replaces every occurrence of the record's values (under any
// encoding) restricted to the given classes. It returns the rewritten
// content and the set of classes actually redacted. Types outside the
// filter are left untouched; pass the full set to scrub everything.
func (r *Redactor) Redact(content string, types TypeSet) (string, TypeSet) {
	if content == "" || types.Empty() {
		return content, 0
	}
	var hit TypeSet
	for i := range r.needles {
		n := &r.needles[i]
		if !types.Contains(n.typ) {
			continue
		}
		var replaced bool
		content, replaced = replaceFold(content, n.text, RedactionMark, n.fold)
		if replaced {
			hit = hit.Add(n.typ)
		}
	}
	return content, hit
}

// replaceFold replaces all occurrences of needle in s, optionally
// case-insensitively, reporting whether anything was replaced. Folding is
// ASCII-only and length-preserving: strings.ToLower would re-encode
// invalid UTF-8 bytes (1 byte → 3), desynchronizing the index math
// between the folded copy and the original.
func replaceFold(s, needle, replacement string, fold bool) (string, bool) {
	if needle == "" {
		return s, false
	}
	if !fold {
		if !strings.Contains(s, needle) {
			return s, false
		}
		return strings.ReplaceAll(s, needle, replacement), true
	}
	lower := asciiLower(s)
	ln := asciiLower(needle)
	if !strings.Contains(lower, ln) {
		return s, false
	}
	var b strings.Builder
	for {
		i := strings.Index(lower, ln)
		if i < 0 {
			b.WriteString(s)
			return b.String(), true
		}
		b.WriteString(s[:i])
		b.WriteString(replacement)
		s = s[i+len(ln):]
		lower = lower[i+len(ln):]
	}
}

// asciiLower lowercases ASCII letters byte-wise, leaving every other byte
// (including invalid UTF-8) untouched so offsets stay aligned with the
// input. PII needles are ASCII, so this fold is sufficient for matching.
func asciiLower(s string) string {
	hasUpper := false
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			hasUpper = true
			break
		}
	}
	if !hasUpper {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}
