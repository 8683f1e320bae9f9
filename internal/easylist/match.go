package easylist

import (
	"strings"
)

// Match reports whether the request is blocked by the list: some block rule
// matches and no exception rule does. The matching block rule is returned
// for attribution.
func (l *List) Match(req Request) (*Rule, bool) {
	url := strings.ToLower(req.URL)
	host := strings.ToLower(req.Host)

	blocked := l.matchRules(url, host, req, false)
	if blocked == nil {
		return nil, false
	}
	if l.matchRules(url, host, req, true) != nil {
		return nil, false // exception overrides
	}
	return blocked, true
}

// MatchHost is the convenience the paper's methodology needs: does this
// destination domain belong to the A&A ecosystem? It classifies the host
// independent of a concrete resource path by probing a canonical URL as a
// third-party request.
func (l *List) MatchHost(host string) bool {
	_, ok := l.MatchHostRule(host)
	return ok
}

// MatchHostRule is MatchHost with attribution: it returns the block rule
// that classified the host as A&A, for leak provenance and trace events.
func (l *List) MatchHostRule(host string) (*Rule, bool) {
	host = strings.ToLower(host)
	req := Request{
		URL:        "http://" + host + "/",
		Host:       host,
		ThirdParty: true,
	}
	blocked := l.matchRules(req.URL, host, req, false)
	if blocked == nil {
		return nil, false
	}
	if l.matchRules(req.URL, host, req, true) != nil {
		return nil, false // exception overrides
	}
	return blocked, true
}

func (l *List) matchRules(url, host string, req Request, exception bool) *Rule {
	idx, generic := l.hostIndex, l.block
	if exception {
		idx, generic = l.exceptIdx, l.except
	}
	// Indexed domain-anchored rules: walk host suffixes ("a.b.c" tries
	// "a.b.c", "b.c", "c").
	h := host
	for {
		for _, r := range idx[h] {
			if r.matches(url, req) {
				return r
			}
		}
		i := strings.IndexByte(h, '.')
		if i < 0 {
			break
		}
		h = h[i+1:]
	}
	for _, r := range generic {
		if r.matches(url, req) {
			return r
		}
	}
	return nil
}

// matches applies the rule's options and pattern to one request.
func (r *Rule) matches(url string, req Request) bool {
	if r.ThirdParty != nil && *r.ThirdParty != req.ThirdParty {
		return false
	}
	if len(r.Domains) > 0 && !hostMatchesAny(req.OriginHost, r.Domains) {
		return false
	}
	if len(r.ExcludedDomains) > 0 && hostMatchesAny(req.OriginHost, r.ExcludedDomains) {
		return false
	}
	switch {
	case r.DomainAnchor:
		for _, start := range domainAnchorStarts(url) {
			if matchPattern(r.Pattern, url[start:], r.EndAnchor) {
				return true
			}
		}
		return false
	case r.StartAnchor:
		return matchPattern(r.Pattern, url, r.EndAnchor)
	default:
		// Unanchored: try every start position. Use the first literal run
		// of the pattern to skip ahead when one exists.
		if lit := literalPrefix(r.Pattern); lit != "" {
			from := 0
			for from <= len(url) {
				j := strings.Index(url[from:], lit)
				if j < 0 {
					return false
				}
				idx := from + j
				if matchPattern(r.Pattern, url[idx:], r.EndAnchor) {
					return true
				}
				from = idx + 1
			}
			return false
		}
		for i := 0; i <= len(url); i++ {
			if matchPattern(r.Pattern, url[i:], r.EndAnchor) {
				return true
			}
		}
		return false
	}
}

func hostMatchesAny(host string, domains []string) bool {
	host = strings.ToLower(host)
	for _, d := range domains {
		if host == d || strings.HasSuffix(host, "."+d) {
			return true
		}
	}
	return false
}

// domainAnchorStarts lists the URL offsets where a || rule may begin
// matching: the start of the host, and after each dot inside the host.
func domainAnchorStarts(url string) []int {
	hostStart := 0
	if i := strings.Index(url, "://"); i >= 0 {
		hostStart = i + 3
	}
	hostEnd := len(url)
	for i := hostStart; i < len(url); i++ {
		if c := url[i]; c == '/' || c == '?' || c == '#' || c == ':' {
			hostEnd = i
			break
		}
	}
	starts := []int{hostStart}
	for i := hostStart; i < hostEnd; i++ {
		if url[i] == '.' {
			starts = append(starts, i+1)
		}
	}
	return starts
}

// literalPrefix returns the leading run of pattern characters with no
// wildcard or separator class, used to accelerate unanchored scans.
func literalPrefix(p string) string {
	for i := 0; i < len(p); i++ {
		if p[i] == '*' || p[i] == '^' {
			return p[:i]
		}
	}
	return p
}

// isSeparator implements ABP's '^': any character that is not a letter, a
// digit, or one of "_-.%".
func isSeparator(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return false
	case c == '_' || c == '-' || c == '.' || c == '%':
		return false
	}
	return true
}

// matchPattern matches pattern p against s anchored at the start of s.
// '*' matches any run (including empty); '^' matches one separator
// character, or the end of s. If endAnchor is set, the whole of s must be
// consumed.
func matchPattern(p, s string, endAnchor bool) bool {
	// Iterative wildcard matching with backtracking.
	var starP, starS = -1, 0
	i, j := 0, 0 // i into p, j into s
	for {
		if i == len(p) {
			if !endAnchor || j == len(s) {
				return true
			}
		} else {
			switch c := p[i]; c {
			case '*':
				starP, starS = i, j
				i++
				continue
			case '^':
				if j < len(s) && isSeparator(s[j]) {
					i++
					j++
					continue
				}
				if j == len(s) {
					// Trailing '^' (possibly followed only by more '^' or
					// end) may match the end of the address.
					i++
					continue
				}
			default:
				if j < len(s) && s[j] == c {
					i++
					j++
					continue
				}
			}
		}
		// Mismatch: backtrack to the last '*', consuming one more char.
		if starP >= 0 && starS < len(s) {
			starS++
			i, j = starP+1, starS
			continue
		}
		return false
	}
}
