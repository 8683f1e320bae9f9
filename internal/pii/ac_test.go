package pii

import (
	"math/rand"
	"reflect"
	"testing"
)

// acCases are the needle sets the automaton build tests run on: two real
// records, plus a hand-made set with shared prefixes, a needle that is a
// prefix of another, case-folded duplicates and suffix needles, plus a
// set too large for a uint16 table.
func acCases() map[string][]needle {
	crafted := []needle{}
	for _, s := range []string{"abcde", "abcXY", "ABC", "abc", "bcd", "cde", "zzz", "Zzzz", "de"} {
		crafted = append(crafted, needle{text: s})
	}
	return map[string][]needle{
		"test-record":  NewMatcher(testRecord()).needles,
		"bench-record": NewMatcher(benchRecord()).needles,
		"crafted":      crafted,
		"wide":         wideNeedles(),
	}
}

// wideNeedles is a needle set whose trie has more than 65,535 states, so
// its automaton takes the int32 table: 4,000 random 20-letter values,
// every other one as its case-sensitive base64 encoding.
func wideNeedles() []needle {
	rng := rand.New(rand.NewSource(1))
	needles := make([]needle, 4000)
	for i := range needles {
		b := make([]byte, 20)
		for j := range b {
			b[j] = 'a' + byte(rng.Intn(26))
		}
		v := string(b)
		needles[i] = needle{text: v, plaintext: v, typ: Email, enc: EncIdentity, fold: true}
		if i%2 == 1 {
			needles[i].text, needles[i].enc, needles[i].fold = Encode(EncBase64, v), EncBase64, false
		}
	}
	return needles
}

// table32 returns a's transition table widened to int32.
func table32(a *automaton) []int32 {
	if a.next16 == nil {
		return a.next32
	}
	t := make([]int32, len(a.next16))
	for i, v := range a.next16 {
		t[i] = int32(v)
	}
	return t
}

// TestAutomatonStateCount: the trie has exactly one state per distinct
// non-empty prefix of the folded needles, plus the root.
func TestAutomatonStateCount(t *testing.T) {
	for name, needles := range acCases() {
		prefixes := map[string]bool{}
		for i := range needles {
			f := foldNeedle(&needles[i])
			for k := 1; k <= len(f); k++ {
				prefixes[f[:k]] = true
			}
		}
		m := &Matcher{ac: buildAutomaton(needles)}
		if got, want := m.NumStates(), 1+len(prefixes); got != want {
			t.Errorf("%s: NumStates = %d, want %d", name, got, want)
		}
	}
	if n := (&Matcher{}).NumStates(); n != 0 {
		t.Errorf("matcher without automaton: NumStates = %d, want 0", n)
	}
}

// TestAutomatonMatchesMapTrieBuild: the flat-array build produces the same
// dense table and output lists, entry for entry, as a reference build over
// a map-per-state goto trie with the same state numbering, and stores the
// table as uint16 exactly when the trie has fewer than 65,536 states.
func TestAutomatonMatchesMapTrieBuild(t *testing.T) {
	for name, needles := range acCases() {
		got, want := buildAutomaton(needles), buildAutomatonMaps(needles)
		if narrow := len(want.outputs) < 1<<16; (got.next16 != nil) != narrow || (got.next32 != nil) == narrow {
			t.Errorf("%s: %d states, uint16 table %v, int32 table %v", name, len(want.outputs), got.next16 != nil, got.next32 != nil)
		}
		if got.classOf != want.classOf || got.numClasses != want.numClasses {
			t.Errorf("%s: byte classes differ", name)
		}
		if !reflect.DeepEqual(table32(got), want.next32) {
			t.Errorf("%s: transition tables differ", name)
		}
		if !reflect.DeepEqual(got.outputs, want.outputs) {
			t.Errorf("%s: output lists differ", name)
		}
	}
}

// buildAutomatonMaps is the reference build: one map of children per trie
// state, states numbered in insertion order, outputs merged along fail
// links in BFS order, an int32 table at every size.
func buildAutomatonMaps(needles []needle) *automaton {
	a := &automaton{}
	nc := 1
	for i := range needles {
		t := foldNeedle(&needles[i])
		for j := 0; j < len(t); j++ {
			if b := t[j]; a.classOf[b] == 0 {
				a.classOf[b] = uint16(nc)
				nc++
			}
		}
	}
	a.numClasses = nc
	type node struct {
		children map[uint16]int32
		fail     int32
		outs     []int32
	}
	nodes := []node{{children: map[uint16]int32{}}}
	for i := range needles {
		t := foldNeedle(&needles[i])
		s := int32(0)
		for j := 0; j < len(t); j++ {
			c := a.classOf[t[j]]
			nx, ok := nodes[s].children[c]
			if !ok {
				nx = int32(len(nodes))
				nodes = append(nodes, node{children: map[uint16]int32{}})
				nodes[s].children[c] = nx
			}
			s = nx
		}
		nodes[s].outs = append(nodes[s].outs, int32(i))
	}
	next := make([]int32, len(nodes)*nc)
	a.next32 = next
	a.outputs = make([][]int32, len(nodes))
	queue := []int32{}
	for c := 0; c < nc; c++ {
		if nx, ok := nodes[0].children[uint16(c)]; ok {
			next[c] = nx
			queue = append(queue, nx)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		n := &nodes[s]
		merged := append(append([]int32(nil), n.outs...), a.outputs[n.fail]...)
		if len(merged) > 0 {
			a.outputs[s] = merged
		}
		row, frow := int(s)*nc, int(n.fail)*nc
		for c := 0; c < nc; c++ {
			if nx, ok := n.children[uint16(c)]; ok {
				next[row+c] = nx
				nodes[nx].fail = next[frow+c]
				queue = append(queue, nx)
			} else {
				next[row+c] = next[frow+c]
			}
		}
	}
	return a
}

// TestWideTableScanMatchesNaive: scans over the int32 table agree with the
// per-needle reference, batch and streamed, as the uint16 table's do in
// TestScanMatchesNaiveOnSeeds.
func TestWideTableScanMatchesNaive(t *testing.T) {
	needles := wideNeedles()
	m := newMatcher(needles)
	if m.ac.next32 == nil {
		t.Fatalf("%d states: want the int32 table", m.NumStates())
	}
	a, b, c := needles[10].text, needles[11].text, needles[3001].text
	for _, content := range []string{
		"",
		"x=" + a + "&y=" + b,
		a + b + c + a,
		asciiLower(b) + "|" + c[:len(c)-1],
	} {
		diffCheck(t, m, content)
	}
	st, hits := State{}, 0
	for i := 0; i < len(b); i++ {
		st, hits = m.Step(st, b[i])
	}
	if hits == 0 {
		t.Errorf("Step over %q ends with no candidate hit", b)
	}
}
