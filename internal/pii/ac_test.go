package pii

import (
	"reflect"
	"testing"
)

// acCases are the needle sets the automaton build tests run on: two real
// records, plus a hand-made set with shared prefixes, a needle that is a
// prefix of another, case-folded duplicates and suffix needles.
func acCases() map[string][]needle {
	crafted := []needle{}
	for _, s := range []string{"abcde", "abcXY", "ABC", "abc", "bcd", "cde", "zzz", "Zzzz", "de"} {
		crafted = append(crafted, needle{text: s})
	}
	return map[string][]needle{
		"test-record":  NewMatcher(testRecord()).needles,
		"bench-record": NewMatcher(benchRecord()).needles,
		"crafted":      crafted,
	}
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
// a map-per-state goto trie with the same state numbering.
func TestAutomatonMatchesMapTrieBuild(t *testing.T) {
	for name, needles := range acCases() {
		got, want := buildAutomaton(needles), buildAutomatonMaps(needles)
		if got.classOf != want.classOf || got.numClasses != want.numClasses {
			t.Errorf("%s: byte classes differ", name)
		}
		if !reflect.DeepEqual(got.next, want.next) {
			t.Errorf("%s: transition tables differ", name)
		}
		if !reflect.DeepEqual(got.outputs, want.outputs) {
			t.Errorf("%s: output lists differ", name)
		}
	}
}

// buildAutomatonMaps is the reference build: one map of children per trie
// state, states numbered in insertion order, outputs merged along fail
// links in BFS order.
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
	a.next = make([]int32, len(nodes)*nc)
	a.outputs = make([][]int32, len(nodes))
	queue := []int32{}
	for c := 0; c < nc; c++ {
		if nx, ok := nodes[0].children[uint16(c)]; ok {
			a.next[c] = nx
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
				a.next[row+c] = nx
				nodes[nx].fail = a.next[frow+c]
				queue = append(queue, nx)
			} else {
				a.next[row+c] = a.next[frow+c]
			}
		}
	}
	return a
}
