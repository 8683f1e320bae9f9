package pii

// Single-pass multi-pattern matching (docs/performance.md): the Matcher
// compiles every (value, encoding) needle into one Aho–Corasick automaton
// at construction, so scanning a flow section costs one pass over its
// bytes regardless of needle count, instead of one strings.Contains pass
// per needle. ReCon-style augmentation multiplies ground-truth values by
// ten wire encodings, so a realistic record carries hundreds of needles —
// the per-needle scan was the campaign's hottest loop.
//
// Design notes:
//
//   - Needles are inserted case-folded (asciiLower, byte-wise ASCII). The
//     scan folds content bytes on the fly, so no lowercased copy of the
//     content is ever allocated. Case-sensitive needles (base64 and
//     friends) verify the raw bytes at the hit position before counting.
//   - The transition table is dense over *byte classes*, not raw bytes:
//     every byte that appears in no needle shares one class, which keeps
//     the table at states × (distinct needle bytes + 1) entries.
//   - Entries are uint16 whenever the trie has fewer than 65,536 states,
//     which every catalog identity does (the largest has 5,702), and
//     int32 otherwise. The width is chosen once per build, and each Scan
//     or Write picks the matching instantiation of its generic loop once,
//     never per byte.
//   - Fail links are resolved at build time into a full DFA, so the scan
//     loop is exactly one table read per content byte.
//   - Output lists are pre-merged along fail chains: outputs[s] holds every
//     needle ending at state s, including suffix needles.
//   - Construction is paid once per identity in a campaign, so it
//     allocates only flat arrays: the goto trie is first-child/next-sibling
//     int32 lists, laid out once into the exactly sized dense table, and
//     every output list is a window of one shared backing array.
type automaton struct {
	classOf    [256]uint16 // byte → class; 0 = "appears in no needle"
	numClasses int
	// state*numClasses + class → next state. Exactly one table is set:
	// next16 when the trie has fewer than 1<<16 states, else next32.
	next16  []uint16
	next32  []int32
	outputs [][]int32 // state → needle indices ending here (nil for most)
}

// stateIndex is the element type of a transition table.
type stateIndex interface{ uint16 | int32 }

// foldNeedle returns the byte sequence inserted into the trie: the
// ASCII-folded needle text. Folding every needle (case-sensitive ones
// included) lets one automaton serve both match modes; case-sensitive hits
// are verified against the raw content afterwards.
func foldNeedle(n *needle) string { return asciiLower(n.text) }

// foldByte is the scan-time counterpart of asciiLower.
func foldByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

func buildAutomaton(needles []needle) *automaton {
	a := &automaton{}
	folded := make([]string, len(needles))
	maxStates := 1
	for i := range needles {
		folded[i] = foldNeedle(&needles[i])
		maxStates += len(folded[i])
	}

	// Assign byte classes. Class 0 is reserved for bytes no needle
	// contains; from any state such a byte can only lead back to the root.
	nc := 1
	for _, t := range folded {
		for j := 0; j < len(t); j++ {
			if b := t[j]; a.classOf[b] == 0 && nc < 257 {
				a.classOf[b] = uint16(nc)
				nc++
			}
		}
	}
	a.numClasses = nc

	// Build the goto trie as flat first-child/next-sibling lists: state s
	// was entered on byte class label[s], its children are firstChild[s]
	// and then the sibling chain. No per-state map or slice is allocated;
	// the arrays are sized for the worst case (no shared prefixes) up front.
	firstChild := make([]int32, 1, maxStates)
	sibling := make([]int32, 1, maxStates)
	label := make([]uint16, 1, maxStates)
	firstChild[0] = -1
	sibling[0] = -1
	ends := make([]int32, len(needles)) // needle → state it ends at
	for i, t := range folded {
		s := int32(0)
		for j := 0; j < len(t); j++ {
			c := a.classOf[t[j]]
			nx := firstChild[s]
			for nx >= 0 && label[nx] != c {
				nx = sibling[nx]
			}
			if nx < 0 {
				nx = int32(len(label))
				firstChild = append(firstChild, -1)
				sibling = append(sibling, firstChild[s])
				label = append(label, c)
				firstChild[s] = nx
			}
			s = nx
		}
		ends[i] = s
	}
	states := len(label)

	var fail, queue []int32
	if states < 1<<16 {
		a.next16 = make([]uint16, states*nc)
		fail, queue = resolveDFA(a.next16, nc, firstChild, sibling, label)
	} else {
		a.next32 = make([]int32, states*nc)
		fail, queue = resolveDFA(a.next32, nc, firstChild, sibling, label)
	}

	// Pre-merge outputs along fail chains into one shared backing array:
	// outputs[s] is the needles ending at s (in needle order) followed by
	// outputs[fail[s]]. Lengths resolve in BFS order, fail before state.
	outLen := make([]int32, states)
	for _, s := range ends {
		outLen[s]++
	}
	total := int(outLen[0])
	for _, s := range queue[1:] {
		outLen[s] += outLen[fail[s]]
		total += int(outLen[s])
	}
	backing := make([]int32, total)
	a.outputs = make([][]int32, states)
	off := 0
	for _, s := range queue {
		if k := int(outLen[s]); k > 0 {
			a.outputs[s] = backing[off : off : off+k]
			off += k
		}
	}
	for i, s := range ends {
		a.outputs[s] = append(a.outputs[s], int32(i))
	}
	for _, s := range queue[1:] {
		if fo := a.outputs[fail[s]]; len(fo) > 0 {
			a.outputs[s] = append(a.outputs[s], fo...)
		}
	}
	return a
}

// resolveDFA fills next, sized states × nc, with the dense DFA of the goto
// trie, and returns the fail links and the BFS order of the states. A
// state's fail has strictly smaller depth, so its row is always complete
// when needed.
func resolveDFA[T stateIndex](next []T, nc int, firstChild, sibling []int32, label []uint16) (fail, queue []int32) {
	fail = make([]int32, len(label))
	queue = make([]int32, 1, len(label))
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		row := int(s) * nc
		frow := int(fail[s]) * nc
		if s != 0 {
			copy(next[row:row+nc], next[frow:frow+nc])
		}
		for ch := firstChild[s]; ch >= 0; ch = sibling[ch] {
			c := int(label[ch])
			if s != 0 {
				fail[ch] = int32(next[frow+c])
			}
			next[row+c] = T(ch)
			queue = append(queue, ch)
		}
	}
	return fail, queue
}

// NumStates reports the automaton's state count (sizing/diagnostics).
func (m *Matcher) NumStates() int {
	if m.ac == nil {
		return 0
	}
	return len(m.ac.outputs)
}
