package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Op names the root span of the op it belongs to; a root span
// (Parent 0) is the op itself.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// ref names an open span.
type ref struct {
	t     *tracer
	id    int64
	op    int64
	start time.Time
	name  string
	par   int64
}

// root opens the span of one op.
func (t *tracer) root(name string) ref {
	return t.open(name, 0, 0, time.Now())
}

// child opens a span under parent.
func (t *tracer) child(parent ref, name string) ref {
	return t.open(name, parent.id, parent.op, time.Now())
}

func (t *tracer) open(name string, parent, op int64, start time.Time) ref {
	if t == nil {
		return ref{start: start}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	if op == 0 {
		op = id
	}
	return ref{t: t, id: id, op: op, start: start, name: name, par: parent}
}

// end closes the span now and returns its duration, which is measured
// with or without a tracer.
func (r ref) end() time.Duration {
	now := time.Now()
	r.endAt(now)
	return now.Sub(r.start)
}

// endAt closes the span at a given instant.
func (r ref) endAt(at time.Time) {
	if r.t == nil {
		return
	}
	s := span{ID: r.id, Parent: r.par, Op: r.op, Name: r.name,
		Start: r.start.Sub(r.t.t0).Nanoseconds(), End: at.Sub(r.t.t0).Nanoseconds()}
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, s)
	r.t.mu.Unlock()
}

// add records a closed span with explicit bounds under parent, for
// intervals measured by a callback (httptrace) rather than around a call.
func (t *tracer) add(parent ref, name string, start, end time.Time) {
	if t == nil || start.IsZero() || end.IsZero() {
		return
	}
	t.child(parent, name).withStart(start).endAt(end)
}

// withStart moves the span's start into the past, for intervals known only
// after the fact (an open-loop read is timed from when it was due).
func (r ref) withStart(s time.Time) ref { r.start = s; return r }

// layerSelf is one layer's total self time and its span count.
type layerSelf struct {
	self time.Duration
	n    int
}

// selfTimes computes every span's self time — its duration minus the
// union of its children's intervals — summed per span name, separately
// for spans under op roots named opName and spans under any other root
// (work beside the ops, such as report-live's writes). An op root's own
// self time is the part of the op that no layer span covers.
func (t *tracer) selfTimes(opName string) (ops, beside map[string]*layerSelf) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	kids := map[int64][]span{}
	rootName := map[int64]string{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		} else {
			rootName[s.ID] = s.Name
		}
	}
	ops, beside = map[string]*layerSelf{}, map[string]*layerSelf{}
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		hi := s.Start
		for _, c := range cs {
			lo, e := max(c.Start, hi), min(c.End, s.End)
			if e > lo {
				covered += e - lo
				hi = e
			}
		}
		group := beside
		if rootName[s.Op] == opName {
			group = ops
		}
		ls := group[s.Name]
		if ls == nil {
			ls = &layerSelf{}
			group[s.Name] = ls
		}
		ls.self += time.Duration(s.End - s.Start - covered)
		ls.n++
	}
	return ops, beside
}

// remainderMS is the mean self time of the op spans named opName: op time
// that no layer span accounts for.
func (t *tracer) remainderMS(opName string) float64 {
	ops, _ := t.selfTimes(opName)
	ls := ops[opName]
	if ls == nil || ls.n == 0 {
		return 0
	}
	return ms(ls.self) / float64(ls.n)
}

// table renders self time per layer for the workload's ops: each layer's
// time per op and share of op time, with the op span's own self time as
// the unattributed remainder, so the rows add up to the op time. Spans
// beside the ops follow in a second block.
func (t *tracer) table(workload, opName string) string {
	ops, beside := t.selfTimes(opName)
	var b strings.Builder
	n := 0
	if ls := ops[opName]; ls != nil {
		n = ls.n
	}
	writeBlock(&b, fmt.Sprintf("self time per layer, workload %s, %d ops of %s", workload, n, opName), ops, opName, n)
	if len(beside) > 0 {
		writeBlock(&b, fmt.Sprintf("spans beside the ops, workload %s, per op", workload), beside, "", n)
	}
	return b.String()
}

func writeBlock(b *strings.Builder, title string, g map[string]*layerSelf, opName string, ops int) {
	names := make([]string, 0, len(g))
	var total time.Duration
	for name, ls := range g {
		names = append(names, name)
		total += ls.self
	}
	sort.Slice(names, func(i, j int) bool { return g[names[i]].self > g[names[j]].self })
	per := float64(max(ops, 1))
	fmt.Fprintf(b, "%s (%.3f ms per op in total):\n", title, ms(total)/per)
	for _, name := range names {
		label := name
		if name == opName {
			label = "core.unattributed (" + name + " self)"
		}
		ls := g[name]
		fmt.Fprintf(b, "  %-44s %10.3f ms/op %6.1f%%  spans=%d\n", label,
			ms(ls.self)/per, 100*float64(ls.self)/float64(max(total, 1)), ls.n)
	}
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
