package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"appvsweb/internal/analysis"
	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/serve"
)

// The report-live workload is someone watching a campaign in avwserve
// while it runs. The committed dataset's 200 results are appended as
// journal records on a fixed schedule into a fresh journal; after each
// append the benchmark polls the live tail itself, so folds happen at fixed
// points, and a watcher fetches every artifact the fold invalidated
// (freshness). Beside the writes, open-loop readers fetch artifacts over
// loopback HTTP at a fixed rate. One op is one read, timed from when it
// was due.

const (
	liveDataset = "dataset.json"
	liveName    = "live"
	liveOpName  = "live.read"
	// liveReadRate is the open-loop read rate; liveInFlight bounds the
	// reads in flight, as two browser tabs would.
	liveReadRate = 200.0
	liveInFlight = 2
	// liveMinAppendGap keeps the append schedule no denser than a poll
	// can follow when a run is short.
	liveMinAppendGap = 100 * time.Millisecond
	// liveZipfS skews artifact popularity; liveRevalidate is the share of
	// repeat reads that send If-None-Match.
	liveZipfS        = 1.2
	liveRevalidate   = 0.5
	liveShuffleBlock = 10
	// opHeader carries a traced read's op span ID to the server wrapper.
	opHeader = "X-Perfbench-Op"
)

type reportLive struct {
	seed    int64
	records []core.JournalRecord
	dir     string
	journal *core.Journal
	reg     *obs.Registry
	eng     *analysis.Engine
	tail    *analysis.LiveTail
	srv     *http.Server
	base    string
	client  *http.Client
	// ids are the artifact IDs in serving order, which is also their
	// popularity rank: the seed draws the reads, but a seed-chosen ranking
	// would make bytes and compute per read depend on which artifact the
	// seed happened to make hottest.
	ids    []string
	server sync.Map // traced op ID → [2]time.Time handler interval
	bytes  atomic.Int64
}

func newReportLive(seed int64) workload { return &reportLive{seed: seed} }

var liveDirs atomic.Int64

func (l *reportLive) setUp() error {
	ds, err := core.Load(liveDataset)
	if err != nil {
		return err
	}
	// The seed shuffles the append order within consecutive blocks of
	// liveShuffleBlock records: every journal prefix then holds the same
	// records give or take one block, so the fold and recompute work summed
	// over a run, which grows with each prefix, does not depend on the seed.
	rng := rand.New(rand.NewSource(l.seed))
	for _, r := range ds.Results {
		l.records = append(l.records, core.JournalRecord{Service: r.Service, OS: r.OS, Medium: r.Medium, Attempts: 1, Result: r})
	}
	for lo := 0; lo < len(l.records); lo += liveShuffleBlock {
		b := l.records[lo:min(lo+liveShuffleBlock, len(l.records))]
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	l.ids = analysis.ArtifactIDs()

	l.dir = filepath.Join(outDir, fmt.Sprintf("live-%d-%d", os.Getpid(), liveDirs.Add(1)))
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(l.dir, "journal.jsonl")
	if l.journal, err = core.CreateJournal(path); err != nil {
		return err
	}
	l.reg = obs.New()
	l.eng = analysis.NewEngine(analysis.EngineOptions{Metrics: l.reg, Workers: liveInFlight})
	l.tail = l.eng.TailJournal(liveName, path, analysis.LiveOptions{Scale: ds.Meta.Scale})
	mux := serve.NewMux(l.eng, nil, l.reg, obs.NopLogger(), serve.Config{})
	l.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		mux.ServeHTTP(w, r)
		if id := r.Header.Get(opHeader); id != "" {
			l.server.Store(id, [2]time.Time{t0, time.Now()})
		}
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go l.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	l.base = "http://" + ln.Addr().String() + "/api/" + liveName + "/artifact/"
	l.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: liveInFlight + 1, MaxIdleConnsPerHost: liveInFlight + 1}}
	// Warm-up: every artifact once on the empty live dataset, which loads
	// the code paths and the connections but leaves no result cached that
	// the first fold would not invalidate.
	for _, id := range l.ids {
		if _, _, err := l.get(id, "", ""); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (l *reportLive) close() {
	if l.srv != nil {
		l.srv.Close()
	}
	if l.client != nil {
		l.client.CloseIdleConnections()
	}
	if l.journal != nil {
		l.journal.Close()
	}
	if l.dir != "" {
		os.RemoveAll(l.dir)
	}
}

// get fetches one artifact; it returns the status and the ETag.
func (l *reportLive) get(id, ifNoneMatch, opID string) (int, string, error) {
	req, err := http.NewRequest(http.MethodGet, l.base+id, nil)
	if err != nil {
		return 0, "", err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if opID != "" {
		req.Header.Set(opHeader, opID)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	l.bytes.Add(n)
	etag := resp.Header.Get("ETag")
	switch {
	case resp.StatusCode == http.StatusOK && etag != "":
	case resp.StatusCode == http.StatusNotModified && ifNoneMatch != "":
	default:
		return resp.StatusCode, etag, fmt.Errorf("GET %s: status %d, etag %q, %d bytes", id, resp.StatusCode, etag, n)
	}
	return resp.StatusCode, etag, nil
}

// liveLayers are the write side's observations.
type liveLayers struct {
	appendD, pollD []time.Duration
	fresh          []time.Duration
	recomputeMS    float64
	invalidated    int
	lag            []time.Duration
	// badCycles counts write cycles whose invalidated artifacts were not
	// all served at a new ETag.
	badCycles int
}

func (l *reportLive) run(d time.Duration, tr *tracer) (*runStats, error) {
	st := &runStats{opName: liveOpName}
	gap := max(d/time.Duration(len(l.records)), liveMinAppendGap)
	appends := min(len(l.records), int(d/gap))
	lt := &liveLayers{}
	hits := l.reg.Counter("analysis.cache_hits_total")
	misses := l.reg.Counter("analysis.cache_misses_total")
	hits0, misses0 := hits.Value(), misses.Value()
	reqHist := snapHist(l.reg.Histogram("serve.request_ns", "ns"))
	bytes0 := l.bytes.Load()
	compute0 := l.computeSum()
	sub := l.eng.Subscribe(liveName)
	defer sub.Close()

	m := startMeter()
	var wg sync.WaitGroup
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		writeErr = l.writer(m.start, gap, appends, sub, tr, lt)
	}()

	// Readers: slot k is due at start + k/rate; each reader takes the next
	// slot, so a slow read delays the ones behind it and the delay counts.
	slots := int(d.Seconds() * liveReadRate)
	rng := rand.New(rand.NewSource(l.seed + 1))
	zipf := rand.NewZipf(rng, liveZipfS, 1, uint64(len(l.ids)-1))
	type slot struct {
		id         string
		revalidate bool
	}
	plan := make([]slot, slots)
	for k := range plan {
		plan[k] = slot{l.ids[zipf.Uint64()], rng.Float64() < liveRevalidate}
	}
	var next atomic.Int64
	var mu sync.Mutex
	etags := map[string]string{}
	for r := 0; r < liveInFlight; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= slots {
					return
				}
				due := m.start.Add(time.Duration(float64(k) / liveReadRate * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				inm := ""
				mu.Lock()
				if plan[k].revalidate {
					inm = etags[plan[k].id]
				}
				mu.Unlock()
				op := tr.root(liveOpName).withStart(due)
				opID := ""
				if tr != nil {
					opID = strconv.FormatInt(op.id, 10)
				}
				status, etag, err := l.get(plan[k].id, inm, opID)
				done := time.Now()
				m.opDone()
				mu.Lock()
				st.attempted++
				lt.lag = append(lt.lag, sent.Sub(due))
				if err != nil {
					st.failed++
					fmt.Fprintln(os.Stderr, "perfbench: read:", err)
				} else {
					st.lat = append(st.lat, done.Sub(due))
					if status == http.StatusOK {
						etags[plan[k].id] = etag
					}
				}
				mu.Unlock()
				if tr != nil && err == nil {
					tr.add(op, "bench.arrival_wait", due, sent)
					h := tr.child(op, "http.client").withStart(sent)
					if v, ok := l.server.LoadAndDelete(opID); ok {
						iv := v.([2]time.Time)
						tr.add(h, "serve.handler", iv[0], iv[1])
					}
					h.endAt(done)
					op.endAt(done)
				}
			}
		}()
	}
	wg.Wait()
	m.finish(st)
	if writeErr != nil {
		return nil, writeErr
	}
	st.bytesMoved = l.bytes.Load() - bytes0
	lt.recomputeMS = float64(l.computeSum()-compute0) / 1e6

	// Each write cycle is checked, and the final served report must equal
	// a cold fold of the same journal.
	st.attempted += appends + 1
	st.failed += lt.badCycles
	if err := l.checkFinal(); err != nil {
		st.failed++
		fmt.Fprintln(os.Stderr, "perfbench: report-live check:", err)
	}

	fresh50 := metricOut{ms(quantile(lt.fresh, 0.5)), "ms", len(lt.fresh)}
	fresh95 := metricOut{ms(quantile(lt.fresh, 0.95)), "ms", len(lt.fresh)}
	lag99 := metricOut{ms(quantile(lt.lag, 0.99)), "ms", len(lt.lag)}
	st.extra = map[string]metricOut{"freshness_p50_ms": fresh50, "freshness_p95_ms": fresh95, "bench.arrival_lag_p99_ms": lag99}
	if tr != nil {
		h, mi := hits.Value()-hits0, misses.Value()-misses0
		st.layers = map[string]metricOut{
			"core.journal_append_ms":          meanOf(lt.appendD),
			"analysis.poll_ms":                meanOf(lt.pollD),
			"analysis.recompute_ms":           {lt.recomputeMS / float64(max(appends, 1)), "ms", appends},
			"analysis.invalidated_per_append": {float64(lt.invalidated) / float64(max(appends, 1)), "count", appends},
			"analysis.cache_hit_ratio":        {ratio(h, h+mi), "ratio", int(h + mi)},
			"serve.request_ms":                {reqHist.meanMS(), "ms", int(reqHist.n())},
			"bench.arrival_lag_p99_ms":        lag99,
			"freshness_p50_ms":                fresh50,
			"freshness_p95_ms":                fresh95,
		}
	}
	return st, nil
}

// writer appends the records on schedule, polls the tail after each
// append, and fetches every artifact the fold invalidated; freshness runs
// from Append returning to the last of those fetches.
func (l *reportLive) writer(start time.Time, gap time.Duration, appends int, sub *analysis.Subscription, tr *tracer, lt *liveLayers) error {
	known := map[string]string{}
	for k := 0; k < appends; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * gap)))
		op := tr.root("live.cycle")
		s := tr.child(op, "core.journal_append")
		t0 := time.Now()
		if err := l.journal.Append(l.records[k]); err != nil {
			return err
		}
		appended := time.Now()
		s.end()
		s = tr.child(op, "analysis.poll")
		changed, err := l.tail.Poll()
		polled := time.Now()
		s.end()
		if err != nil {
			return err
		}
		if !changed {
			return fmt.Errorf("poll after append %d saw no change", k)
		}
		var ev analysis.Event
		select {
		case ev = <-sub.C():
		case <-time.After(5 * time.Second):
			return fmt.Errorf("no invalidation event after append %d", k)
		}
		s = tr.child(op, "live.watch")
		for _, id := range ev.Invalidated {
			_, etag, err := l.get(id, "", "")
			if err == nil && etag == known[id] {
				err = fmt.Errorf("artifact %s invalidated but served at its old ETag %s", id, etag)
			}
			if err != nil {
				lt.badCycles++
				fmt.Fprintln(os.Stderr, "perfbench: watcher:", err)
				break
			}
			known[id] = etag
		}
		s.end()
		fresh := time.Now()
		op.end()
		lt.appendD = append(lt.appendD, appended.Sub(t0))
		lt.pollD = append(lt.pollD, polled.Sub(appended))
		lt.fresh = append(lt.fresh, fresh.Sub(appended))
		lt.invalidated += len(ev.Invalidated)
	}
	return nil
}

// computeSum is the total artifact computation time so far, in ns.
func (l *reportLive) computeSum() int64 {
	return l.reg.Snapshot().Histograms["analysis.compute_ns"].Sum
}

// checkFinal compares the served report with a cold fold of the journal.
func (l *reportLive) checkFinal() error {
	if _, err := l.tail.Poll(); err != nil {
		return err
	}
	resp, err := l.client.Get(l.base + "report")
	if err != nil {
		return err
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	ds, err := analysis.JournalDataset(filepath.Join(l.dir, "journal.jsonl"), l.tail.Handle().Dataset().Meta.Scale)
	if err != nil {
		return err
	}
	cold, err := analysis.NewEngine(analysis.EngineOptions{Metrics: obs.New()}).Register("cold", ds).Artifact(context.Background(), "report")
	if err != nil {
		return err
	}
	if !bytes.Equal(served, cold.Bytes) {
		return fmt.Errorf("served report (%d bytes) differs from the cold fold (%d bytes)", len(served), len(cold.Bytes))
	}
	return nil
}
