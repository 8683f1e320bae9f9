package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"appvsweb/internal/obs"
)

// processCPU is the process's user+system CPU time so far (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // fails only for a bad pointer or an unknown who
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		panic("runtime/metrics has no uint64 metric " + name)
	}
	return s[0].Value.Uint64()
}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() uint64 { return readUint("/gc/heap/allocs:bytes") }

// liveHeap is the heap marked live by the last GC: unlike a sampled heap
// size it does not depend on how far the next GC cycle has got.
func liveHeap() uint64 { return readUint("/gc/heap/live:bytes") }

// meter takes the process-level deltas of one measured run and the peak
// live heap sampled at each op completion.
type meter struct {
	start  time.Time
	cpu0   time.Duration
	alloc0 uint64

	mu   sync.Mutex
	peak uint64
}

func startMeter() *meter {
	return &meter{start: time.Now(), cpu0: processCPU(), alloc0: heapAllocs(), peak: liveHeap()}
}

// opDone samples the live heap; call it when an op completes.
func (m *meter) opDone() {
	v := liveHeap()
	m.mu.Lock()
	if v > m.peak {
		m.peak = v
	}
	m.mu.Unlock()
}

// finish fills the process-level fields of st.
func (m *meter) finish(st *runStats) {
	st.wall = time.Since(m.start)
	st.cpu = processCPU() - m.cpu0
	st.allocBytes = heapAllocs() - m.alloc0
	m.mu.Lock()
	st.peakLive = m.peak
	m.mu.Unlock()
}

// obs.Default counters whose deltas the workloads report.
const (
	ctrBytesUp     = "proxy.bytes_up_total"
	ctrBytesDown   = "proxy.bytes_down_total"
	ctrTunnels     = "proxy.tunnels_total"
	ctrCatHits     = "domains.catcache.hits_total"
	ctrCatMisses   = "domains.catcache.misses_total"
	ctrHostHits    = "easylist.hostcache.hits_total"
	ctrHostMisses  = "easylist.hostcache.misses_total"
	ctrInlineBytes = "proxy.inline.bytes_total"
	ctrInlineMatch = "proxy.inline.matches_total"
)

// counters snapshots named obs.Default counters so a run can take deltas.
type counters map[string]int64

func snapCounters(names ...string) counters {
	c := counters{}
	for _, n := range names {
		c[n] = obs.Default.Counter(n).Value()
	}
	return c
}

// delta is how far counter name moved since the snapshot.
func (c counters) delta(name string) int64 {
	return obs.Default.Counter(name).Value() - c[name]
}

// histDelta snapshots a histogram's count and sum for a later delta.
type histDelta struct {
	h          *obs.Histogram
	count, sum int64
}

func snapHist(h *obs.Histogram) histDelta {
	return histDelta{h: h, count: h.Count(), sum: h.Sum()}
}

// meanMS is the mean of the observations since the snapshot, which must
// be in nanoseconds, in milliseconds per observation.
func (d histDelta) meanMS() float64 {
	n := d.h.Count() - d.count
	if n == 0 {
		return 0
	}
	return float64(d.h.Sum()-d.sum) / 1e6 / float64(n)
}

// n is the number of observations since the snapshot.
func (d histDelta) n() int64 { return d.h.Count() - d.count }
