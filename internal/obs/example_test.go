package obs_test

import (
	"fmt"
	"time"

	"appvsweb/internal/obs"
)

// Example instruments a fake pipeline stage: a counter for events, a span
// timer feeding a latency histogram, and a snapshot of the registry.
func Example() {
	reg := obs.New()

	flows := reg.Counter("demo.flows_total")
	latency := reg.Histogram("demo.stage_ns", "ns")

	for i := 0; i < 100; i++ {
		sp := latency.Span() // in real code: one span per stage execution
		flows.Inc()
		_ = sp.End()
	}
	// Deterministic observations for the example's output:
	sizes := reg.Histogram("demo.flow_bytes", "bytes")
	for v := int64(1); v <= 1000; v++ {
		sizes.Observe(v)
	}

	snap := reg.Snapshot()
	fmt.Println("flows:", snap.Counters["demo.flows_total"])
	fmt.Println("p50 bytes:", snap.Histograms["demo.flow_bytes"].P50)
	fmt.Println("timed stages:", snap.Histograms["demo.stage_ns"].Count)
	// Output:
	// flows: 100
	// p50 bytes: 500
	// timed stages: 100
}

// ExampleHistogram_Span shows the span-timer idiom used on the hot paths.
func ExampleHistogram_Span() {
	h := obs.New().Histogram("stage.session_ns", "ns")
	sp := h.Span()
	time.Sleep(time.Microsecond)
	sp.End()
	fmt.Println(h.Count())
	// Output: 1
}
