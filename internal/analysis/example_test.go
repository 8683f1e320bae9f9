package analysis_test

import (
	"fmt"
	"os"

	"appvsweb/internal/analysis"
	"appvsweb/internal/core"
	"appvsweb/internal/obs"
)

// ExampleOpenStore shows the persistent artifact store as a standalone
// content-addressed cache: entries are keyed by (dataset fingerprint,
// artifact ID), written atomically, and verified — fingerprint, ID, and
// payload SHA-256 — before a read is trusted.
func ExampleOpenStore() {
	dir, err := os.MkdirTemp("", "avw-store-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	st, err := analysis.OpenStore(dir)
	if err != nil {
		panic(err)
	}
	fp := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if err := st.Put(fp, "report", "text/plain; charset=utf-8", []byte("the report\n")); err != nil {
		panic(err)
	}

	payload, ok, err := st.Get(fp, "report")
	fmt.Printf("hit=%v err=%v payload=%q\n", ok, err, payload)

	_, ok, err = st.Get(fp, "table1") // never written: a clean miss, not an error
	fmt.Printf("hit=%v err=%v\n", ok, err)
	// Output:
	// hit=true err=<nil> payload="the report\n"
	// hit=false err=<nil>
}

// ExampleEngine_Subscribe shows the invalidation push channel: updating a
// handle's snapshot publishes one event per generation, naming the
// artifacts whose content changed. avwserve forwards these to SSE clients
// at /api/{ds}/events.
func ExampleEngine_Subscribe() {
	eng := analysis.NewEngine(analysis.EngineOptions{Metrics: obs.New()})
	h := eng.Register("campaign", &core.Dataset{Meta: core.Meta{Scale: 1}})

	sub := eng.Subscribe("campaign") // "" would subscribe to every dataset
	defer sub.Close()

	// A live fold (or any snapshot replacement) bumps the generation. Only
	// Meta.Scale changes here, but every artifact reads the one dataset
	// fingerprint, so all of them are invalidated.
	h.Update(&core.Dataset{Meta: core.Meta{Scale: 0.5}})
	ev := <-sub.C()
	fmt.Printf("dataset=%s generation=%d invalidated=%d of %d\n",
		ev.Dataset, ev.Generation, len(ev.Invalidated), len(analysis.ArtifactIDs()))

	// Identical content keeps the fingerprint: the generation still bumps,
	// but nothing is invalidated.
	h.Update(&core.Dataset{Meta: core.Meta{Scale: 0.5}})
	ev = <-sub.C()
	fmt.Printf("dataset=%s generation=%d invalidated=%v\n",
		ev.Dataset, ev.Generation, ev.Invalidated)
	// Output:
	// dataset=campaign generation=2 invalidated=23 of 23
	// dataset=campaign generation=3 invalidated=[]
}
