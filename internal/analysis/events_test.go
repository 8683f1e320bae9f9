package analysis

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"appvsweb/internal/core"
	"appvsweb/internal/obs"
	"appvsweb/internal/services"
)

func recvEvent(t *testing.T, sub *Subscription) Event {
	t.Helper()
	select {
	case ev, ok := <-sub.C():
		if !ok {
			t.Fatal("subscription closed")
		}
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("no event within 2s")
	}
	panic("unreachable")
}

// TestBusPublishSubscribeFilter: dataset-scoped subscribers see only their
// dataset's events; the empty dataset is a wildcard.
func TestBusPublishSubscribeFilter(t *testing.T) {
	b := newBus(4, nil)
	all := b.Subscribe("")
	onlyA := b.Subscribe("a")
	defer all.Close()
	defer onlyA.Close()

	b.Publish(Event{Dataset: "a", Generation: 2})
	b.Publish(Event{Dataset: "b", Generation: 7})

	if ev := <-all.C(); ev.Dataset != "a" {
		t.Fatalf("wildcard first event = %+v", ev)
	}
	if ev := <-all.C(); ev.Dataset != "b" {
		t.Fatalf("wildcard second event = %+v", ev)
	}
	if ev := <-onlyA.C(); ev.Dataset != "a" || ev.Generation != 2 {
		t.Fatalf("scoped event = %+v", ev)
	}
	select {
	case ev := <-onlyA.C():
		t.Fatalf("scoped subscriber leaked %+v", ev)
	default:
	}
}

// TestBusSlowConsumerEvicted: a full queue evicts the subscriber instead
// of blocking the publisher; buffered events remain readable, then the
// channel closes.
func TestBusSlowConsumerEvicted(t *testing.T) {
	drops := 0
	b := newBus(2, func() { drops++ })
	sub := b.Subscribe("")

	b.Publish(Event{Generation: 1})
	b.Publish(Event{Generation: 2})
	b.Publish(Event{Generation: 3}) // overflows: evicted here

	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
	if b.Len() != 0 {
		t.Fatalf("bus still holds %d subscribers", b.Len())
	}
	if ev := <-sub.C(); ev.Generation != 1 {
		t.Fatalf("first buffered event = %+v", ev)
	}
	if ev := <-sub.C(); ev.Generation != 2 {
		t.Fatalf("second buffered event = %+v", ev)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel still open after eviction")
	}
	sub.Close() // must be safe after eviction
}

// TestUpdateContentChangeInvalidatesEverything: any content change moves
// the one dataset fingerprint, so the event names exactly ArtifactIDs()
// and every artifact's ETag moves with it.
func TestUpdateContentChangeInvalidatesEverything(t *testing.T) {
	eng, _ := testEngine(t)
	h := eng.Register("x", synthDataset())
	sub := eng.Subscribe("x")
	defer sub.Close()
	before, err := h.ComputeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ds2 := synthDataset()
	ds2.Results[0].AAFlows += 13
	h.Update(ds2)

	ev := recvEvent(t, sub)
	if ev.Dataset != "x" || ev.Generation != 2 {
		t.Fatalf("event = %+v", ev)
	}
	if !slices.Equal(ev.Invalidated, ArtifactIDs()) {
		t.Fatalf("invalidated = %v, want every artifact %v", ev.Invalidated, ArtifactIDs())
	}
	after, err := h.ComputeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if after[i].ETag == before[i].ETag {
			t.Errorf("%s: ETag %s unchanged after a content change", after[i].ID, after[i].ETag)
		}
	}
}

// TestUpdateIdenticalContentPublishesEmptyInvalidation: replacing the
// snapshot with identical content bumps the generation but invalidates
// nothing.
func TestUpdateIdenticalContentPublishesEmptyInvalidation(t *testing.T) {
	eng, _ := testEngine(t)
	h := eng.Register("x", synthDataset())
	sub := eng.Subscribe("x")
	defer sub.Close()

	h.Update(synthDataset())
	ev := recvEvent(t, sub)
	if ev.Generation != 2 || len(ev.Invalidated) != 0 {
		t.Fatalf("identical-content event = %+v, want generation 2 and no invalidations", ev)
	}
}

// TestLiveTailPublishesOnFold: the LiveTail poll loop is a publisher — a
// folded journal record reaches subscribers as an invalidation event.
func TestLiveTailPublishesOnFold(t *testing.T) {
	reg := obs.New()
	eng := NewEngine(EngineOptions{Metrics: reg})
	path := filepath.Join(t.TempDir(), "run.journal")
	tail := eng.TailJournal("now", path, LiveOptions{Scale: 1})
	sub := eng.Subscribe("now")
	defer sub.Close()

	ds := synthDataset()
	j, err := core.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(core.JournalRecord{
		Service: "svca", OS: services.Android, Medium: services.App,
		Attempts: 1, Result: ds.Results[0],
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if changed, err := tail.Poll(); err != nil || !changed {
		t.Fatalf("Poll = (%v, %v)", changed, err)
	}

	ev := recvEvent(t, sub)
	if ev.Dataset != "now" || ev.Generation != 2 || ev.Experiments != 1 {
		t.Fatalf("fold event = %+v", ev)
	}
	if len(ev.Invalidated) == 0 {
		t.Fatal("fold event named no artifacts")
	}
	if got := reg.Counter("analysis.events_published_total").Value(); got != 1 {
		t.Errorf("events_published_total = %d, want 1", got)
	}
}
