package analysis

import (
	"sync"
)

// Invalidation push: instead of clients polling /live (or refetching
// artifacts on a timer) to discover that a live fold changed something,
// the engine publishes one Event per dataset update. avwserve forwards
// them to SSE subscribers at /api/{ds}/events, so a dashboard refetches
// exactly the artifacts that changed, exactly when they changed.

// Event is one artifact-invalidation notification: dataset x advanced to
// generation g, and the artifacts listed in Invalidated now have new
// content (the dataset fingerprint — hence their ETags — changed). Every
// artifact reads the one fingerprint, so the list is either every
// artifact ID or empty; an empty list with a bumped generation means the
// update left the content identical (for example, a journal record that
// was re-appended verbatim).
type Event struct {
	Dataset     string   `json:"dataset"`
	Generation  uint64   `json:"generation"`
	Experiments int      `json:"experiments"`
	Excluded    int      `json:"excluded"`
	Invalidated []string `json:"invalidated,omitempty"`
}

// Bus fans events out to subscribers over per-subscriber bounded queues.
// Publish never blocks: a subscriber whose queue is full is evicted — its
// channel is closed and it stops receiving — rather than letting one slow
// consumer stall the publisher (the LiveTail fold loop). Evicted clients
// are expected to resubscribe and refetch, which is always safe because
// events are invalidation hints, not state transfer.
type Bus struct {
	queue  int
	onDrop func()

	mu   sync.Mutex
	subs map[*Subscription]struct{}
}

// newBus builds a bus whose subscribers buffer up to queue events; onDrop
// (may be nil) is called once per evicted subscriber.
func newBus(queue int, onDrop func()) *Bus {
	if queue <= 0 {
		queue = 16
	}
	return &Bus{queue: queue, onDrop: onDrop, subs: make(map[*Subscription]struct{})}
}

// Subscription is one subscriber's bounded event queue. Receive from C;
// a closed C means the subscription ended — either Close was called or the
// bus evicted it as a slow consumer.
type Subscription struct {
	dataset string
	bus     *Bus
	ch      chan Event
	once    sync.Once
}

// C returns the receive channel. It is closed on Close or eviction.
func (s *Subscription) C() <-chan Event { return s.ch }

// Close detaches the subscription and closes C. Safe to call more than
// once, and after eviction.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	delete(s.bus.subs, s)
	s.bus.mu.Unlock()
	s.closeCh()
}

func (s *Subscription) closeCh() {
	s.once.Do(func() { close(s.ch) })
}

// Subscribe registers a subscriber for one dataset's events; an empty
// dataset subscribes to every dataset on the bus.
func (b *Bus) Subscribe(dataset string) *Subscription {
	s := &Subscription{dataset: dataset, bus: b, ch: make(chan Event, b.queue)}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// Publish delivers ev to every matching subscriber without blocking.
// Subscribers whose queue is full are evicted (removed and closed).
func (b *Bus) Publish(ev Event) {
	var evicted []*Subscription
	b.mu.Lock()
	for s := range b.subs {
		if s.dataset != "" && s.dataset != ev.Dataset {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			delete(b.subs, s)
			evicted = append(evicted, s)
		}
	}
	b.mu.Unlock()
	// Close outside the lock; the subscription is already out of the map,
	// so no Publish can race a send against the close.
	for _, s := range evicted {
		s.closeCh()
		if b.onDrop != nil {
			b.onDrop()
		}
	}
}

// Len reports the number of attached subscribers.
func (b *Bus) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Subscribe attaches a subscriber to the engine's invalidation bus for one
// dataset ("" for all). Events are published by Handle.Update — every live
// fold, and any explicit snapshot replacement.
func (e *Engine) Subscribe(dataset string) *Subscription {
	return e.bus.Subscribe(dataset)
}
