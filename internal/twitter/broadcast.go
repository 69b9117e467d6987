package twitter

import (
	"context"
	"sync"
)

// Broadcaster fans a firehose of tweets out to any number of subscribers.
// Each subscriber gets a buffered channel. Under Publish, a subscriber
// that falls more than its buffer behind is disconnected, mirroring the
// real Stream API's stall handling (Twitter closes connections that
// cannot keep up rather than buffering without bound); PublishWait
// instead waits for it, for sources that must not lose tweets.
type Broadcaster struct {
	mu     sync.Mutex
	subs   map[int]*subscriber
	nextID int
	closed bool
}

type subscriber struct {
	ch     chan Tweet
	filter *TrackFilter // nil means unfiltered (firehose)
	// done is closed on detach; it wakes a PublishWait blocked on ch.
	done chan struct{}
	// waiting counts PublishWait sends in flight outside the lock;
	// while it is non-zero a detach leaves closing ch to the last of
	// them, so no send ever meets a closed channel. Guarded by
	// Broadcaster.mu, like detached.
	waiting  int
	detached bool
}

// NewBroadcaster returns an empty broadcaster.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{subs: make(map[int]*subscriber)}
}

// Subscribe registers a new subscriber with the given buffer size and
// optional filter (nil receives everything). It returns the delivery
// channel and a cancel function that detaches and closes it. After the
// broadcaster itself is closed, the returned channel is already closed.
func (b *Broadcaster) Subscribe(buffer int, filter *TrackFilter) (<-chan Tweet, func()) {
	if buffer <= 0 {
		buffer = 1024
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan Tweet, buffer)
	if b.closed {
		close(ch)
		return ch, func() {}
	}
	id := b.nextID
	b.nextID++
	b.subs[id] = &subscriber{ch: ch, filter: filter, done: make(chan struct{})}
	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if s, ok := b.subs[id]; ok {
			b.detach(id, s)
		}
	}
	return ch, cancel
}

// detach removes subscriber id and closes its channel — or, while a
// PublishWait send to it is in flight, leaves the close to that send.
// The caller holds b.mu.
func (b *Broadcaster) detach(id int, s *subscriber) {
	delete(b.subs, id)
	s.detached = true
	close(s.done)
	if s.waiting == 0 {
		close(s.ch)
	}
}

// Publish delivers the tweet to every subscriber whose filter matches.
// Subscribers whose buffers are full are dropped (disconnected), so a
// stalled consumer cannot block the stream. It returns the number of
// subscribers that received the tweet.
func (b *Broadcaster) Publish(t Tweet) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	delivered := 0
	for id, s := range b.subs {
		if s.filter != nil && !s.filter.Matches(t.Text) {
			continue
		}
		select {
		case s.ch <- t:
			delivered++
		default:
			// Stalled consumer: disconnect it.
			b.detach(id, s)
		}
	}
	return delivered
}

// PublishWait delivers the tweet like Publish, except that a subscriber
// whose buffer is full is waited for rather than disconnected: the call
// blocks until every matching subscriber has the tweet or has detached,
// or until ctx ends, which it reports as ctx.Err(). It returns the
// number of subscribers that received the tweet. The broadcaster lock is
// not held while waiting, so subscribers may detach meanwhile.
func (b *Broadcaster) PublishWait(ctx context.Context, t Tweet) (int, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, nil
	}
	delivered := 0
	var full []*subscriber
	for _, s := range b.subs {
		if s.filter != nil && !s.filter.Matches(t.Text) {
			continue
		}
		select {
		case s.ch <- t:
			delivered++
		default:
			s.waiting++
			full = append(full, s)
		}
	}
	b.mu.Unlock()

	var err error
	for _, s := range full {
		if err == nil {
			select {
			case s.ch <- t:
				delivered++
			case <-s.done:
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		b.mu.Lock()
		s.waiting--
		if s.waiting == 0 && s.detached {
			close(s.ch)
		}
		b.mu.Unlock()
	}
	return delivered, err
}

// Closed reports whether Close has been called.
func (b *Broadcaster) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// NumSubscribers returns the current subscriber count.
func (b *Broadcaster) NumSubscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close disconnects all subscribers and marks the broadcaster closed;
// subsequent Publish calls deliver nothing and Subscribe returns closed
// channels.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, s := range b.subs {
		b.detach(id, s)
	}
}
