package main

import (
	"context"
	"net"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/twitter"
)

func TestReplayServesCorpus(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.ndjson")
	if err := cmdGenerate([]string{"-scale", "0.002", "-out", corpus}); err != nil {
		t.Fatal(err)
	}

	// Pick a free port.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	done := make(chan error, 1)
	go func() {
		done <- cmdReplay([]string{"-in", corpus, "-addr", addr})
	}()

	// Consume the replay with the stream client.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client := &twitter.StreamClient{
		BaseURL:        "http://" + addr,
		InitialBackoff: 20 * time.Millisecond,
	}
	out := make(chan twitter.Tweet, 4096)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, organ.TrackTerms(), out) }()

	got := 0
	for range out {
		got++
	}
	if err := <-errc; err != nil {
		t.Fatalf("client: %v", err)
	}
	if got == 0 {
		t.Fatal("replay delivered no tweets")
	}
	// The replay server exits once interrupted; send it a synthetic
	// shutdown by cancelling is not wired — it closed the broadcaster
	// after the corpus, so the HTTP server is still up. Just verify the
	// goroutine hasn't errored yet.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("replay exited with %v", err)
		}
	default:
		// still serving; fine
	}
}

func TestReplayMissingFile(t *testing.T) {
	if err := cmdReplay([]string{"-in", "/nonexistent.ndjson", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("missing corpus accepted")
	}
}

// TestReplayUnpacedWaitsForSlowCollector: behind an unpaced replay, a
// collector that stalls and then drains far slower than the replay
// publishes still folds every corpus tweet the track matches. The
// replay waits on the collector's full 64-slot buffer instead of
// disconnecting it, so Table I equals a direct fold of the same tweets.
func TestReplayUnpacedWaitsForSlowCollector(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.01)).Tweets
	filter := twitter.NewTrackFilter(organ.TrackTerms())
	ref := pipeline.NewDataset()
	matched := 0
	for _, tw := range corpus {
		if filter.Matches(tw.Text) {
			ref.Process(tw)
			matched++
		}
	}

	b := twitter.NewBroadcaster()
	srv := twitter.NewStreamServer(b)
	srv.SubscriberBuffer = 64
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	replayed := make(chan error, 1)
	go func() {
		for b.NumSubscribers() == 0 && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond)
		}
		err := replayTweets(ctx, b, corpus, 0)
		b.Close()
		replayed <- err
	}()

	client := &twitter.StreamClient{BaseURL: hs.URL, InitialBackoff: 20 * time.Millisecond}
	out := make(chan twitter.Tweet)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, organ.TrackTerms(), out) }()

	d := pipeline.NewDataset()
	got := 0
	for tw := range out {
		d.Process(tw)
		got++
		switch {
		case got == 1:
			// Stall long enough for the replay to fill the socket
			// buffers and the subscriber buffer many times over.
			time.Sleep(300 * time.Millisecond)
		case got%64 == 0:
			time.Sleep(time.Millisecond)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("collector: %v", err)
	}
	if err := <-replayed; err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got != matched {
		t.Fatalf("collector received %d of %d matching tweets", got, matched)
	}
	if got, want := report.TableIText(d.Stats()), report.TableIText(ref.Stats()); got != want {
		t.Fatalf("Table I\n%s\nwant\n%s", got, want)
	}
}

// TestReplayPacedHoldsRate: paced replay releases tweets in batches per
// tick, so it delivers the whole corpus at the requested rate — never
// faster, and not at the few thousand tweets/s a per-tweet ticker
// reaches.
func TestReplayPacedHoldsRate(t *testing.T) {
	const n, rate = 20000, 50000.0
	tweets := make([]twitter.Tweet, n)
	for i := range tweets {
		tweets[i].ID = int64(i + 1)
	}
	b := twitter.NewBroadcaster()
	ch, cancelSub := b.Subscribe(n, nil)
	defer cancelSub()
	start := time.Now()
	if err := replayTweets(context.Background(), b, tweets, rate); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(ch) != n {
		t.Fatalf("subscriber holds %d of %d tweets", len(ch), n)
	}
	if want := time.Duration(float64(n) / rate * float64(time.Second)); elapsed < want {
		t.Fatalf("replayed %d tweets in %v, faster than %v at %v/s", n, elapsed, want, rate)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("replayed %d tweets in %v at a requested %v/s", n, elapsed, rate)
	}
}
