package twitter

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"donorsense/internal/organ"
)

func sampleTweet() Tweet {
	return Tweet{
		ID:        123456789,
		Text:      "Register as an organ donor — kidney transplants save lives",
		CreatedAt: time.Date(2015, 4, 22, 13, 45, 0, 0, time.UTC),
		User: User{
			ID:         42,
			ScreenName: "donor_advocate",
			Location:   "Wichita, KS",
		},
	}
}

func TestTweetJSONRoundTrip(t *testing.T) {
	in := sampleTweet()
	in.SetCoordinates(37.7, -97.3)
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Tweet
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Text != in.Text || !out.CreatedAt.Equal(in.CreatedAt) {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
	if out.User != in.User {
		t.Errorf("user mismatch: %+v vs %+v", out.User, in.User)
	}
	if !out.HasCoordinates || out.Coordinates.Lat != 37.7 || out.Coordinates.Lon != -97.3 {
		t.Errorf("coordinates mismatch: %+v", out.Coordinates)
	}
}

func TestTweetJSONWireShape(t *testing.T) {
	in := sampleTweet()
	in.SetCoordinates(37.7, -97.3)
	data, _ := json.Marshal(in)
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	// v1.1 shape: created_at string, nested user, GeoJSON [lon, lat].
	if _, ok := raw["created_at"].(string); !ok {
		t.Error("created_at not a string")
	}
	u, ok := raw["user"].(map[string]any)
	if !ok || u["screen_name"] != "donor_advocate" {
		t.Errorf("user wire shape wrong: %v", raw["user"])
	}
	co, ok := raw["coordinates"].(map[string]any)
	if !ok || co["type"] != "Point" {
		t.Fatalf("coordinates wire shape wrong: %v", raw["coordinates"])
	}
	pair := co["coordinates"].([]any)
	if pair[0].(float64) != -97.3 || pair[1].(float64) != 37.7 {
		t.Errorf("GeoJSON order wrong: %v", pair)
	}
}

func TestTweetJSONOmitsNilCoordinates(t *testing.T) {
	data, _ := json.Marshal(sampleTweet())
	if strings.Contains(string(data), "coordinates") {
		t.Error("nil coordinates serialized")
	}
}

func TestTweetUnmarshalErrors(t *testing.T) {
	var tw Tweet
	if err := tw.UnmarshalJSON([]byte("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if err := tw.UnmarshalJSON([]byte(`{"id":1,"created_at":"yesterday"}`)); err == nil {
		t.Error("bad created_at accepted")
	}
}

func TestTrackFilterSemantics(t *testing.T) {
	f := NewTrackFilter("donor kidney,transplant heart")
	tests := []struct {
		text string
		want bool
	}{
		{"be a kidney donor today", true},       // both terms of phrase 1
		{"kidney DONOR", true},                  // case-insensitive, order-free
		{"heart transplant waiting list", true}, // phrase 2
		{"kidney beans", false},                 // only one term
		{"donor heart", false},                  // terms from different phrases
		{"donor, kidney!", true},                // punctuation-delimited
		{"", false},
	}
	for _, tt := range tests {
		if got := f.Matches(tt.text); got != tt.want {
			t.Errorf("Matches(%q) = %v, want %v", tt.text, got, tt.want)
		}
	}
}

func TestTrackFilterEmpty(t *testing.T) {
	f := NewTrackFilter("  , ,, ")
	if !f.Empty() || f.Matches("anything donor kidney") {
		t.Error("empty filter misbehaves")
	}
}

func TestPaperKeywordProductFitsTrackLimit(t *testing.T) {
	// The paper's Figure 1 product must be a valid single track parameter.
	track := organ.TrackTerms()
	if err := ValidateTrack(track); err != nil {
		t.Fatalf("paper keyword product rejected: %v", err)
	}
	f := NewTrackFilter(track)
	if f.NumPhrases() != len(organ.Keywords()) {
		t.Errorf("phrases = %d, want %d", f.NumPhrases(), len(organ.Keywords()))
	}
	if !f.Matches("please donate your kidneys") {
		t.Error("paper filter missed a donation tweet")
	}
	if f.Matches("I donated money to charity") {
		t.Error("paper filter matched a no-organ tweet")
	}
	if f.Matches("my kidney hurts") {
		t.Error("paper filter matched a no-context tweet")
	}
}

func TestValidateTrackLimit(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 401; i++ {
		sb.WriteString("word")
		sb.WriteString(",")
	}
	if err := ValidateTrack(sb.String()); err == nil {
		t.Error("401 phrases accepted")
	}
	if err := ValidateTrack(""); err == nil {
		t.Error("empty track accepted")
	}
}

func TestBroadcasterDeliversToMatchingSubscribers(t *testing.T) {
	b := NewBroadcaster()
	defer b.Close()
	all, cancelAll := b.Subscribe(10, nil)
	defer cancelAll()
	kidneyOnly, cancelK := b.Subscribe(10, NewTrackFilter("kidney donor"))
	defer cancelK()

	tw := sampleTweet()
	if n := b.Publish(tw); n != 2 {
		t.Errorf("Publish delivered to %d, want 2", n)
	}
	other := tw
	other.Text = "heart transplant news"
	if n := b.Publish(other); n != 1 {
		t.Errorf("Publish delivered to %d, want 1", n)
	}
	if got := <-all; got.ID != tw.ID {
		t.Error("firehose subscriber missed tweet")
	}
	if got := <-kidneyOnly; !strings.Contains(got.Text, "kidney") {
		t.Error("filtered subscriber got wrong tweet")
	}
}

func TestBroadcasterDropsStalledSubscriber(t *testing.T) {
	b := NewBroadcaster()
	defer b.Close()
	ch, cancel := b.Subscribe(1, nil)
	defer cancel()
	tw := sampleTweet()
	b.Publish(tw) // fills buffer
	b.Publish(tw) // overflows: subscriber dropped
	if b.NumSubscribers() != 0 {
		t.Errorf("stalled subscriber not dropped: %d", b.NumSubscribers())
	}
	// Channel yields the buffered tweet, then closes.
	if _, open := <-ch; !open {
		t.Error("buffered tweet lost")
	}
	if _, open := <-ch; open {
		t.Error("dropped subscriber channel not closed")
	}
}

// TestBroadcasterPublishWaitBlocksOnFullBuffer: PublishWait waits for a
// full subscriber instead of dropping it, delivers once the subscriber
// drains, and returns ctx.Err() when the context ends first.
func TestBroadcasterPublishWaitBlocksOnFullBuffer(t *testing.T) {
	b := NewBroadcaster()
	defer b.Close()
	ch, cancel := b.Subscribe(1, nil)
	defer cancel()
	tw := sampleTweet()
	if n, err := b.PublishWait(context.Background(), tw); n != 1 || err != nil {
		t.Fatalf("PublishWait into room = (%d, %v)", n, err)
	}
	done := make(chan int, 1)
	go func() {
		n, _ := b.PublishWait(context.Background(), tw)
		done <- n
	}()
	<-ch // make room; the blocked publish completes
	if n := <-done; n != 1 {
		t.Fatalf("blocked PublishWait delivered to %d, want 1", n)
	}
	if b.NumSubscribers() != 1 {
		t.Fatal("PublishWait disconnected a slow subscriber")
	}
	ctx, stop := context.WithCancel(context.Background())
	stop()
	if _, err := b.PublishWait(ctx, tw); !errors.Is(err, context.Canceled) {
		t.Fatalf("PublishWait on a full buffer after cancel = %v, want context.Canceled", err)
	}
}

// TestBroadcasterPublishWaitDetachRace detaches subscribers — by cancel
// and by Close — while PublishWait sends to their full buffers are in
// flight; no send may meet a closed channel (the race detector and a
// send-on-closed panic would both catch it) and every channel must end
// closed.
func TestBroadcasterPublishWaitDetachRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		b := NewBroadcaster()
		ch1, cancel1 := b.Subscribe(1, nil)
		ch2, _ := b.Subscribe(1, nil)
		published := make(chan struct{})
		go func() {
			defer close(published)
			for i := 0; i < 4; i++ {
				b.PublishWait(context.Background(), sampleTweet())
			}
		}()
		cancel1()
		b.Close()
		<-published
		for _, ch := range []<-chan Tweet{ch1, ch2} {
			for range ch {
			}
		}
	}
}

func TestBroadcasterClose(t *testing.T) {
	b := NewBroadcaster()
	ch, _ := b.Subscribe(1, nil)
	b.Close()
	if _, open := <-ch; open {
		t.Error("channel open after Close")
	}
	if n := b.Publish(sampleTweet()); n != 0 {
		t.Error("Publish after Close delivered")
	}
	ch2, _ := b.Subscribe(1, nil)
	if _, open := <-ch2; open {
		t.Error("Subscribe after Close returned open channel")
	}
	b.Close() // idempotent
}

func TestBroadcasterCancelIdempotent(t *testing.T) {
	b := NewBroadcaster()
	defer b.Close()
	_, cancel := b.Subscribe(1, nil)
	cancel()
	cancel() // must not panic or double-close
	if b.NumSubscribers() != 0 {
		t.Error("cancel did not remove subscriber")
	}
}

func TestStreamServerEndToEnd(t *testing.T) {
	b := NewBroadcaster()
	srv := httptest.NewServer(NewStreamServer(b).Handler())
	defer srv.Close()
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	client := &StreamClient{BaseURL: srv.URL, MaxConnects: 3}
	out := make(chan Tweet, 16)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, "donor kidney", out) }()

	// Wait for the subscription to land, then publish.
	deadline := time.Now().Add(2 * time.Second)
	for b.NumSubscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if b.NumSubscribers() == 0 {
		t.Fatal("client never subscribed")
	}

	match := sampleTweet()
	noMatch := match
	noMatch.ID = 2
	noMatch.Text = "nothing relevant"
	b.Publish(match)
	b.Publish(noMatch)
	b.Publish(match)

	got := 0
	for got < 2 {
		select {
		case tw := <-out:
			if tw.ID != match.ID {
				t.Errorf("received non-matching tweet %d", tw.ID)
			}
			got++
		case <-ctx.Done():
			t.Fatalf("timed out after %d tweets", got)
		}
	}

	b.Close() // clean end of stream
	if err := <-errc; err != nil {
		t.Errorf("Filter returned %v, want nil on clean close", err)
	}
}

func TestStreamServerRejectsEmptyTrack(t *testing.T) {
	b := NewBroadcaster()
	defer b.Close()
	srv := httptest.NewServer(NewStreamServer(b).Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	client := &StreamClient{BaseURL: srv.URL, MaxConnects: 1}
	out := make(chan Tweet)
	if err := client.Filter(ctx, "", out); err == nil {
		t.Error("empty track accepted by client")
	}

	// Direct HTTP check for the 406.
	resp, err := srv.Client().Get(srv.URL + FilterPath + "?track=")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 406 {
		t.Errorf("status = %d, want 406", resp.StatusCode)
	}
}

func TestStreamClientReconnects(t *testing.T) {
	b := NewBroadcaster()
	defer b.Close()
	srv := httptest.NewServer(NewStreamServer(b).Handler())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client := &StreamClient{
		BaseURL:        srv.URL,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		MaxConnects:    5,
	}
	out := make(chan Tweet, 4)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, "donor kidney", out) }()

	// First connection.
	deadline := time.Now().Add(2 * time.Second)
	for b.NumSubscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	b.Publish(sampleTweet())
	<-out

	// Force a disconnect by overflowing the subscriber buffer, then check
	// the client comes back.
	prevServer := NewStreamServer(b)
	_ = prevServer
	// Instead: drop all subscribers via Close is terminal; simulate a
	// transient server failure by killing the HTTP server and restarting
	// a new one at a different URL is not possible for the same client.
	// So exercise reconnection by having the handler's subscriber dropped:
	// publish faster than the unread client buffer allows. The server-side
	// subscriber buffer is 1024; fill it without reading.
	for i := 0; i < 3000; i++ {
		b.Publish(sampleTweet())
	}
	// Drain whatever arrives; the client must eventually resubscribe.
	drained := make(chan struct{})
	go func() {
		for range out {
		}
		close(drained)
	}()
	deadline = time.Now().Add(3 * time.Second)
	reconnected := false
	for time.Now().Before(deadline) {
		if b.NumSubscribers() > 0 {
			reconnected = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !reconnected {
		t.Error("client did not reconnect after being dropped")
	}
	cancel()
	<-errc
	<-drained
	srv.Close()
}

func TestTweetJSONPropertyRoundTrip(t *testing.T) {
	f := func(id int64, txt, name, loc string, hasGeo bool, lat, lon float64) bool {
		in := Tweet{
			ID:        id,
			Text:      txt,
			CreatedAt: time.Date(2015, 7, 1, 12, 0, 0, 0, time.UTC),
			User:      User{ID: id + 1, ScreenName: name, Location: loc},
		}
		if hasGeo {
			in.SetCoordinates(lat, lon)
		}
		data, err := json.Marshal(in)
		if err != nil {
			return false
		}
		var out Tweet
		if err := json.Unmarshal(data, &out); err != nil {
			return false
		}
		if out.ID != in.ID || out.Text != in.Text || out.User != in.User {
			return false
		}
		if hasGeo != out.HasCoordinates {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrackFilterMatch(b *testing.B) {
	f := NewTrackFilter(organ.TrackTerms())
	texts := []string{
		"Register as an organ donor — kidney transplants save lives",
		"what a game last night",
		"my cousin needs a liver transplant, please keep her in your prayers",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Matches(texts[i%len(texts)])
	}
}

func BenchmarkTweetMarshal(b *testing.B) {
	tw := sampleTweet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(tw); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStreamServerKeepAlive(t *testing.T) {
	b := NewBroadcaster()
	defer b.Close()
	srv := NewStreamServer(b)
	srv.KeepAlive = 10 * time.Millisecond
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := hs.Client().Get(hs.URL + FilterPath + "?track=donor+kidney")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// With no tweets published, the connection must still deliver blank
	// keep-alive lines.
	buf := make([]byte, 8)
	deadline := time.Now().Add(2 * time.Second)
	got := 0
	for got == 0 && time.Now().Before(deadline) {
		n, err := resp.Body.Read(buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		for _, c := range buf[:n] {
			if c == '\n' {
				got++
			}
		}
	}
	if got == 0 {
		t.Error("no keep-alive newlines received")
	}
}

func TestStreamClientDeleteNotices(t *testing.T) {
	// A raw handler interleaving tweets, delete notices, keep-alives, and
	// garbage; the client must deliver tweets, surface deletes, and skip
	// the rest.
	tw := sampleTweet()
	payload, _ := json.Marshal(tw)
	mux := http.NewServeMux()
	mux.HandleFunc(FilterPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
		w.Write(payload)
		w.Write([]byte("\n\n")) // tweet + keep-alive
		w.Write([]byte(`{"delete":{"status":{"id":123456789,"user_id":42}}}` + "\n"))
		w.Write([]byte("{garbage\n"))
		w.Write(payload)
		w.Write([]byte("\n"))
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	var deletes []DeleteNotice
	client := &StreamClient{
		BaseURL:     hs.URL,
		MaxConnects: 1,
		OnDelete:    func(d DeleteNotice) { deletes = append(deletes, d) },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	out := make(chan Tweet, 8)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, "donor kidney", out) }()

	var tweets []Tweet
	for tw := range out {
		tweets = append(tweets, tw)
	}
	<-errc
	if len(tweets) != 2 {
		t.Errorf("delivered %d tweets, want 2", len(tweets))
	}
	if len(deletes) != 1 || deletes[0].StatusID != 123456789 || deletes[0].UserID != 42 {
		t.Errorf("deletes = %+v", deletes)
	}
}
