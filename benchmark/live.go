package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/serve"
	"donorsense/internal/twitter"
)

const (
	// refreshEvery is how many folded tweets separate two refreshes.
	refreshEvery = 10_000
	// checkpointEveryRefreshes is how many refreshes separate two
	// in-memory checkpoints.
	checkpointEveryRefreshes = 10
	// topK is the top-mentioner list each snapshot retains (collect's
	// -serve-top default).
	topK = 250
	// queueSlots is the tweet channel capacity between producer and
	// fold, the same as collect's stream channel.
	queueSlots = 1024
)

// liveIngest is the operator's path: one producer decodes the corpus
// into a channel unpaced, CollectParallel folds it sequentially, and
// every refreshEvery tweets the fold goroutine refreshes the engine,
// publishes a snapshot, and every tenth time checkpoints to memory.
type liveIngest struct {
	c  *corpus
	tr *tracer

	// Per-layer measurements of the last traced pass.
	layer livePassLayer
}

// livePassLayer is what the traced pass reports to the layer suite.
type livePassLayer struct {
	refreshes      []float64 // ms, incremental refreshes only
	dirtyRows      []float64
	publishes      []float64 // ms
	foldBusyShare  float64
	blockedShare   float64
	checkpointSecs []float64
}

func (l *liveIngest) setupSeconds() float64 { return 0 }

func (l *liveIngest) measure(d time.Duration) (outcome, error) {
	var out outcome
	var lags, rates []float64
	start := time.Now()
	for time.Since(start) < d || out.attempted == 0 {
		p, err := l.pass()
		if err != nil {
			return outcome{}, err
		}
		out.attempted += int64(p.decoded + p.cycles)
		out.failed += int64(p.lost + p.failedCycles)
		if p.statsErr != nil {
			fmt.Fprintln(os.Stderr, "live-ingest: check failed:", p.statsErr)
			out.failed++
		}
		rates = append(rates, float64(p.folded)/p.wall.Seconds())
		lags = append(lags, p.lags...)
		fmt.Fprintf(os.Stderr, "live-ingest: %d tweets in %.3f s, %d refreshes\n", p.folded, p.wall.Seconds(), p.cycles)
	}
	out.throughput = median(rates)
	out.latencyP50 = quantile(lags, 0.5)
	out.latencyTail = quantile(lags, 0.9)
	return out, nil
}

// livePass is one pass over the whole corpus.
type livePass struct {
	decoded, folded      int
	lost                 int
	cycles, failedCycles int
	wall                 time.Duration // first handover to last fold
	lags                 []float64     // ms, one per refresh
	statsErr             error
}

func (l *liveIngest) pass() (livePass, error) {
	tr := l.tr
	root := tr.begin("pipeline.live_pass", -1)
	defer tr.end(root)

	d := pipeline.NewDataset()
	cfg := report.DefaultAnalysisConfig()
	cfg.SweepKs = nil // collect refreshes with the sweep off
	cfg.Workers = 1   // collect's -workers default
	eng := report.NewEngine(d, cfg)
	pub := serve.NewPublisher()

	start := time.Now()
	ch := make(chan twitter.Tweet, queueSlots)
	// handover[k] is when the producer handed over the last tweet of
	// refresh k; the fold goroutine reads it only after the producer has
	// exited.
	handover := make([]time.Duration, 0, l.c.tweets/refreshEvery+1)
	var firstHandover time.Duration
	var decoded int
	var blocked time.Duration
	var decodeErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		sp := tr.begin("twitter.ndjson_decode", root)
		defer tr.end(sp)
		var nr twitter.NDJSONReader
		decodeErr = nr.Decode(bytes.NewReader(l.c.ndjson), func(t *twitter.Tweet) error {
			if tr != nil {
				t0 := time.Now()
				ch <- *t
				blocked += time.Since(t0)
			} else {
				ch <- *t
			}
			decoded++
			if decoded == 1 {
				firstHandover = time.Since(start)
			}
			if decoded%refreshEvery == 0 {
				handover = append(handover, time.Since(start))
			}
			return nil
		})
		if decoded%refreshEvery != 0 {
			handover = append(handover, time.Since(start))
		}
	}()

	var p livePass
	var published []time.Duration
	var callbacks time.Duration
	var ckpt bytes.Buffer
	cycle := func() {
		t0 := time.Now()
		p.cycles++
		if err := l.refreshAndPublish(eng, d, pub, &ckpt, p.cycles, root); err != nil {
			fmt.Fprintln(os.Stderr, "live-ingest:", err)
			p.failedCycles++
		}
		published = append(published, time.Since(start))
		callbacks += time.Since(t0)
	}
	sp := tr.begin("pipeline.collect_parallel", root)
	p.folded = d.CollectParallel(context.Background(), ch, pipeline.CollectOptions{
		Workers: 1,
		OnFold: func(total int) bool {
			if total%refreshEvery == 0 {
				cycle()
			}
			return true
		},
	})
	lastFold := time.Since(start)
	tr.end(sp)
	<-done
	if decodeErr != nil {
		return livePass{}, fmt.Errorf("decode corpus: %w", decodeErr)
	}
	foldCallbacks := callbacks
	if p.folded%refreshEvery != 0 {
		cycle() // publish the tail so the final snapshot holds every tweet
	}
	p.decoded = decoded
	p.lost = decoded - p.folded
	p.wall = lastFold - firstHandover
	for k, pubAt := range published {
		if k < len(handover) {
			p.lags = append(p.lags, float64(pubAt-handover[k])/1e6)
		}
	}
	p.statsErr = checkStats(pub, l.c.refStats)

	if tr != nil {
		l.layer.foldBusyShare = float64(p.wall-foldCallbacks) / float64(p.wall)
		l.layer.blockedShare = float64(blocked) / float64(lastFold)
	}
	return p, nil
}

// refreshAndPublish is one refresh cycle on the fold goroutine: refresh,
// publish with the top mentioners, and every checkpointEveryRefreshes-th
// cycle a checkpoint carrying the warm clustering state, into memory.
func (l *liveIngest) refreshAndPublish(eng *report.Engine, d *pipeline.Dataset, pub *serve.Publisher, ckpt *bytes.Buffer, cycle int, parent int) error {
	tr := l.tr
	sp := tr.begin("report.refresh", parent)
	t0 := time.Now()
	a, err := eng.Refresh()
	dt := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("refresh: %w", err)
	}
	if tr != nil {
		if dirty, _, cold := eng.LastRefresh(); !cold {
			l.layer.refreshes = append(l.layer.refreshes, float64(dt)/1e6)
			l.layer.dirtyRows = append(l.layer.dirtyRows, float64(dirty))
		}
	}
	sp = tr.begin("report.top_mentioners", parent)
	top := report.TopMentioners(d, topK)
	tr.end(sp)
	sp = tr.begin("serve.publish", parent)
	t0 = time.Now()
	_, err = pub.Publish(a, serve.Meta{Epoch: eng.Epoch(), Refreshes: eng.Refreshes(), Top: top})
	if tr != nil {
		l.layer.publishes = append(l.layer.publishes, float64(time.Since(t0))/1e6)
	}
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	if cycle%checkpointEveryRefreshes != 0 {
		return nil
	}
	sp = tr.begin("report.marshal_warm", parent)
	b, err := eng.MarshalWarm()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("marshal warm state: %w", err)
	}
	d.SetAnalyticsState(b)
	ckpt.Reset()
	sp = tr.begin("pipeline.write_checkpoint", parent)
	t0 = time.Now()
	err = d.WriteCheckpoint(ckpt)
	if tr != nil {
		l.layer.checkpointSecs = append(l.layer.checkpointSecs, time.Since(t0).Seconds())
	}
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// statsTable is the Table I object of the /api/stats body.
type statsTable struct {
	Start            string  `json:"start"`
	End              string  `json:"end"`
	Days             int     `json:"days"`
	TweetsUS         int     `json:"tweets_us"`
	TweetsTotal      int     `json:"tweets_total"`
	Users            int     `json:"users"`
	AvgTweetsPerDay  float64 `json:"avg_tweets_per_day"`
	AvgTweetsPerUser float64 `json:"avg_tweets_per_user"`
	OrgansPerTweet   float64 `json:"organs_per_tweet"`
	OrgansPerUser    float64 `json:"organs_per_user"`
	GeoTagRate       float64 `json:"geo_tag_rate"`
}

// checkStats reads /api/stats from the publisher's current snapshot and
// compares its Table I with the reference.
func checkStats(pub *serve.Publisher, ref pipeline.TableI) error {
	rec := httptest.NewRecorder()
	serve.NewHandler(pub).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("/api/stats answered %d", rec.Code)
	}
	var doc struct {
		Table statsTable `json:"table"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return fmt.Errorf("/api/stats body: %w", err)
	}
	want := statsTable{
		Start:            ref.Start.UTC().Format(time.RFC3339),
		End:              ref.End.UTC().Format(time.RFC3339),
		Days:             ref.Days,
		TweetsUS:         ref.TweetsCollected,
		TweetsTotal:      ref.TotalCollected,
		Users:            ref.Users,
		AvgTweetsPerDay:  ref.AvgTweetsPerDay,
		AvgTweetsPerUser: ref.AvgTweetsPerUser,
		OrgansPerTweet:   ref.OrgansPerTweet,
		OrgansPerUser:    ref.OrgansPerUser,
		GeoTagRate:       ref.GeoTagRate,
	}
	if doc.Table != want {
		return fmt.Errorf("/api/stats table %+v, reference %+v", doc.Table, want)
	}
	return nil
}
