// Sharded collection mode (collect -shards N) and the merge subcommand.
//
// With -shards N the collector routes the stream by user-id hash across
// N shard workers under a pipeline.Supervisor: each shard owns its own
// dataset and checkpoint file (<base>-shard-<i>), crashes and stalls are
// detected and restarted from the last checkpoint, and at stream end the
// shard datasets are merged — bit-identically to a single-process run.
//
// `donorsense merge` performs the same merge offline, from the shard
// checkpoint files of a finished (or interrupted) sharded run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/obs/trace"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/twitter"
)

// shardedCollectOptions carries the collect flags the sharded path uses.
type shardedCollectOptions struct {
	client           *twitter.StreamClient
	shards           int
	checkpoint       string
	checkpointEvery  time.Duration
	heartbeatTimeout time.Duration
	restartBackoff   time.Duration
	bufferCap        int
	maxTweets        int
	k                int
	sweep            string
	sil              int
	telemetryAddr    string
	progressEvery    time.Duration
	tracer           *trace.Tracer
	errRing          *obs.ErrorRing
}

// collectSharded consumes the stream through a shard supervisor and
// analyzes the merged result.
func collectSharded(ctx context.Context, stop context.CancelFunc, opt shardedCollectOptions) error {
	logger := obs.Logger("collect")
	if opt.tracer != nil {
		// Sampling decisions happen once, at the stream read; the shard
		// datasets continue the sampled traces via SupervisorConfig.Tracer.
		opt.client.Tracer = opt.tracer
	}

	var shardMetrics *pipeline.ShardMetrics
	var analyzeMetrics *report.Metrics
	var sup *pipeline.Supervisor // set below; health check reads it via closure
	if opt.telemetryAddr != "" {
		reg := obs.NewRegistry()
		shardMetrics = pipeline.NewShardMetrics(reg)
		analyzeMetrics = report.NewMetrics(reg)
		streamMetrics := twitter.NewStreamMetrics(reg)
		streamMetrics.Instrument(reg, opt.client)
		opt.client.Codec = twitter.NewDecoder()
		twitter.NewWireMetrics(reg).Observe(opt.client.Codec)
		srv := obs.NewServer(reg)
		if opt.tracer != nil {
			srv.SetTraceRing(opt.tracer.Ring())
		}
		started := time.Now()
		srv.AddStatus("stream", func() obs.StatusSection {
			st := opt.client.Snapshot()
			var sec obs.StatusSection
			sec.Field("connected", streamMetrics.Connected())
			sec.Field("tweets", st.Tweets)
			sec.Field("tweets_per_sec", fmt.Sprintf("%.1f", float64(st.Tweets)/time.Since(started).Seconds()))
			sec.Field("connects", st.Connects)
			sec.Field("retries", st.Retries)
			sec.Field("stalls", st.Stalls)
			sec.Field("rate_limits", st.RateLimits)
			sec.Field("malformed_lines", st.MalformedLines)
			return sec
		})
		srv.AddStatus("shards", shardStatusSection(func() *pipeline.Supervisor { return sup }))
		// Runtime memory only: shard datasets are owned by live workers, so
		// their store footprints are read off /metrics gauges, not here.
		srv.AddStatus("memory", obs.MemStatsStatusSection(nil))
		srv.AddStatus("tracing", tracingStatus(opt.tracer))
		if opt.errRing != nil {
			srv.AddStatus("errors", opt.errRing.StatusSection)
		}
		srv.AddHealthCheck("shards", func() (any, error) {
			if sup == nil {
				return map[string]any{"started": false}, nil
			}
			detail := map[string]any{}
			down := 0
			for _, st := range sup.Status() {
				detail[fmt.Sprintf("shard_%d", st.Shard)] = map[string]any{
					"live": st.Live, "done": st.Done,
					"restarts": st.Restarts, "stalls": st.Stalls,
					"buffer_depth": st.BufferDepth,
				}
				if !st.Live && !st.Done {
					down++
				}
			}
			if down > 0 {
				return detail, fmt.Errorf("%d shard(s) down (restarting)", down)
			}
			return detail, nil
		})
		go func() {
			logger.Info("telemetry listening", "addr", opt.telemetryAddr)
			if err := srv.ListenAndServe(ctx, opt.telemetryAddr); err != nil {
				logger.Error("telemetry server failed", "err", err)
			}
		}()
	}

	sup, err := pipeline.NewSupervisor(pipeline.SupervisorConfig{
		Shards:           opt.shards,
		CheckpointBase:   opt.checkpoint,
		CheckpointEvery:  opt.checkpointEvery,
		HeartbeatTimeout: opt.heartbeatTimeout,
		RestartBackoff:   opt.restartBackoff,
		BufferCap:        opt.bufferCap,
		Metrics:          shardMetrics,
		Logger:           logger,
		Tracer:           opt.tracer,
	})
	if err != nil {
		return err
	}

	tweets := make(chan twitter.Tweet, 1024)
	errc := make(chan error, 1)
	go func() { errc <- opt.client.Filter(ctx, organ.TrackTerms(), tweets) }()

	// The router consumes this relay channel; the relay enforces -max and
	// counts throughput for the progress log.
	routed := make(chan twitter.Tweet, 1024)
	var routedN atomic.Int64
	go func() {
		defer close(routed)
		for {
			select {
			case <-ctx.Done():
				return
			case t, ok := <-tweets:
				if !ok {
					return
				}
				select {
				case routed <- t:
				case <-ctx.Done():
					return
				}
				if n := routedN.Add(1); opt.maxTweets > 0 && n >= int64(opt.maxTweets) {
					stop()
					// Drain remaining deliveries so the client can exit.
					go func() {
						for range tweets {
						}
					}()
					return
				}
			}
		}
	}()

	runDone := make(chan struct{})
	if opt.progressEvery > 0 {
		go func() {
			tick := time.NewTicker(opt.progressEvery)
			defer tick.Stop()
			for {
				select {
				case <-runDone:
					return
				case <-tick.C:
					restarts, buffered := 0, 0
					for _, st := range sup.Status() {
						restarts += st.Restarts
						buffered += st.BufferDepth
					}
					logger.Info("progress",
						"tweets", routedN.Load(), "shards", opt.shards,
						"restarts", restarts, "buffered", buffered)
				}
			}
		}()
	}

	err = sup.Run(ctx, routed)
	close(runDone)
	if err != nil {
		return err
	}
	if serr := <-errc; serr != nil && ctx.Err() == nil {
		// Shard checkpoints were already taken on drain; the data is safe.
		return fmt.Errorf("stream: %w", serr)
	}

	cs := opt.client.Snapshot()
	logger.Info("stream ended; merging shards", "tweets", routedN.Load(), "shards", opt.shards)
	logger.Info("client stats",
		"connects", cs.Connects, "disconnects", cs.Disconnects, "retries", cs.Retries,
		"rate_limits", cs.RateLimits, "stalls", cs.Stalls,
		"skipped_lines", cs.SkippedLines, "malformed_lines", cs.MalformedLines)

	merged, err := sup.Merged()
	if err != nil {
		return err
	}
	if merged.Users() == 0 {
		return fmt.Errorf("no US users collected; nothing to analyze")
	}
	return analyzeDataset(merged, opt.k, opt.sweep, opt.sil, 1, analyzeMetrics, nil, "")
}

// cmdMerge folds the shard checkpoints of a sharded run into one dataset
// offline, optionally saving it as a single-file checkpoint and printing
// the full analysis.
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	base := fs.String("checkpoint", "", "shard checkpoint base path (reads <base>-shard-<i>)")
	shards := fs.Int("shards", 0, "shard count (0 = probe files until one is missing)")
	out := fs.String("out", "", "write the merged dataset as a single checkpoint to this path")
	noAnalyze := fs.Bool("no-analyze", false, "merge (and -out save) only; skip printing the analysis")
	k := fs.Int("k", 12, "user cluster count (Figure 7)")
	sweep := fs.String("sweep", "", "comma-separated ks for the model-selection sweep")
	sil := fs.Int("silhouette-sample", 0, "sweep silhouette sample size (0 = exact over all users)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" {
		return errors.New("merge: -checkpoint is required")
	}
	logger := obs.Logger("merge")

	n := *shards
	if n == 0 {
		for {
			if _, err := os.Stat(pipeline.ShardCheckpointPath(*base, n)); err != nil {
				break
			}
			n++
		}
		if n == 0 {
			return fmt.Errorf("merge: no shard checkpoints found at %s", pipeline.ShardCheckpointPath(*base, 0))
		}
	}

	var merged *pipeline.Dataset
	for i := 0; i < n; i++ {
		path := pipeline.ShardCheckpointPath(*base, i)
		d, usedBackup, err := pipeline.LoadCheckpointFallback(path)
		if err != nil {
			return fmt.Errorf("merge: shard %d: %w", i, err)
		}
		if usedBackup {
			logger.Warn("shard restored from backup checkpoint", "shard", i, "path", path)
		}
		if merged == nil {
			merged = d
		} else {
			merged.Merge(d)
		}
	}
	logger.Info("merged shard checkpoints",
		"shards", n, "us_tweets", merged.USTweets(), "users", merged.Users())

	if *out != "" {
		if err := merged.SaveCheckpoint(*out); err != nil {
			return err
		}
		logger.Info("saved merged checkpoint", "path", *out)
	}
	if *noAnalyze {
		return nil
	}
	if merged.Users() == 0 {
		return fmt.Errorf("merge: no US users in the shard checkpoints; nothing to analyze")
	}
	return analyzeDataset(merged, *k, *sweep, *sil, 1, nil, nil, "")
}
