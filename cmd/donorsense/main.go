// Command donorsense is the command-line interface to the organ-donation
// social sensor. It chains the stages of the paper's pipeline:
//
//	donorsense generate -scale 0.05 -seed 1 -out corpus.ndjson
//	    synthesize a tweet corpus (the Twitter-stream stand-in)
//
//	donorsense analyze -in corpus.ndjson [-k 12] [-sweep 6,8,12]
//	    run collect → augment → filter → characterize and print every
//	    table and figure of the paper
//
//	donorsense collect -url http://127.0.0.1:7700 -max 10000
//	    consume a live stream server (see cmd/streamsim) and analyze the
//	    collected tweets
//
//	donorsense keywords
//	    print the Figure 1 keyword product / Stream API track parameter
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"donorsense/internal/core"
	"donorsense/internal/export"
	"donorsense/internal/gen"
	"donorsense/internal/obs"
	"donorsense/internal/obs/trace"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/serve"
	"donorsense/internal/temporal"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "collect":
		err = cmdCollect(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "keywords":
		err = cmdKeywords(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "-version", "--version", "version":
		fmt.Println(obs.ReadBuild().String())
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "donorsense: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "donorsense:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: donorsense <command> [flags]

commands:
  generate   synthesize a tweet corpus to NDJSON
  analyze    analyze an NDJSON corpus and print the paper's tables/figures
  collect    consume a stream server, then analyze (-shards N for sharded mode)
  merge      merge the shard checkpoints of a sharded run and analyze
  keywords   print the Figure 1 keyword product (Stream API track syntax)
  replay     serve an NDJSON corpus over the Stream API protocol
  serve      expose a checkpoint's analysis as the /api query endpoints
  version    print build identity (module version, go version, VCS revision)
`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	scale := fs.Float64("scale", 0.05, "population scale (1.0 = paper magnitude, ≈1M tweets)")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "corpus.ndjson", "output file (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := gen.DefaultConfig(*scale)
	cfg.Seed = *seed
	corpus := gen.Generate(cfg)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create output: %w", err)
		}
		defer f.Close()
		w = f
	}
	if err := twitter.WriteNDJSON(w, corpus.Tweets); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d tweets (%d users) at scale %g → %s\n",
		len(corpus.Tweets), len(corpus.Profiles), *scale, *out)
	return nil
}

// parseKs parses a comma-separated k list like "6,8,12".
func parseKs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		k, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad k %q: %w", p, err)
		}
		out = append(out, k)
	}
	return out, nil
}

func analyzeDataset(d *pipeline.Dataset, k int, sweep string, silhouetteSample, workers int, metrics *report.Metrics, series *temporal.Series, exportDir string) error {
	cfg := report.DefaultAnalysisConfig()
	cfg.KUsers = k
	cfg.SilhouetteSample = silhouetteSample
	cfg.Workers = workers
	cfg.Metrics = metrics
	ks, err := parseKs(sweep)
	if err != nil {
		return err
	}
	cfg.SweepKs = ks
	a, err := report.Analyze(d, cfg)
	if err != nil {
		return err
	}
	fmt.Print(a.Render())

	var bursts []temporal.Burst
	if series != nil {
		fmt.Println("\n=== Extensions ===")
		counts := map[string]int{}
		for _, m := range []core.Correction{core.NoCorrection, core.BHCorrection, core.BonferroniCorrection} {
			adj, err := a.Highlight.AdjustedHighlights(m)
			if err != nil {
				return err
			}
			counts[m.String()] = core.CountHighlights(adj)
		}
		fmt.Print(report.CorrectionComparisonText(counts))

		det := temporal.DefaultDetectorConfig()
		if bursts, err = temporal.DetectAll(series, det); err != nil {
			return fmt.Errorf("burst detection: %w", err)
		}
		fmt.Print(report.TemporalText(series, bursts))
	}
	if exportDir != "" {
		if err := exportResults(exportDir, a, series, bursts); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "exported CSV/JSON results to %s\n", exportDir)
	}
	return nil
}

// exportResults writes the machine-readable artifacts of a run.
func exportResults(dir string, a *report.Analysis, series *temporal.Series, bursts []temporal.Burst) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("export dir: %w", err)
	}
	write := func(name string, fn func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if err := write("state_signatures.csv", func(w *os.File) error {
		return export.StateSignaturesCSV(w, a.Regions)
	}); err != nil {
		return err
	}
	if err := write("relative_risk.csv", func(w *os.File) error {
		return export.RelativeRiskCSV(w, a.Highlight)
	}); err != nil {
		return err
	}
	if a.Clusters != nil {
		if err := write("user_clusters.csv", func(w *os.File) error {
			return export.ClustersCSV(w, a.Clusters)
		}); err != nil {
			return err
		}
	}
	if series != nil {
		if err := write("daily_series.csv", func(w *os.File) error {
			return export.SeriesCSV(w, series)
		}); err != nil {
			return err
		}
	}
	return write("summary.json", func(w *os.File) error {
		sum := export.BuildSummary(a.Stats, a.Popularity, a.Spearman.R, a.Spearman.P,
			a.Highlight, series, bursts, time.Now().UTC())
		return export.WriteSummaryJSON(w, sum)
	})
}

// newSeriesFor builds an empty temporal series spanning the corpus window
// (derived from the tweet timestamps).
func newSeriesFor(tweets []twitter.Tweet) (*temporal.Series, error) {
	if len(tweets) == 0 {
		return nil, fmt.Errorf("empty corpus")
	}
	first, last := tweets[0].CreatedAt, tweets[0].CreatedAt
	for _, t := range tweets {
		if t.CreatedAt.Before(first) {
			first = t.CreatedAt
		}
		if t.CreatedAt.After(last) {
			last = t.CreatedAt
		}
	}
	days := int(last.Sub(first).Hours()/24) + 1
	return temporal.NewSeries(first.UTC().Truncate(24*time.Hour), days)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "corpus.ndjson", "input NDJSON corpus (- for stdin)")
	k := fs.Int("k", 12, "user cluster count (Figure 7)")
	sweep := fs.String("sweep", "6,8,10,12,14,16", "comma-separated ks for the model-selection sweep (empty to skip)")
	sil := fs.Int("silhouette-sample", 0, "sweep silhouette sample size (0 = exact over all users)")
	extensions := fs.Bool("extensions", false, "also print multiple-testing corrections and the temporal burst sensor")
	workers := fs.Int("workers", 0, "pipeline and analysis workers (0 = GOMAXPROCS; any value gives identical results)")
	exportDir := fs.String("export", "", "directory to write CSV/JSON results into (empty = no export)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("open input: %w", err)
		}
		defer f.Close()
		r = f
	}
	tweets, err := twitter.ReadNDJSON(r)
	if err != nil {
		return err
	}
	d := pipeline.NewDataset()
	var series *temporal.Series
	if *extensions {
		if series, err = newSeriesFor(tweets); err != nil {
			return err
		}
		d.OnUSTweet = func(tw twitter.Tweet, ex text.Extraction) {
			series.Observe(tw, ex)
		}
	}
	d.ProcessAll(tweets, *workers)
	return analyzeDataset(d, *k, *sweep, *sil, *workers, nil, series, *exportDir)
}

func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:7700", "stream server base URL")
	maxTweets := fs.Int("max", 0, "stop after this many collected tweets (0 = until stream ends)")
	k := fs.Int("k", 12, "user cluster count (Figure 7)")
	sweep := fs.String("sweep", "", "comma-separated ks for the model-selection sweep")
	sil := fs.Int("silhouette-sample", 0, "sweep silhouette sample size (0 = exact over all users)")
	workers := fs.Int("workers", 1, "extract/geocode workers for live collection (0 = GOMAXPROCS, 1 = sequential)")
	checkpoint := fs.String("checkpoint", "", "checkpoint file: load on start (if present), save periodically and on shutdown")
	checkpointEvery := fs.Duration("checkpoint-every", 30*time.Second, "interval between periodic checkpoint saves")
	reportEvery := fs.Duration("report-every", 0, "interval between in-flight incremental analysis refreshes (0 = off; single-shard mode only)")
	shards := fs.Int("shards", 1, "hash-partitioned shard workers; >1 runs the crash-tolerant shard supervisor (-checkpoint becomes the per-shard base path)")
	shardBuffer := fs.Int("shard-buffer", 8192, "per-shard replay buffer capacity (sharded mode; full buffer = backpressure, not loss)")
	heartbeatTimeout := fs.Duration("heartbeat-timeout", 30*time.Second, "restart a shard silent for this long with pending work (sharded mode)")
	restartBackoff := fs.Duration("restart-backoff", 250*time.Millisecond, "initial delay before restarting a crashed shard, doubling per failure (sharded mode)")
	stallTimeout := fs.Duration("stall-timeout", 90*time.Second, "tear down connections silent for this long")
	backoff := fs.Duration("backoff", 250*time.Millisecond, "initial reconnect delay (doubles per failure, full jitter)")
	rlBackoff := fs.Duration("ratelimit-backoff", 60*time.Second, "initial delay after a 420/429 rate limit (doubles per repeat)")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /healthz, /statusz, /debug/traces, /debug/pprof, /debug/vars on this address (empty = off)")
	serveAPI := fs.Bool("serve", false, "expose the live analysis as /api/... query endpoints on the telemetry server (requires -telemetry-addr and -report-every)")
	serveTop := fs.Int("serve-top", 250, "top mentioning users retained per published snapshot for /api/top")
	progressEvery := fs.Duration("progress-every", 10*time.Second, "interval between progress log lines (0 = silent)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
	logJSON := fs.Bool("log-json", false, "emit logs as single-line JSON instead of text")
	traceSample := fs.Float64("trace-sample", 0, "fraction of tweets to span-trace end to end (0 = off, 1 = every tweet)")
	traceRing := fs.Int("trace-ring", 4096, "spans retained in the /debug/traces ring")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "log a wide event for any sampled span at least this slow")
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	if *serveAPI {
		switch {
		case *telemetryAddr == "":
			return fmt.Errorf("-serve requires -telemetry-addr (the /api endpoints ride the telemetry mux)")
		case *reportEvery <= 0:
			return fmt.Errorf("-serve requires -report-every > 0 (snapshots publish after each refresh)")
		case *shards > 1:
			return fmt.Errorf("-serve is single-shard only (the incremental engine does not run under -shards)")
		}
	}
	// Tee warn-or-worse records into the /statusz error ring on the way to
	// stderr, so the page can show recent trouble without log scraping.
	errRing := obs.NewErrorRing(64)
	obs.SetLogger(slog.New(obs.CaptureErrors(obs.NewLogger(os.Stderr, level, *logJSON).Handler(), errRing)))
	logger := obs.Logger("collect")

	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Config{
			SampleRate: *traceSample,
			RingSize:   *traceRing,
			SlowSpan:   *traceSlow,
			Logger:     obs.Logger("trace"),
		})
	}

	if *shards > 1 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return collectSharded(ctx, stop, shardedCollectOptions{
			client: &twitter.StreamClient{
				BaseURL:          *url,
				StallTimeout:     *stallTimeout,
				InitialBackoff:   *backoff,
				RateLimitBackoff: *rlBackoff,
			},
			shards:           *shards,
			checkpoint:       *checkpoint,
			checkpointEvery:  *checkpointEvery,
			heartbeatTimeout: *heartbeatTimeout,
			restartBackoff:   *restartBackoff,
			bufferCap:        *shardBuffer,
			maxTweets:        *maxTweets,
			k:                *k,
			sweep:            *sweep,
			sil:              *sil,
			telemetryAddr:    *telemetryAddr,
			progressEvery:    *progressEvery,
			tracer:           tracer,
			errRing:          errRing,
		})
	}

	// lastSaveUnixNano is read by the /healthz checkpoint check from the
	// telemetry goroutine while the collect loop writes it; 0 = never.
	var lastSaveUnixNano atomic.Int64
	started := time.Now()

	d := pipeline.NewDataset()
	if *checkpoint != "" {
		switch loaded, err := pipeline.LoadCheckpoint(*checkpoint); {
		case err == nil:
			d = loaded
			logger.Info("resumed from checkpoint",
				"path", *checkpoint, "us_tweets", d.USTweets(), "users", d.Users())
		case os.IsNotExist(err):
			logger.Info("no checkpoint; starting fresh", "path", *checkpoint)
		default:
			return err
		}
	}

	// Incremental analytics: an engine that keeps the full report warm
	// between refreshes, patching only the users touched since the last
	// one. Its clustering warm state rides the checkpoint (v4), so a
	// resumed collector skips the cold start too. Refreshes run on the
	// collect goroutine against a quiescent dataset; the sweep is left off
	// — it is a cold model-selection tool, not a live artifact.
	var engine *report.Engine
	probe := &analyticsProbe{enabled: *reportEvery > 0, every: *reportEvery}
	if *reportEvery > 0 {
		ecfg := report.DefaultAnalysisConfig()
		ecfg.KUsers = *k
		ecfg.SilhouetteSample = *sil
		ecfg.Workers = *workers
		ecfg.SweepKs = nil
		engine = report.NewEngine(d, ecfg)
		if err := engine.RestoreWarm(d.AnalyticsState()); err != nil {
			logger.Warn("ignoring unreadable analytics warm state", "err", err)
		}
		if tracer != nil {
			engine.SetTracer(tracer)
		}
	}

	// SIGINT and SIGTERM both end collection; the deferred save below
	// checkpoints whatever was gathered before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &twitter.StreamClient{
		BaseURL:          *url,
		StallTimeout:     *stallTimeout,
		InitialBackoff:   *backoff,
		RateLimitBackoff: *rlBackoff,
	}
	if tracer != nil {
		client.Tracer = tracer
		d.SetTracer(tracer)
	}

	// Telemetry: registry + instrumented client/pipeline + HTTP endpoint.
	var streamMetrics *twitter.StreamMetrics
	var analyzeMetrics *report.Metrics
	// pub, when -serve is on, owns the RCU snapshot behind /api/...; the
	// collect goroutine publishes after each refresh, request goroutines
	// only load the pointer.
	var pub *serve.Publisher
	if *telemetryAddr != "" {
		reg := obs.NewRegistry()
		d.SetMetrics(pipeline.NewMetrics(reg))
		analyzeMetrics = report.NewMetrics(reg)
		streamMetrics = twitter.NewStreamMetrics(reg)
		streamMetrics.Instrument(reg, client)
		client.Codec = twitter.NewDecoder()
		twitter.NewWireMetrics(reg).Observe(client.Codec)
		srv := obs.NewServer(reg)
		srv.AddHealthCheck("stream", func() (any, error) {
			st := client.Snapshot()
			detail := map[string]any{
				"connected":   streamMetrics.Connected(),
				"connects":    st.Connects,
				"retries":     st.Retries,
				"stalls":      st.Stalls,
				"rate_limits": st.RateLimits,
				"tweets":      st.Tweets,
			}
			if st.Connects > 0 && !streamMetrics.Connected() {
				return detail, fmt.Errorf("stream disconnected (reconnecting)")
			}
			return detail, nil
		})
		srv.AddHealthCheck("checkpoint", func() (any, error) {
			if *checkpoint == "" {
				return map[string]any{"enabled": false}, nil
			}
			last := lastSaveUnixNano.Load()
			detail := map[string]any{"enabled": true, "path": *checkpoint}
			var age time.Duration
			if last == 0 {
				age = time.Since(started)
				detail["age_seconds"] = nil // no save yet this run
			} else {
				age = time.Since(time.Unix(0, last))
				detail["age_seconds"] = age.Seconds()
			}
			if age > 5**checkpointEvery {
				return detail, fmt.Errorf("checkpoint stale: last save %s ago", age.Round(time.Second))
			}
			return detail, nil
		})
		if tracer != nil {
			srv.SetTraceRing(tracer.Ring())
		}
		srv.AddStatus("stream", func() obs.StatusSection {
			st := client.Snapshot()
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
		if engine != nil {
			engine.SetMetrics(report.NewEngineMetrics(reg))
		}
		srv.AddStatus("checkpoint", checkpointStatus(*checkpoint, &lastSaveUnixNano))
		srv.AddStatus("analytics", analyticsStatus(probe))
		if *serveAPI {
			pub = serve.NewPublisher()
			handler := serve.NewHandler(pub)
			handler.SetMetrics(serve.NewMetrics(reg, pub))
			srv.SetQueryAPI(handler)
			// On shutdown the server flips the publisher into drain mode
			// first (new requests 503+Retry-After), then Shutdown finishes
			// the reads already in flight.
			srv.OnShutdown(pub.BeginDrain)
			srv.AddStatus("serve", serveStatus(pub))
		}
		srv.AddStatus("memory", obs.MemStatsStatusSection(func(sec *obs.StatusSection) {
			rows, bytes := d.StoreFootprint()
			sec.Field("userstore_rows", rows)
			sec.Field("userstore_bytes", obs.FormatBytes(uint64(bytes)))
		}))
		srv.AddStatus("tracing", tracingStatus(tracer))
		srv.AddStatus("errors", errRing.StatusSection)
		go func() {
			logger.Info("telemetry listening", "addr", *telemetryAddr)
			if err := srv.ListenAndServe(ctx, *telemetryAddr); err != nil {
				logger.Error("telemetry server failed", "err", err)
			}
		}()
	}

	tweets := make(chan twitter.Tweet, 1024)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, organ.TrackTerms(), tweets) }()

	save := func() error {
		if *checkpoint == "" {
			return nil
		}
		// Ride the clustering warm state along in the snapshot (v4) so a
		// resumed collector's first refresh resumes instead of cold-starting.
		if engine != nil {
			if b, err := engine.MarshalWarm(); err != nil {
				logger.Warn("analytics warm state not persisted", "err", err)
			} else {
				d.SetAnalyticsState(b)
			}
		}
		if err := d.SaveCheckpoint(*checkpoint); err != nil {
			return err
		}
		lastSaveUnixNano.Store(time.Now().UnixNano())
		return nil
	}
	lastSave := time.Now()

	// refreshReport runs one incremental refresh and publishes the outcome
	// to the log and the /statusz probe. Skipped while the dataset is
	// empty: there is nothing to analyze yet.
	lastReport := time.Now()
	refreshReport := func() {
		if engine == nil || d.Users() == 0 {
			return
		}
		a, err := engine.Refresh()
		if err != nil {
			logger.Warn("analysis refresh failed", "err", err)
			return
		}
		if pub != nil {
			// Publish while this goroutine holds the quiescent dataset:
			// the snapshot build deep-copies everything the next refresh
			// will mutate in place.
			if _, err := pub.Publish(a, serve.Meta{
				Epoch:     engine.Epoch(),
				Refreshes: engine.Refreshes(),
				Top:       report.TopMentioners(d, *serveTop),
			}); err != nil {
				logger.Warn("snapshot publish failed", "err", err)
			}
		}
		dirty, latency, cold := engine.LastRefresh()
		probe.refreshes.Store(engine.Refreshes())
		probe.epoch.Store(engine.Epoch())
		probe.dirty.Store(int64(dirty))
		probe.latencyNS.Store(int64(latency))
		probe.cold.Store(cold)
		probe.users.Store(int64(d.Users()))
		probe.lastUnix.Store(time.Now().UnixNano())
		logger.Info("analysis refreshed",
			"epoch", engine.Epoch(), "dirty_rows", dirty, "cold", cold,
			"latency", latency.Round(time.Microsecond).String(), "users", d.Users())
	}

	// Progress: a periodic one-line pulse — ingest rate, retention, and
	// checkpoint age — so a multi-day run is never silent.
	var progressC <-chan time.Time
	if *progressEvery > 0 {
		tick := time.NewTicker(*progressEvery)
		defer tick.Stop()
		progressC = tick.C
	}
	lastProgress := time.Now()
	lastProgressTweets := int64(0)
	progress := func(n int) {
		st := client.Snapshot()
		elapsed := time.Since(lastProgress)
		rate := float64(st.Tweets-lastProgressTweets) / elapsed.Seconds()
		lastProgress, lastProgressTweets = time.Now(), st.Tweets
		retained := 0.0
		if d.TotalCollected() > 0 {
			retained = 100 * float64(d.USTweets()) / float64(d.TotalCollected())
		}
		attrs := []any{
			"tweets", n,
			"tweets_per_sec", fmt.Sprintf("%.1f", rate),
			"retained_pct", fmt.Sprintf("%.1f", retained),
			"users", d.Users(),
			"connects", st.Connects,
		}
		if *checkpoint != "" {
			if last := lastSaveUnixNano.Load(); last > 0 {
				attrs = append(attrs, "checkpoint_age", time.Since(time.Unix(0, last)).Round(time.Second).String())
			} else {
				attrs = append(attrs, "checkpoint_age", "never")
			}
		}
		logger.Info("progress", attrs...)
	}

	n := 0
	if *workers != 1 {
		// Parallel ingest: extraction and geocoding fan out across
		// workers while folding (and these callbacks) stay on this
		// goroutine, so the checkpoint/progress closures read a quiescent
		// dataset exactly as in the sequential loop below.
		var saveErr error
		reachedMax := false
		n = d.CollectParallel(ctx, tweets, pipeline.CollectOptions{
			Workers: *workers,
			OnFold: func(total int) bool {
				if *checkpoint != "" && time.Since(lastSave) >= *checkpointEvery {
					if err := save(); err != nil {
						saveErr = err
						return false
					}
					lastSave = time.Now()
				}
				if engine != nil && time.Since(lastReport) >= *reportEvery {
					refreshReport()
					lastReport = time.Now()
				}
				if *maxTweets > 0 && total >= *maxTweets {
					reachedMax = true
					return false
				}
				return true
			},
			Ticks:  progressC,
			OnTick: progress,
		})
		if saveErr != nil {
			return saveErr
		}
		if reachedMax {
			stop()
			// Drain remaining deliveries so the client can exit.
			go func() {
				for range tweets {
				}
			}()
		}
	} else {
	collect:
		for {
			select {
			case t, ok := <-tweets:
				if !ok {
					break collect
				}
				d.Process(t)
				n++
				if *checkpoint != "" && time.Since(lastSave) >= *checkpointEvery {
					if err := save(); err != nil {
						return err
					}
					lastSave = time.Now()
				}
				if engine != nil && time.Since(lastReport) >= *reportEvery {
					refreshReport()
					lastReport = time.Now()
				}
				if *maxTweets > 0 && n >= *maxTweets {
					stop()
					// Drain remaining deliveries so the client can exit.
					go func() {
						for range tweets {
						}
					}()
					break collect
				}
			case <-progressC:
				progress(n)
			}
		}
	}
	if err := <-errc; err != nil && ctx.Err() == nil {
		saveErr := save() // keep the data even when the stream died
		if saveErr != nil {
			return fmt.Errorf("stream: %w (and checkpoint save failed: %v)", err, saveErr)
		}
		return fmt.Errorf("stream: %w", err)
	}
	if err := save(); err != nil {
		return err
	}
	cs := client.Snapshot()
	logger.Info("stream ended; analyzing", "tweets", n)
	logger.Info("client stats",
		"connects", cs.Connects, "disconnects", cs.Disconnects, "retries", cs.Retries,
		"rate_limits", cs.RateLimits, "stalls", cs.Stalls,
		"skipped_lines", cs.SkippedLines, "malformed_lines", cs.MalformedLines)
	if d.Users() == 0 {
		return fmt.Errorf("no US users collected; nothing to analyze")
	}
	return analyzeDataset(d, *k, *sweep, *sil, *workers, analyzeMetrics, nil, "")
}

// cmdReplay serves an archived NDJSON corpus over the Stream API
// protocol, so any collector (donorsense collect, or a third-party
// client) can re-consume a stored collection.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "corpus.ndjson", "input NDJSON corpus")
	addr := fs.String("addr", ":7700", "listen address")
	rate := fs.Float64("rate", 0, "paced tweets per second; a client a buffer behind is disconnected (0 = unpaced: wait for slow clients, lose nothing)")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/vars on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var reg *obs.Registry
	nr := &twitter.NDJSONReader{}
	if *telemetryAddr != "" {
		reg = obs.NewRegistry()
		twitter.NewWireMetrics(reg).ObserveReader(nr)
	}

	f, err := os.Open(*in)
	if err != nil {
		return fmt.Errorf("open corpus: %w", err)
	}
	// Stream the archive through the wire codec: one reused line buffer
	// and Tweet, no per-line garbage; only the corpus slice itself grows.
	var tweets []twitter.Tweet
	err = nr.Decode(f, func(t *twitter.Tweet) error {
		tweets = append(tweets, *t)
		return nil
	})
	f.Close()
	if err != nil {
		return err
	}
	if nr.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "skipped %d oversized corpus lines\n", nr.Skipped)
	}
	fmt.Fprintf(os.Stderr, "replaying %d tweets on %s\n", len(tweets), *addr)

	b := twitter.NewBroadcaster()
	srv := twitter.NewStreamServer(b)
	srv.KeepAlive = 30 * time.Second
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if reg != nil {
		osrv := obs.NewServer(reg)
		osrv.AddStatus("replay", func() obs.StatusSection {
			var sec obs.StatusSection
			sec.Field("corpus_tweets", len(tweets))
			sec.Field("subscribers", b.NumSubscribers())
			sec.Field("skipped_lines", nr.Skipped)
			sec.Field("rate", *rate)
			return sec
		})
		osrv.AddStatus("memory", obs.MemStatsStatusSection(nil))
		go func() {
			if err := osrv.ListenAndServe(ctx, *telemetryAddr); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry server failed: %v\n", err)
			}
		}()
	}
	go func() {
		<-ctx.Done()
		b.Close()
		shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}()
	go func() {
		// Wait for a first subscriber so the head of the corpus is not
		// replayed to nobody.
		for b.NumSubscribers() == 0 && ctx.Err() == nil {
			time.Sleep(20 * time.Millisecond)
		}
		if replayTweets(ctx, b, tweets, *rate) != nil {
			return
		}
		fmt.Fprintln(os.Stderr, "replay complete; closing stream")
		b.Close()
	}()
	err = httpSrv.ListenAndServe()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// replayPaceTick is the paced replay's release interval: each tick
// publishes every tweet the requested rate has made due since the start,
// so the rate holds however far below it a per-tweet ticker would fall.
const replayPaceTick = 10 * time.Millisecond

// replayTweets publishes the corpus in order and returns nil once every
// tweet is out, or ctx.Err() if ctx ends first. At rate 0 it runs
// unpaced with PublishWait, so a subscriber that drains slowly slows the
// replay instead of being disconnected and losing tweets. At a positive
// rate it paces in floor(elapsed·rate) batches per replayPaceTick, and a
// subscriber that falls a buffer behind is disconnected like on the real
// Stream API.
func replayTweets(ctx context.Context, b *twitter.Broadcaster, tweets []twitter.Tweet, rate float64) error {
	if rate <= 0 {
		for _, t := range tweets {
			if _, err := b.PublishWait(ctx, t); err != nil {
				return err
			}
		}
		return nil
	}
	tick := time.NewTicker(replayPaceTick)
	defer tick.Stop()
	start := time.Now()
	sent := 0
	for sent < len(tweets) {
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
		due := len(tweets)
		if f := time.Since(start).Seconds() * rate; f < float64(due) {
			due = int(f)
		}
		for ; sent < due; sent++ {
			b.Publish(tweets[sent])
		}
	}
	return nil
}

func cmdKeywords(args []string) error {
	fs := flag.NewFlagSet("keywords", flag.ExitOnError)
	asTrack := fs.Bool("track", false, "print as a single Stream API track parameter")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asTrack {
		fmt.Println(organ.TrackTerms())
		return nil
	}
	fmt.Printf("Context terms (%d): %s\n", len(organ.ContextWords()), strings.Join(organ.ContextWords(), ", "))
	fmt.Printf("Subject terms (%d): %s\n", len(organ.SubjectWords()), strings.Join(organ.SubjectWords(), ", "))
	fmt.Printf("Keyword product: %d pairs\n", len(organ.Keywords()))
	return nil
}
