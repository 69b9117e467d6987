// donorsense serve: a standalone read-only query API over a checkpoint.
// It loads the checkpoint, runs one (warm-restored) analysis refresh,
// publishes the snapshot behind /api/..., and optionally re-loads when
// the checkpoint file changes — so a collector writing checkpoints and a
// serve process reading them compose into a live pipeline without
// sharing memory.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/serve"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	checkpoint := fs.String("checkpoint", "", "checkpoint file to serve (required)")
	addr := fs.String("addr", ":9090", "listen address for the telemetry + /api endpoints")
	reloadEvery := fs.Duration("reload-every", 10*time.Second, "poll the checkpoint mtime and republish on change (0 = serve the initial load only)")
	k := fs.Int("k", 12, "user cluster count (Figure 7)")
	sil := fs.Int("silhouette-sample", 0, "sweep silhouette sample size (0 = exact over all users)")
	workers := fs.Int("workers", 0, "analysis workers (0 = GOMAXPROCS)")
	top := fs.Int("serve-top", 250, "top mentioning users retained per snapshot for /api/top")
	logLevel := fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
	logJSON := fs.Bool("log-json", false, "emit logs as single-line JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkpoint == "" {
		return fmt.Errorf("serve: -checkpoint is required")
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	obs.SetLogger(slog.New(obs.NewLogger(os.Stderr, level, *logJSON).Handler()))
	logger := obs.Logger("serve")

	pub := serve.NewPublisher()

	// loadAndPublish reads the checkpoint, refreshes a fresh warm-restored
	// engine, and swaps the snapshot in. It runs on the main goroutine and
	// then on the reload poller — never concurrently, and the dataset it
	// builds is private to this call, so the publish-time copy invariant
	// holds trivially.
	loadAndPublish := func() (time.Time, error) {
		fi, err := os.Stat(*checkpoint)
		if err != nil {
			return time.Time{}, err
		}
		d, err := pipeline.LoadCheckpoint(*checkpoint)
		if err != nil {
			return time.Time{}, fmt.Errorf("load checkpoint: %w", err)
		}
		if d.Users() == 0 {
			return time.Time{}, fmt.Errorf("checkpoint has no US users; nothing to serve")
		}
		cfg := report.DefaultAnalysisConfig()
		cfg.KUsers = *k
		cfg.SilhouetteSample = *sil
		cfg.Workers = *workers
		cfg.SweepKs = nil
		engine := report.NewEngine(d, cfg)
		if err := engine.RestoreWarm(d.AnalyticsState()); err != nil {
			logger.Warn("ignoring unreadable analytics warm state", "err", err)
		}
		a, err := engine.Refresh()
		if err != nil {
			return time.Time{}, fmt.Errorf("analysis: %w", err)
		}
		snap, err := pub.Publish(a, serve.Meta{
			Epoch:     engine.Epoch(),
			Refreshes: engine.Refreshes(),
			Top:       report.TopMentioners(d, *top),
		})
		if err != nil {
			return time.Time{}, err
		}
		logger.Info("snapshot published",
			"seq", snap.Seq, "epoch", snap.Epoch, "users", snap.Users,
			"etag", snap.ETag(), "checkpoint_mtime", fi.ModTime().Format(time.RFC3339))
		return fi.ModTime(), nil
	}

	mtime, err := loadAndPublish()
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	srv := obs.NewServer(reg)
	handler := serve.NewHandler(pub)
	handler.SetMetrics(serve.NewMetrics(reg, pub))
	srv.SetQueryAPI(handler)
	srv.OnShutdown(pub.BeginDrain)
	srv.AddStatus("serve", serveStatus(pub))
	srv.AddStatus("memory", obs.MemStatsStatusSection(nil))
	srv.AddHealthCheck("snapshot", func() (any, error) {
		st := pub.Stats()
		detail := map[string]any{"seq": st.Seq, "epoch": st.Epoch}
		if st.Draining {
			return detail, fmt.Errorf("draining")
		}
		return detail, nil
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *reloadEvery > 0 {
		go func() {
			tick := time.NewTicker(*reloadEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				fi, err := os.Stat(*checkpoint)
				if err != nil || !fi.ModTime().After(mtime) {
					continue
				}
				m, err := loadAndPublish()
				if err != nil {
					logger.Warn("checkpoint reload failed; keeping current snapshot", "err", err)
					continue
				}
				mtime = m
			}
		}()
	}

	logger.Info("serving", "addr", *addr, "checkpoint", *checkpoint,
		"reload_every", reloadEvery.String())
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		return err
	}
	// ListenAndServe already drained in-flight requests via Shutdown; a
	// bounded Drain double-checks the handler-side count went to zero.
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := pub.Drain(drainCtx); err != nil {
		logger.Warn("drain incomplete", "inflight", pub.Inflight())
	}
	logger.Info("serve stopped", "stats", fmt.Sprintf("%+v", pub.Stats()))
	return nil
}
