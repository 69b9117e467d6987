package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/geo"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

// layers are the modules whose self time the traced run reports; "bench"
// is the benchmark's own set-up and "analyze" the CLI child process.
var layers = []string{"twitter", "text", "geo", "pipeline", "userstore", "core", "cluster", "report", "serve", "analyze"}

// runTraced is the --trace 1 run. It measures the named workload once
// untraced and once traced (the difference is the tracing overhead),
// then runs the layer suite: timed calls into each module's public
// functions over the corpus, each inside a span. Spans are written to
// <work>/traces/ as JSON.
func runTraced(o options) (result, error) {
	tr := newTracer()
	c, err := setup(o.seed, true, tr)
	if err != nil {
		return result{}, err
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	var attempted, failed int64
	count := func(out outcome) { attempted += out.attempted; failed += out.failed }

	// Untraced baseline of the named workload, for the overhead ratio.
	base, err := newWorkload(o, c, nil)
	if err != nil {
		return result{}, err
	}
	var baseline float64
	switch w := base.(type) {
	case *queryChurn:
		p, err := w.run(0, tracedReads)
		if err != nil {
			return result{}, err
		}
		baseline = p.throughput
		attempted += int64(p.reads)
		failed += int64(p.failed)
	default:
		out, err := base.measure(0)
		if err != nil {
			return result{}, err
		}
		count(out)
		baseline = out.throughput
	}

	// Traced passes of every workload's mechanism.
	pb := newPaperBatch(o.bin, c, tr)
	out, err := pb.measure(0)
	if err != nil {
		return result{}, err
	}
	count(out)
	traced := map[string]float64{"paper-batch": out.throughput}
	put("analyze.peak_heap_mb", pb.peakHeapMB, "MB")

	live := &liveIngest{c: c, tr: tr}
	if out, err = live.measure(0); err != nil {
		return result{}, err
	}
	count(out)
	traced["live-ingest"] = out.throughput
	ll := live.layer
	put("report.refresh_p50_ms", quantile(ll.refreshes, 0.5), "ms")
	put("report.refresh_p90_ms", quantile(ll.refreshes, 0.9), "ms")
	put("report.dirty_rows_per_refresh", median(ll.dirtyRows), "count")
	put("serve.publish_p50_ms", quantile(ll.publishes, 0.5), "ms")
	put("pipeline.fold_busy_share", ll.foldBusyShare, "ratio")
	put("twitter.producer_blocked_share", ll.blockedShare, "ratio")

	q, err := newQueryChurn(c, o.seed, tr)
	if err != nil {
		return result{}, err
	}
	put("report.cold_refresh_ms", float64(q.coldRefresh)/1e6, "ms")
	qp, err := q.run(0, tracedReads)
	if err != nil {
		return result{}, err
	}
	attempted += int64(qp.reads)
	failed += int64(qp.failed)
	traced["query-churn"] = qp.throughput
	ql := q.layer
	put("serve.cached_read_p50_ns", ql.cached.quantileNS(0.5), "ns")
	put("serve.cold_read_p50_us", ql.cold.quantileNS(0.5)/1e3, "us")
	put("serve.render_share", float64(ql.renders)/float64(ql.reads), "ratio")
	put("serve.not_modified_share", float64(ql.notModified)/float64(ql.reads), "ratio")

	sh, err := newShardedIngest(c, o.work, tr)
	if err != nil {
		return result{}, err
	}
	if out, err = sh.measure(0); err != nil {
		return result{}, err
	}
	count(out)
	traced["sharded-ingest"] = out.throughput
	put("pipeline.merge_ms", float64(sh.layer.merge)/1e6, "ms")
	put("twitter.producer_blocked_share_sharded", sh.layer.blockedShare, "ratio")

	put("trace.overhead_share", 1-traced[o.workload]/baseline, "ratio")

	if err := layerSuite(c, tr, put); err != nil {
		return result{}, err
	}

	self := tr.selfTimes()
	for _, l := range layers {
		put(l+".self_ms", float64(self[l])/1e6, "ms")
	}
	dir := filepath.Join(o.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path, self); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(tr.spans), path)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// layerSuite times each module's public functions over the corpus, the
// way the workloads call them, and reports per-unit costs.
func layerSuite(c *corpus, tr *tracer, put func(string, float64, string)) error {
	root := tr.begin("bench.layer_suite", -1)
	defer tr.end(root)
	timed := func(name string, fn func() error) (time.Duration, error) {
		sp := tr.begin(name, root)
		defer tr.end(sp)
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
	perUnit := func(d time.Duration, n int) float64 { return float64(d) / float64(n) }

	// twitter: the batch reader analyze uses, and the streaming decoder.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var tweets []twitter.Tweet
	d, err := timed("twitter.read_ndjson", func() (err error) {
		tweets, err = twitter.ReadNDJSON(bytes.NewReader(c.ndjson))
		return err
	})
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := len(tweets)
	put("twitter.read_ndjson_ns_per_tweet", perUnit(d, n), "ns")
	put("twitter.read_ndjson_heap_mb", float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), "MB")

	decoded := 0
	d, err = timed("twitter.decode", func() error {
		var nr twitter.NDJSONReader
		return nr.Decode(bytes.NewReader(c.ndjson), func(*twitter.Tweet) error { decoded++; return nil })
	})
	if err != nil {
		return err
	}
	put("twitter.decode_ns_per_tweet", perUnit(d, decoded), "ns")

	// text: the organ extractor over every tweet.
	inContext := make([]bool, n)
	ctxCount := 0
	ex := text.NewExtractor()
	d, _ = timed("text.extract", func() error {
		for i := range tweets {
			if ex.Extract(tweets[i].Text).InContext() {
				inContext[i] = true
				ctxCount++
			}
		}
		return nil
	})
	put("text.extract_ns_per_tweet", perUnit(d, n), "ns")
	put("text.in_context_share", float64(ctxCount)/float64(n), "ratio")

	// geo: every distinct profile location an in-context tweet without
	// a geo-tag would look up.
	lookups := 0
	seen := map[string]bool{}
	var distinct []string
	for i := range tweets {
		if inContext[i] && !tweets[i].HasCoordinates {
			lookups++
			if loc := tweets[i].User.Location; !seen[loc] {
				seen[loc] = true
				distinct = append(distinct, loc)
			}
		}
	}
	g := geo.NewGeocoder()
	d, _ = timed("geo.locate", func() error {
		for _, loc := range distinct {
			g.Locate(loc)
		}
		return nil
	})
	put("geo.locate_ns_per_call", perUnit(d, len(distinct)), "ns")
	put("geo.distinct_location_share", float64(len(distinct))/float64(lookups), "ratio")

	// pipeline: the sequential fold and the parallel batch ingest.
	d, _ = timed("pipeline.process", func() error {
		seq := pipeline.NewDataset()
		for i := range tweets {
			seq.Process(tweets[i])
		}
		return nil
	})
	put("pipeline.process_ns_per_tweet", perUnit(d, n), "ns")
	ds := pipeline.NewDataset()
	d, _ = timed("pipeline.process_all", func() error { ds.ProcessAll(tweets, 0); return nil })
	put("pipeline.processall_ns_per_tweet", perUnit(d, n), "ns")
	tweets = nil

	var ckpt bytes.Buffer
	d, err = timed("pipeline.write_checkpoint", func() error { return ds.WriteCheckpoint(&ckpt) })
	if err != nil {
		return err
	}
	put("pipeline.checkpoint_ms", float64(d)/1e6, "ms")
	put("pipeline.checkpoint_mb", float64(ckpt.Len())/(1<<20), "MB")

	single := pipeline.NewDataset()
	ch := make(chan twitter.Tweet, queueSlots)
	go func() {
		defer close(ch)
		for i := range c.head {
			ch <- c.head[i]
		}
	}()
	folded := 0
	d, _ = timed("pipeline.collect_parallel", func() error {
		folded = single.CollectParallel(context.Background(), ch, pipeline.CollectOptions{Workers: 0})
		return nil
	})
	if !sameTable(single.Stats(), c.headRef) || folded != len(c.head) {
		return fmt.Errorf("single fold of %d tweets differs from the reference", folded)
	}
	put("pipeline.single_fold_tweets_per_s", float64(folded)/d.Seconds(), "1/s")

	// userstore.
	var rows int
	var bytesUsed int64
	timed("userstore.footprint", func() error { rows, bytesUsed = ds.StoreFootprint(); return nil })
	put("userstore.bytes_per_user", float64(bytesUsed)/float64(rows), "B")
	put("userstore.users", float64(rows), "count")

	// core: Û and the Figure 3–5 characterizations, as Analyze calls them.
	var att *core.Attention
	d, err = timed("core.build_attention", func() (err error) { att, err = ds.BuildAttention(); return err })
	if err != nil {
		return err
	}
	put("core.attention_ms", float64(d)/1e6, "ms")
	stateOf := ds.StateLookup()
	var regions *core.RegionCharacterization
	d, err = timed("core.characterize", func() error {
		if _, err := core.CharacterizeOrgans(att); err != nil {
			return err
		}
		var err error
		if regions, err = core.CharacterizeRegionsFunc(att, stateOf); err != nil {
			return err
		}
		if _, err := core.HighlightOrgansFunc(att, stateOf); err != nil {
			return err
		}
		_, err = core.WinnerTakesAllFunc(att, stateOf)
		return err
	})
	if err != nil {
		return err
	}
	put("core.characterize_ms", float64(d)/1e6, "ms")

	// cluster: Figure 6 state clustering, Figure 7 K-Means and the sweep,
	// with Analyze's arguments.
	cfg := report.DefaultAnalysisConfig()
	stateRows, _ := regions.NonEmptyRows()
	d, err = timed("cluster.state", func() error {
		dist, err := cluster.PairwiseMatrixWorkers(stateRows, cluster.Bhattacharyya, 0)
		if err != nil {
			return err
		}
		_, err = cluster.Agglomerative(dist, cluster.AverageLinkage)
		return err
	})
	if err != nil {
		return err
	}
	put("cluster.state_ms", float64(d)/1e6, "ms")
	u := att.Matrix()
	d, err = timed("cluster.kmeans", func() error {
		_, err := cluster.KMeansDense(u, cluster.KMeansConfig{K: cfg.KUsers, Seed: cfg.Seed, Restarts: 2})
		return err
	})
	if err != nil {
		return err
	}
	put("cluster.kmeans_ms", float64(d)/1e6, "ms")
	d, err = timed("cluster.sweep", func() error {
		_, err := cluster.SweepKDense(u, cfg.SweepKs, cfg.Seed, cfg.SilhouetteSample, 0)
		return err
	})
	if err != nil {
		return err
	}
	put("cluster.sweep_ms", float64(d)/1e6, "ms")
	distinctRows := map[[organ.Count]float64]bool{}
	for r := 0; r < u.Rows(); r++ {
		var key [organ.Count]float64
		copy(key[:], u.Row(r))
		distinctRows[key] = true
	}
	put("cluster.distinct_row_share", float64(len(distinctRows))/float64(u.Rows()), "ratio")

	// report: the top-mentioner selection each publish carries.
	d, _ = timed("report.top_mentioners", func() error { report.TopMentioners(ds, topK); return nil })
	put("report.top_ms", float64(d)/1e6, "ms")
	return nil
}
