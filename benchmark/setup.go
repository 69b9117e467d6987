package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/pipeline"
	"donorsense/internal/twitter"
)

const (
	// setupReps is how many times set-up generates and encodes the
	// corpus; setup_s reports the median (with two, their mean). Each
	// repetition adds about 5 s to every run, and a full steadiness
	// check (about 90 runs) has no time budget for a third.
	setupReps = 2
	// shardedTweets is the prefix of the corpus the sharded-ingest
	// workload feeds the supervisor.
	shardedTweets = 200_000
)

// corpus is the generated input every workload reads, plus the
// reference results the output checks compare against.
type corpus struct {
	ndjson []byte // the corpus as NDJSON, the way analyze and the wire read it
	tweets int    // tweets in ndjson

	// head holds the first shardedTweets tweets, kept only for
	// sharded-ingest; headRef is a single-process ProcessAll over them.
	head    []twitter.Tweet
	headRef pipeline.TableI

	// ref is a ProcessAll over the whole corpus; refStats is its Table I.
	ref      *pipeline.Dataset
	refStats pipeline.TableI

	setupSeconds float64 // median generation+encoding time plus the references
}

// setup generates the paper-scale corpus for seed, encodes it to NDJSON
// and computes the reference Table I. Generation and encoding run
// setupReps times; only the first corpus is kept.
func setup(seed uint64, keepHead bool, tr *tracer) (*corpus, error) {
	root := tr.begin("bench.setup", -1)
	defer tr.end(root)
	c := &corpus{}
	var genTimes []float64
	var tweets []twitter.Tweet
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		sp := tr.begin("gen.generate", root)
		t0 := time.Now()
		cfg := gen.DefaultConfig(1.0)
		cfg.Seed = seed
		gc := gen.Generate(cfg)
		var buf bytes.Buffer
		buf.Grow(len(c.ndjson))
		if err := twitter.WriteNDJSON(&buf, gc.Tweets); err != nil {
			return nil, fmt.Errorf("encode corpus: %w", err)
		}
		genTimes = append(genTimes, time.Since(t0).Seconds())
		tr.end(sp)
		if rep == 0 {
			c.ndjson, c.tweets, tweets = buf.Bytes(), len(gc.Tweets), gc.Tweets
			// Compute the references now, so later repetitions run without
			// the first corpus's tweets in memory.
			refStart := time.Now()
			if err := c.references(tweets, keepHead, tr, root); err != nil {
				return nil, err
			}
			tweets = nil
			c.setupSeconds += time.Since(refStart).Seconds()
		}
	}
	c.setupSeconds += median(genTimes)
	runtime.GC()
	fmt.Fprintf(os.Stderr, "setup: %d tweets, %d bytes of NDJSON, %d US users; generate+encode %v s (median of %d), total %.3f s\n",
		c.tweets, len(c.ndjson), c.refStats.Users, genTimes, setupReps, c.setupSeconds)
	return c, nil
}

// references computes the reference Table I over the whole corpus and,
// for sharded-ingest, over its first shardedTweets tweets.
func (c *corpus) references(tweets []twitter.Tweet, keepHead bool, tr *tracer, parent int) error {
	sp := tr.begin("pipeline.reference_processall", parent)
	c.ref = pipeline.NewDataset()
	c.ref.ProcessAll(tweets, 0)
	c.refStats = c.ref.Stats()
	tr.end(sp)
	if c.refStats.Users == 0 {
		return fmt.Errorf("reference: corpus has no US users")
	}
	if keepHead {
		if len(tweets) < shardedTweets {
			return fmt.Errorf("corpus has %d tweets, sharded-ingest needs %d", len(tweets), shardedTweets)
		}
		c.head = append([]twitter.Tweet(nil), tweets[:shardedTweets]...)
		sp = tr.begin("pipeline.reference_head", parent)
		d := pipeline.NewDataset()
		d.ProcessAll(c.head, 0)
		c.headRef = d.Stats()
		tr.end(sp)
	}
	return nil
}

// sameTable reports whether two Table I summaries are identical.
func sameTable(a, b pipeline.TableI) bool {
	return a.Start.Equal(b.Start) && a.End.Equal(b.End) && a.Days == b.Days &&
		a.TweetsCollected == b.TweetsCollected && a.TotalCollected == b.TotalCollected &&
		a.Users == b.Users && a.AvgTweetsPerDay == b.AvgTweetsPerDay &&
		a.AvgTweetsPerUser == b.AvgTweetsPerUser && a.OrgansPerTweet == b.OrgansPerTweet &&
		a.OrgansPerUser == b.OrgansPerUser && a.GeoTagRate == b.GeoTagRate
}
