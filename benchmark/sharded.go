package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"donorsense/internal/pipeline"
	"donorsense/internal/twitter"
)

// numShards is the supervisor's shard count, one per core of the
// two-core machine the baseline was measured on.
const numShards = 2

// shardedIngest feeds the first shardedTweets corpus tweets unpaced to a
// pipeline.Supervisor with durable checkpoints every second, then merges
// the shards — the equivalent of `collect -shards 2 -checkpoint …
// -checkpoint-every 1s`. A tweet's latency runs from its handover to the
// end of the first checkpoint that covers it: what a sharded collector
// has made durable is what `merge` can read back.
type shardedIngest struct {
	c    *corpus
	tr   *tracer
	work string

	// shardOf and seqOf map each fed tweet to the shard the router sends
	// it to and its 1-based sequence number there.
	shardOf  []uint8
	seqOf    []uint32
	perShard [numShards]int
	setup    float64

	layer shardedLayer
}

// shardedLayer is what the traced pass reports to the layer suite.
type shardedLayer struct {
	merge        time.Duration
	blockedShare float64
}

func newShardedIngest(c *corpus, work string, tr *tracer) (*shardedIngest, error) {
	t0 := time.Now()
	s := &shardedIngest{c: c, tr: tr, work: work}
	router := twitter.ShardRouter{Shards: numShards}
	s.shardOf = make([]uint8, len(c.head))
	s.seqOf = make([]uint32, len(c.head))
	for i := range c.head {
		sh := router.Shard(&c.head[i])
		s.perShard[sh]++
		s.shardOf[i], s.seqOf[i] = uint8(sh), uint32(s.perShard[sh])
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	s.setup = time.Since(t0).Seconds()
	return s, nil
}

func (s *shardedIngest) setupSeconds() float64 { return s.setup }

func (s *shardedIngest) measure(d time.Duration) (outcome, error) {
	var out outcome
	var lags, rates []float64
	start := time.Now()
	for time.Since(start) < d || out.attempted == 0 {
		p, err := s.pass()
		if err != nil {
			return outcome{}, err
		}
		out.attempted += int64(p.fed)
		out.failed += int64(p.lost)
		if p.mergeErr != nil {
			fmt.Fprintln(os.Stderr, "sharded-ingest: check failed:", p.mergeErr)
			out.failed++
		}
		rates = append(rates, float64(p.fed)/p.wall.Seconds())
		lags = append(lags, p.lags...)
		fmt.Fprintf(os.Stderr, "sharded-ingest: %d tweets in %.3f s\n", p.fed, p.wall.Seconds())
	}
	out.throughput = median(rates)
	out.latencyP50 = quantile(lags, 0.5)
	out.latencyTail = quantile(lags, 0.99)
	return out, nil
}

type shardedPass struct {
	fed, lost int
	wall      time.Duration // first handover to Merged() returning
	lags      []float64     // ms, per tweet: handover to the checkpoint that covers it
	mergeErr  error
}

// shardSave is one completed shard checkpoint: when it finished and the
// last shard sequence number it covers.
type shardSave struct {
	at   time.Duration
	upTo uint64
}

func (s *shardedIngest) pass() (shardedPass, error) {
	tr := s.tr
	root := tr.begin("pipeline.sharded_pass", -1)
	defer tr.end(root)
	dir, err := os.MkdirTemp(s.work, "shards-")
	if err != nil {
		return shardedPass{}, fmt.Errorf("checkpoint dir: %w", err)
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	// Both hooks run on the shard's own goroutine; the slices are read
	// only after Run has joined every shard.
	var lastFolded [numShards]uint64
	var saves [numShards][]shardSave
	sup, err := pipeline.NewSupervisor(pipeline.SupervisorConfig{
		Shards:           numShards,
		CheckpointBase:   filepath.Join(dir, "state.ckpt"),
		CheckpointEvery:  time.Second,
		HeartbeatTimeout: 30 * time.Second,       // collect's -heartbeat-timeout default
		RestartBackoff:   250 * time.Millisecond, // collect's -restart-backoff default
		BufferCap:        8192,                   // collect's -shard-buffer default
		ProcessHook: func(shard int, seq uint64, _ *twitter.Tweet) {
			lastFolded[shard] = seq
		},
		SaveHook: func(shard int, save func() error) error {
			if err := save(); err != nil {
				return err
			}
			saves[shard] = append(saves[shard], shardSave{time.Since(start), lastFolded[shard]})
			return nil
		},
	})
	if err != nil {
		return shardedPass{}, err
	}

	head := s.c.head
	ch := make(chan twitter.Tweet, queueSlots)
	handover := make([]time.Duration, len(head))
	var blocked time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		for i := range head {
			if tr != nil {
				t0 := time.Now()
				ch <- head[i]
				blocked += time.Since(t0)
			} else {
				ch <- head[i]
			}
			handover[i] = time.Since(start)
		}
	}()
	sp := tr.begin("pipeline.supervisor_run", root)
	runErr := sup.Run(context.Background(), ch)
	tr.end(sp)
	for range ch { // Run stops reading early only on error; let the producer finish
	}
	<-done
	if runErr != nil {
		return shardedPass{}, fmt.Errorf("supervisor: %w", runErr)
	}
	sp = tr.begin("pipeline.merged", root)
	m0 := time.Now()
	merged, err := sup.Merged()
	mergeTime := time.Since(m0)
	tr.end(sp)
	end := time.Since(start)

	p := shardedPass{fed: len(head), wall: end - handover[0]}
	switch {
	case err != nil:
		p.mergeErr = err
	case !sameTable(merged.Stats(), s.c.headRef):
		p.mergeErr = fmt.Errorf("merged Table I %+v differs from a single fold %+v", merged.Stats(), s.c.headRef)
	}
	p.lags = make([]float64, 0, len(head))
	for i, h := range handover {
		sv := saves[s.shardOf[i]]
		seq := uint64(s.seqOf[i])
		k := sort.Search(len(sv), func(k int) bool { return sv[k].upTo >= seq })
		if k == len(sv) {
			p.lost++ // in no checkpoint, whether folded or not
			continue
		}
		p.lags = append(p.lags, float64(sv[k].at-h)/1e6)
	}
	if tr != nil {
		s.layer = shardedLayer{
			merge:        mergeTime,
			blockedShare: float64(blocked) / float64(end),
		}
	}
	return p, nil
}
