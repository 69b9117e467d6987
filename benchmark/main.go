// Command benchmark is donorsense's end-to-end benchmark. It generates the
// paper-scale corpus from a seed, runs one workload for a fixed time,
// checks the outputs against a reference computed during set-up, and
// prints one JSON result line:
//
//	bash benchmark/run.sh --workload live-ingest --seed 1 --seconds 8 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of the traced layer suite instead (see
// README.md in this directory).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run measured: its end-to-end metrics and
// its operation counts.
type outcome struct {
	throughput  float64 // work items per second
	latencyP50  float64 // ms
	latencyTail float64 // ms
	attempted   int64
	failed      int64
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	bin      string // donorsense binary for paper-batch
	work     string // work directory inside the checkout
}

var workloads = []string{"paper-batch", "live-ingest", "query-churn", "sharded-ingest"}

func main() {
	var o options
	var seconds, traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-batch, live-ingest, query-churn or sharded-ingest")
	flag.Uint64Var(&o.seed, "seed", 1, "corpus and request-mix seed")
	flag.IntVar(&seconds, "seconds", 8, "measurement time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced layer suite and reports per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin/donorsense", "donorsense binary")
	flag.StringVar(&o.work, "work", ".bench_build", "work directory for build outputs, checkpoints and traces")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second

	if !known(o.workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (one of %v)\n", o.workload, workloads)
		os.Exit(2)
	}
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	var res result
	var err error
	if traceFlag == 1 {
		res, err = runTraced(o)
	} else {
		res, err = runUntraced(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printSummary(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// runUntraced sets the workload up, runs it for the configured time with
// tracing off and reports the end-to-end metrics.
func runUntraced(o options) (result, error) {
	c, err := setup(o.seed, o.workload == "sharded-ingest", nil)
	if err != nil {
		return result{}, err
	}
	w, err := newWorkload(o, c, nil)
	if err != nil {
		return result{}, err
	}
	out, err := w.measure(o.seconds)
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics: map[string]metric{
			"setup_s":          {c.setupSeconds + w.setupSeconds(), "s"},
			"throughput_per_s": {out.throughput, "1/s"},
			"latency_p50_ms":   {out.latencyP50, "ms"},
			"latency_tail_ms":  {out.latencyTail, "ms"},
		},
	}, nil
}

// workload is one of the four benchmark workloads, set up and ready to
// measure.
type workload interface {
	// setupSeconds is the workload's own set-up time, on top of the
	// shared corpus set-up.
	setupSeconds() float64
	// measure repeats the workload's operation until d has passed (at
	// least once) and aggregates the measurements.
	measure(d time.Duration) (outcome, error)
}

func newWorkload(o options, c *corpus, tr *tracer) (workload, error) {
	switch o.workload {
	case "paper-batch":
		return newPaperBatch(o.bin, c, tr), nil
	case "live-ingest":
		return &liveIngest{c: c, tr: tr}, nil
	case "query-churn":
		return newQueryChurn(c, o.seed, tr)
	case "sharded-ingest":
		return newShardedIngest(c, o.work, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// printSummary writes the metrics in readable form to standard error.
func printSummary(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
