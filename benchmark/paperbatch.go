package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"

	"donorsense/internal/report"
)

// pipeChunkTweets is how many tweets the benchmark writes to analyze's
// standard input per write; each write's return time is the handover
// time of the tweets it carried.
const pipeChunkTweets = 10_000

// paperBatch runs the real `donorsense analyze` binary with default flags
// over the corpus, piped to its standard input, the way a researcher
// reproduces the paper.
type paperBatch struct {
	bin    string
	c      *corpus
	tr     *tracer
	chunks []int // byte offsets just past every pipeChunkTweets-th line, and the end

	// peakHeapMB is the largest Go heap any traced analyze reached, read
	// from its GC trace, for the layer suite.
	peakHeapMB float64
}

func newPaperBatch(bin string, c *corpus, tr *tracer) *paperBatch {
	p := &paperBatch{bin: bin, c: c, tr: tr}
	lines := 0
	for i, b := range c.ndjson {
		if b == '\n' {
			lines++
			if lines%pipeChunkTweets == 0 {
				p.chunks = append(p.chunks, i+1)
			}
		}
	}
	if len(p.chunks) == 0 || p.chunks[len(p.chunks)-1] != len(c.ndjson) {
		p.chunks = append(p.chunks, len(c.ndjson))
	}
	return p
}

func (p *paperBatch) setupSeconds() float64 { return 0 }

// batchRun is one analyze execution.
type batchRun struct {
	wall   time.Duration
	lags   []weighted // per chunk: report completion minus handover, ms
	output string
}

func (p *paperBatch) measure(d time.Duration) (outcome, error) {
	var out outcome
	var lags []weighted
	var rates []float64
	start := time.Now()
	for time.Since(start) < d || out.attempted == 0 {
		r, err := p.once()
		if err != nil {
			return outcome{}, err
		}
		out.attempted++
		if err := p.check(r.output); err != nil {
			fmt.Fprintln(os.Stderr, "paper-batch: check failed:", err)
			out.failed++
		}
		rates = append(rates, float64(p.c.tweets)/r.wall.Seconds())
		lags = append(lags, r.lags...)
		fmt.Fprintf(os.Stderr, "paper-batch: analyze %.3f s\n", r.wall.Seconds())
	}
	out.throughput = median(rates)
	out.latencyP50 = weightedQuantile(lags, 0.5)
	out.latencyTail = weightedQuantile(lags, 0.9)
	return out, nil
}

// once spawns analyze, pipes the corpus in chunk by chunk and waits for
// the complete report.
func (p *paperBatch) once() (batchRun, error) {
	sp := p.tr.begin("analyze.run", -1)
	defer p.tr.end(sp)
	cmd := exec.Command(p.bin, "analyze", "-in", "-")
	if p.tr != nil {
		// The GC trace reports the heap size at every collection. (The
		// child's rusage Maxrss is no use here: a child spawned from this
		// large process starts its high-water mark at the parent's RSS.)
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return batchRun{}, fmt.Errorf("analyze stdin: %w", err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return batchRun{}, fmt.Errorf("start analyze: %w", err)
	}
	handover := make([]time.Duration, len(p.chunks))
	prev := 0
	var werr error
	for i, end := range p.chunks {
		if _, werr = stdin.Write(p.c.ndjson[prev:end]); werr != nil {
			break
		}
		handover[i] = time.Since(start)
		prev = end
	}
	cerr := stdin.Close()
	if err := cmd.Wait(); err != nil {
		return batchRun{}, fmt.Errorf("analyze: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	wall := time.Since(start)
	if werr != nil || cerr != nil {
		return batchRun{}, fmt.Errorf("pipe corpus to analyze: %v %v", werr, cerr)
	}
	r := batchRun{wall: wall, output: stdout.String()}
	for _, m := range gcHeap.FindAllStringSubmatch(stderr.String(), -1) {
		mb, _ := strconv.ParseFloat(m[1], 64) // the pattern only matches digits
		p.peakHeapMB = max(p.peakHeapMB, mb)
	}
	for i, h := range handover {
		n := pipeChunkTweets
		if i == len(handover)-1 {
			n = p.c.tweets - i*pipeChunkTweets
		}
		r.lags = append(r.lags, weighted{float64(wall-h) / 1e6, n})
	}
	return r, nil
}

// gcHeap matches the heap size at the start of a collection in a
// GODEBUG=gctrace=1 line ("... 412->415->180 MB, ...").
var gcHeap = regexp.MustCompile(`(?m)^gc \d+ .* (\d+)->\d+->\d+ MB`)

var clusterLine = regexp.MustCompile(`(?m)^  cluster +\d+  size= *(\d+) `)

// check verifies the invariants a correct analyze keeps: Table I equals
// the reference, and the 12 Figure 7 clusters cover every user.
func (p *paperBatch) check(out string) error {
	want := "=== Table I: dataset statistics ===\n" + report.TableIText(p.c.refStats)
	if !strings.Contains(out, want) {
		return fmt.Errorf("table I differs from the reference")
	}
	_, fig7, ok := strings.Cut(out, "=== Figure 7 ===\n")
	if !ok || !strings.HasPrefix(fig7, "Figure 7: 12 user clusters") {
		return fmt.Errorf("no 12-cluster Figure 7 in the report")
	}
	sizes := clusterLine.FindAllStringSubmatch(fig7, -1)
	if len(sizes) < 12 {
		return fmt.Errorf("figure 7 lists %d clusters, want 12", len(sizes))
	}
	users := 0
	for _, m := range sizes[:12] {
		n, _ := strconv.Atoi(m[1]) // the pattern only matches digits
		users += n
	}
	if users != p.c.refStats.Users {
		return fmt.Errorf("figure 7 clusters cover %d users, want %d", users, p.c.refStats.Users)
	}
	return nil
}
