package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"donorsense/internal/organ"
	"donorsense/internal/report"
	"donorsense/internal/serve"
)

const (
	// publishEveryReads is how many reads separate two snapshot
	// publications.
	publishEveryReads = 2_000
	// checkEveryReads samples one 200 body in this many for the
	// envelope check (a prime, so the sample walks the request mix).
	checkEveryReads = 4_099
	// mixLen is the length of the precomputed request sequence the
	// reader cycles through.
	mixLen = 1 << 16
	// tracedReads bounds the traced pass, which records one span per read.
	tracedReads = 400_000
)

// queryChurn is one closed-loop reader calling Handler.ServeHTTP
// in-process over a fixed-seed request mix while a second goroutine
// publishes a fresh snapshot every publishEveryReads reads.
type queryChurn struct {
	tr          *tracer
	setup       float64
	coldRefresh time.Duration // the engine's from-scratch refresh over the corpus

	a    *report.Analysis
	meta serve.Meta
	reqs []*http.Request // distinct requests; mix indexes into it
	mix  []int32
	// etag marks the requests that carry If-None-Match with the last
	// ETag seen; param marks the parameterized ones.
	etag, param []bool

	layer queryLayer
}

// queryLayer is what the traced pass reports to the layer suite.
type queryLayer struct {
	reads, renders, notModified uint64
	cached, cold                *latencyHist
}

func newQueryChurn(c *corpus, seed uint64, tr *tracer) (*queryChurn, error) {
	t0 := time.Now()
	sp := tr.begin("report.engine_cold_refresh", -1)
	cfg := report.DefaultAnalysisConfig()
	cfg.SweepKs = nil
	cfg.Workers = 1
	eng := report.NewEngine(c.ref, cfg)
	r0 := time.Now()
	a, err := eng.Refresh()
	q := &queryChurn{tr: tr, a: a, coldRefresh: time.Since(r0)}
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("query-churn analysis: %w", err)
	}
	q.meta = serve.Meta{Epoch: eng.Epoch(), Refreshes: eng.Refreshes(), Top: report.TopMentioners(c.ref, topK)}

	add := func(path string, etag, param bool) {
		q.reqs = append(q.reqs, &http.Request{
			Method: http.MethodGet,
			URL:    mustURL(path),
			Header: http.Header{},
		})
		q.etag = append(q.etag, etag)
		q.param = append(q.param, param)
	}
	fixed := []string{"/api/", "/api/epoch", "/api/stats", "/api/states", "/api/organs", "/api/rr", "/api/top", "/api/clusters"}
	for _, p := range fixed {
		add(p, false, false)
		add(p, true, false)
	}
	nFixed := len(q.reqs)
	for _, code := range a.StateCodes {
		add("/api/states?state="+code, false, true)
	}
	for i := 0; i < organ.Count; i++ {
		name := url.QueryEscape(organ.Organ(i).String())
		add("/api/organs?organ="+name, false, true)
		add("/api/rr?organ="+name, false, true)
	}
	for _, k := range []int{10, 25, 50, 100, 250} {
		add("/api/top?k="+strconv.Itoa(k), false, true)
	}
	nParam := len(q.reqs) - nFixed

	// Half fixed endpoints (half of those revalidating with
	// If-None-Match), half parameterized, drawn from the workload seed.
	rng := rand.New(rand.NewPCG(seed, 0x9e37))
	q.mix = make([]int32, mixLen)
	for i := range q.mix {
		if rng.IntN(2) == 0 {
			q.mix[i] = int32(rng.IntN(nFixed))
		} else {
			q.mix[i] = int32(nFixed + rng.IntN(nParam))
		}
	}
	q.setup = time.Since(t0).Seconds()
	return q, nil
}

func mustURL(s string) *url.URL {
	u, err := url.Parse(s)
	if err != nil {
		panic(err) // the paths above are constants
	}
	return u
}

func (q *queryChurn) setupSeconds() float64 { return q.setup }

// recorder is an allocation-free http.ResponseWriter: it keeps the
// status and a reference to the last body written, which for 200s is the
// snapshot's immutable body.
type recorder struct {
	hdr  http.Header
	code int
	body []byte
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { r.body = b; return len(b), nil }

func (q *queryChurn) measure(d time.Duration) (outcome, error) {
	p, err := q.run(d, 0)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		throughput:  p.throughput,
		latencyP50:  p.hist.quantileNS(0.5) / 1e6,
		latencyTail: p.hist.quantileNS(0.99) / 1e6,
		attempted:   int64(p.reads),
		failed:      int64(p.failed),
	}, nil
}

type queryPass struct {
	reads, failed int
	throughput    float64
	hist          *latencyHist
}

// run reads until d has passed, or until maxReads reads when maxReads > 0.
func (q *queryChurn) run(d time.Duration, maxReads int) (queryPass, error) {
	tr := q.tr
	root := tr.begin("serve.query_pass", -1)
	defer tr.end(root)
	pub := serve.NewPublisher()
	h := serve.NewHandler(pub)
	if _, err := pub.Publish(q.a, q.meta); err != nil {
		return queryPass{}, fmt.Errorf("publish: %w", err)
	}

	var publishErrs int
	signal := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range signal {
			sp := tr.begin("serve.publish", root)
			if _, err := pub.Publish(q.a, q.meta); err != nil {
				publishErrs++
			}
			tr.end(sp)
		}
	}()

	p := queryPass{hist: newLatencyHist()}
	var cold, cached *latencyHist
	var lastSeq []uint64 // per request: the snapshot seq it was last read at
	if tr != nil {
		cold, cached = newLatencyHist(), newLatencyHist()
		lastSeq = make([]uint64, len(q.reqs))
	}
	rec := &recorder{hdr: http.Header{}}
	var lastETag []string
	var checking time.Duration
	stats0 := pub.Stats()
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; ; i++ {
		ri := q.mix[i&(mixLen-1)]
		req := q.reqs[ri]
		if q.etag[ri] && lastETag != nil {
			req.Header["If-None-Match"] = lastETag
		}
		rec.code, rec.body = http.StatusOK, nil
		sp := tr.begin("serve.serve_http", root)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		t1 := time.Now()
		tr.end(sp)
		lat := t1.Sub(t0)
		p.hist.add(lat)
		p.reads++
		switch rec.code {
		case http.StatusOK, http.StatusNotModified:
			lastETag = rec.hdr["Etag"]
		default:
			p.failed++
		}
		if tr != nil && len(lastETag) == 1 {
			seq := etagSeq(lastETag[0])
			if q.param[ri] && lastSeq[ri] != seq {
				cold.add(lat)
			} else {
				cached.add(lat)
			}
			lastSeq[ri] = seq
		}
		if p.reads%publishEveryReads == 0 {
			select {
			case signal <- struct{}{}:
			default:
			}
		}
		if p.reads%checkEveryReads == 0 && rec.code == http.StatusOK {
			c0 := time.Now()
			if err := checkEnvelope(rec.body, rec.hdr["Etag"]); err != nil {
				fmt.Fprintf(os.Stderr, "query-churn: %s: %v\n", req.URL, err)
				p.failed++
			}
			checking += time.Since(c0)
		}
		if (maxReads > 0 && p.reads >= maxReads) || (maxReads == 0 && !t1.Before(deadline)) {
			break
		}
	}
	wall := time.Since(start) - checking
	close(signal)
	wg.Wait()
	p.failed += publishErrs
	p.throughput = float64(p.reads) / wall.Seconds()
	st := pub.Stats()
	fmt.Fprintf(os.Stderr, "query-churn: %d reads in %.3f s, %d publishes, %d renders, %d not-modified, %d failed\n",
		p.reads, wall.Seconds(), st.Seq, st.Renders-stats0.Renders, st.NotModified-stats0.NotModified, p.failed)
	if tr != nil {
		q.layer = queryLayer{
			reads:       uint64(p.reads),
			renders:     st.Renders - stats0.Renders,
			notModified: st.NotModified - stats0.NotModified,
			cached:      cached,
			cold:        cold,
		}
	}
	return p, nil
}

// etagSeq extracts the publish sequence from a `"s<seq>-e<epoch>"` ETag
// (0 when malformed).
func etagSeq(etag string) uint64 {
	s := strings.TrimPrefix(strings.Trim(etag, `"`), "s")
	s, _, _ = strings.Cut(s, "-")
	n, _ := strconv.ParseUint(s, 10, 64)
	return n
}

// checkEnvelope verifies that a 200 body's seq/epoch/etag envelope
// matches the ETag the response carried.
func checkEnvelope(body []byte, etagHdr []string) error {
	if len(etagHdr) != 1 {
		return fmt.Errorf("response has %d ETag values", len(etagHdr))
	}
	var env struct {
		Seq   uint64 `json:"seq"`
		Epoch uint64 `json:"epoch"`
		ETag  string `json:"etag"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	want := fmt.Sprintf(`"s%d-e%d"`, env.Seq, env.Epoch)
	if env.ETag != etagHdr[0] || want != etagHdr[0] {
		return fmt.Errorf("envelope seq=%d epoch=%d etag=%s under ETag %s", env.Seq, env.Epoch, env.ETag, etagHdr[0])
	}
	return nil
}
