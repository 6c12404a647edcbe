package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
	"rdlroute/internal/serve"
)

// serveWorkload is a closed loop of clients against serve.NewHandler over a
// serve.Engine, served in-process on loopback. One op is a round: a fresh
// engine and server, then every design of the pool once, in an order the
// run seed draws, with every fourth request re-submitting one of the three
// designs sent just before it, so cold routes (cache writes) run beside
// cache hits (reads). A fixed job count per engine keeps retained memory
// comparable between runs: the engine never drops a finished job, and each
// keeps its full router.Output. The pool is fixed by the input seed, so the
// route quality of a round does not depend on the run seed.
type serveWorkload struct {
	// designs is the pool size; a round sends designs + designs/3 jobs.
	designs int
	// clients is the number of concurrent clients; zero selects one per
	// CPU.
	clients int
	// engine configures each round's engine; the zero value is the
	// default engine. The self-test substitutes its Route backend.
	engine serve.Config
}

func (w serveWorkload) clientCount() int {
	if w.clients > 0 {
		return w.clients
	}
	return runtime.NumCPU()
}

// request is one submission of a design.
type request struct {
	key  string // design identity for the fingerprint checks
	d    *design.Design
	body []byte
	// orig is the index in the round of the first submission this request
	// re-submits, or -1. A re-submission is sent after the first one's
	// result, so it is a cache hit whatever the clients' timing.
	orig int
}

// requestBody encodes a POST /v1/jobs body that routes d with the verify
// gate in warn mode, so the result carries verify findings by kind.
func requestBody(d *design.Design, viaSeed int64) ([]byte, error) {
	dj, err := d.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	body := struct {
		Design  json.RawMessage     `json:"design"`
		Verify  string              `json:"verify"`
		Options *router.OptionsSpec `json:"options,omitempty"`
	}{Design: dj, Verify: "warn"}
	if viaSeed != 0 {
		body.Options = &router.OptionsSpec{Via: router.ViaSpec{Seed: viaSeed}}
	}
	return json.Marshal(body)
}

// pool generates and validates the serve-mixed designs: random designs of
// 2–4 chips, 8–19 nets per channel and 2–3 wire layers. Chip and layer
// counts cycle so every size mix is present; the input seed draws net
// counts, placement and pairing.
func (w serveWorkload) pool(inputSeed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(inputSeed))
	reqs := make([]request, w.designs)
	for k := range reqs {
		d, err := design.GenerateRandom(design.RandomSpec{
			Seed:           rng.Int63(),
			Chips:          2 + k%3,
			WireLayers:     2 + (k/3)%2,
			NetsPerChannel: 8 + rng.Intn(12),
		})
		if err != nil {
			return nil, err
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		body, err := requestBody(d, 0)
		if err != nil {
			return nil, err
		}
		reqs[k] = request{key: fmt.Sprintf("d%d", k), d: d, body: body, orig: -1}
	}
	return reqs, nil
}

// round orders one round's requests: the pool in a seeded order, with every
// fourth request re-submitting one of the three designs just before it.
func round(rng *rand.Rand, pool []request) []request {
	perm := rng.Perm(len(pool))
	reqs := make([]request, 0, len(pool)+len(pool)/3)
	at := make([]int, len(pool)) // the index in reqs of each design
	for i, k := range perm {
		at[k] = len(reqs)
		reqs = append(reqs, pool[k])
		if i%3 == 2 {
			again := perm[i-rng.Intn(3)]
			r := pool[again]
			r.orig = at[again]
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// jobResult is the GET /v1/jobs/{id}/result body the benchmark reads.
type jobResult struct {
	serve.JobStatus
	Verify *struct {
		Counts map[string]int `json:"counts"`
	} `json:"verify"`
}

// job is one request as its client saw it.
type job struct {
	req request
	// latency runs from sending the submit to receiving the result;
	// submit is the submit round trip alone.
	latency, submit time.Duration
	res             jobResult
	rejected        bool
	err             error
}

// outcome checks the job and summarizes its result.
func (j *job) outcome() (outcome, error) {
	key := j.req.key
	switch {
	case j.err != nil:
		return outcome{key: key}, fmt.Errorf("%s: %w", key, j.err)
	case j.res.State != serve.StateDone:
		return outcome{key: key}, fmt.Errorf("%s: job %s ended %s: %s", key, j.res.ID, j.res.State, j.res.Error)
	case j.res.Metrics == nil || j.res.Verify == nil:
		return outcome{key: key}, fmt.Errorf("%s: job %s result lacks metrics or verify counts", key, j.res.ID)
	}
	return outcomeOf(key, *j.res.Metrics, j.res.Verify.Counts)
}

// roundStats is one serve round.
type roundStats struct {
	interval // the jobs, from the first submit to the last result
	// startup is the time to start the engine and the server.
	startup  time.Duration
	gc0, gc1 gcMeter
	jobs     []job
	retained int // engine.Stats().Jobs after the round
	// heapMBPerJob is the live heap the engine holds per retained job;
	// measured only when asked, since it forces garbage collections.
	heapMBPerJob float64
}

// serveRound starts an engine and an HTTP server on loopback, sends reqs
// from a closed loop of clients, and shuts both down.
func serveRound(ctx context.Context, reqs []request, clients int, cfg serve.Config,
	measureHeap bool, spans *spanLog, op int) (*roundStats, error) {
	var heap0 float64
	if measureHeap {
		heap0 = liveHeapMB()
	}
	t0 := time.Now()
	e := serve.New(cfg)
	defer e.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	srv := &http.Server{Handler: serve.NewHandler(e)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	defer func() {
		_ = srv.Shutdown(context.Background())
		<-served
	}()
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	base := "http://" + ln.Addr().String()
	rs := &roundStats{startup: time.Since(t0), jobs: make([]job, len(reqs))}

	roundSpan := spans.begin("serve.round", op, 0)
	done := make([]chan struct{}, len(reqs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	rs.gc0 = readGC()
	m := startMeter()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if o := reqs[i].orig; o >= 0 {
					<-done[o]
				}
				id := spans.begin("serve.job", op, roundSpan)
				rs.jobs[i] = runJob(ctx, client, base, reqs[i])
				spans.end(id)
				close(done[i])
			}
		}()
	}
	wg.Wait()
	rs.interval = m.stop()
	rs.gc1 = readGC()
	spans.end(roundSpan)
	rs.retained = e.Stats().Jobs
	if measureHeap {
		rs.heapMBPerJob = ratio(liveHeapMB()-heap0, float64(rs.retained))
	}
	return rs, nil
}

// runJob submits one request with ?wait=1 and then fetches its result.
func runJob(ctx context.Context, client *http.Client, base string, req request) job {
	j := job{req: req}
	t0 := time.Now()
	var sub serve.JobStatus
	code, err := doJSON(ctx, client, http.MethodPost, base+"/v1/jobs?wait=1", req.body, &sub)
	j.submit = time.Since(t0)
	if err == nil && code != http.StatusOK {
		j.rejected = code == http.StatusTooManyRequests
		err = fmt.Errorf("submit: HTTP %d", code)
	}
	if err != nil {
		j.err = err
		return j
	}
	code, err = doJSON(ctx, client, http.MethodGet, base+"/v1/jobs/"+sub.ID+"/result", nil, &j.res)
	j.latency = time.Since(t0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", code)
	}
	j.err = err
	return j
}

// doJSON sends one request and decodes a 200 response body into v.
func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, v any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(data, v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// check runs every job of the round through the checks, one op each, and
// returns the quality of the round's distinct designs and the latencies of
// its completed jobs.
func (rs *roundStats) check(led *ledger) (quality, []float64) {
	var q quality
	var lat []float64
	seen := make(map[string]bool)
	for i := range rs.jobs {
		o, err := rs.jobs[i].outcome()
		if err == nil {
			err = led.same(o)
		}
		led.op(err)
		if err != nil {
			continue
		}
		lat = append(lat, ms(rs.jobs[i].latency))
		if !seen[o.key] {
			seen[o.key] = true
			q.add(o)
		}
	}
	return q, lat
}

// measure times rounds after one warm-up round, which is checked like
// every round but not timed. The calibration batches around every round
// give it its reference-host scale; a batch's collection also drops the
// round's engine, so every round begins from the same heap.
func (w serveWorkload) measure(ctx context.Context, cfg config) (*report, error) {
	pool, poolS, err := timedSetup(func() ([]request, error) { return w.pool(cfg.inputSeed) })
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	led := newLedger()
	start := time.Now()
	rs, err := serveRound(ctx, round(rng, pool), w.clientCount(), w.engine, false, nil, 0)
	if err != nil {
		return nil, err
	}
	rs.check(led)
	cal := newCalibrator()
	mem := startMemSampler()
	defer mem.close()
	var ops []opStats
	var startups []float64
	prev := cal.batch()
	for len(ops) == 0 || time.Since(start).Seconds() < cfg.seconds {
		mem.reset()
		rs, err := serveRound(ctx, round(rng, pool), w.clientCount(), w.engine, false, nil, 0)
		if err != nil {
			return nil, err
		}
		op := opStats{interval: rs.interval, peakMB: mem.peakMB()}
		op.quality, op.jobsMS = rs.check(led)
		next := cal.batch()
		op.sc = cal.between(prev, next)
		prev = next
		startups = append(startups, rs.startup.Seconds())
		ops = append(ops, op)
	}
	return led.measured(ops, poolS+median(startups), cal), nil
}

// trace spends the first half of the run on serve rounds, which give the
// serve and runtime layers, and the second on the traced pipeline over the
// pool, whose results must match the served ones.
func (w serveWorkload) trace(ctx context.Context, cfg config, spans *spanLog) (*report, error) {
	pool, err := w.pool(cfg.inputSeed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	led := newLedger()
	var rounds []*roundStats
	var gc gcTotals
	start := time.Now()
	op := 0
	for op == 0 || time.Since(start).Seconds() < cfg.seconds/2 {
		op++
		rs, err := serveRound(ctx, round(rng, pool), w.clientCount(), w.engine, true, spans, op)
		if err != nil {
			return nil, err
		}
		rs.check(led)
		gc.add(rs.gc0, rs.gc1)
		rounds = append(rounds, rs)
	}

	route := w.engine.Route
	if route == nil {
		route = router.Route
	}
	keys := make([]string, len(pool))
	ds := make([]*design.Design, len(pool))
	for i, r := range pool {
		keys[i], ds[i] = r.key, r.d
	}
	m := traceOps(ctx, start, cfg.seconds, keys, ds, router.Options{Verify: router.VerifyWarn},
		route, led, spans, &op, nil)
	serveLayer(rounds, m)
	gc.into(m)
	return led.report(m), nil
}

// serveLayer reduces serve rounds to the serve.* per-layer metrics. Queue
// wait and run time are over cold jobs, submit time over cache hits (the
// submit path alone: decode, validate, cache key, lookup).
func serveLayer(rounds []*roundStats, m map[string]float64) {
	var wait, run, submit, retained, heap []float64
	var jobs, hits, rejected int
	for _, rs := range rounds {
		for _, j := range rs.jobs {
			jobs++
			switch {
			case j.rejected:
				rejected++
			case j.err != nil:
			case j.res.CacheHit:
				hits++
				submit = append(submit, ms(j.submit))
			default:
				wait = append(wait, j.res.WaitMS)
				run = append(run, j.res.RunMS)
			}
		}
		retained = append(retained, float64(rs.retained))
		heap = append(heap, rs.heapMBPerJob)
	}
	m["serve.wait_p50_ms"] = quantile(wait, 0.5)
	m["serve.wait_p90_ms"] = quantile(wait, 0.9)
	m["serve.run_p50_ms"] = quantile(run, 0.5)
	m["serve.run_p90_ms"] = quantile(run, 0.9)
	m["serve.submit_ms"] = median(submit)
	m["serve.hit_ratio"] = ratio(float64(hits), float64(jobs))
	m["serve.rejected"] = float64(rejected)
	m["serve.retained_jobs"] = median(retained)
	m["serve.heap_mb_per_job"] = median(heap)
}
