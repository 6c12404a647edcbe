package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
	"rdlroute/internal/serve"
	"rdlroute/internal/verify"
)

// benchSpec is the part of BENCHMARK.json the self-test holds the code to.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// minimal returns each workload at its smallest size: the dense workloads
// on the smallest Table I cases, serve-mixed on a three-design pool.
func minimal(name string) workload {
	switch name {
	case "dense5":
		return denseWorkload{cases: []string{"dense1"}}
	case "dense-sweep":
		return denseWorkload{cases: []string{"dense1", "dense2"}}
	case "serve-mixed":
		return serveWorkload{designs: 3}
	}
	return nil
}

func runMinimal(t *testing.T, w workload, trace bool) *result {
	t.Helper()
	res, err := run(context.Background(), w, config{workload: "test", trace: trace, spanDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEveryMetricEmittedWithUnit runs every workload of BENCHMARK.json at
// minimal size, untraced and traced, with every check on, and holds the
// emitted metrics to the file's names and units.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	spec := readSpec(t)
	if len(units) != len(spec.EndToEnd)+len(spec.PerLayer) {
		t.Errorf("code knows %d metrics, BENCHMARK.json lists %d", len(units), len(spec.EndToEnd)+len(spec.PerLayer))
	}
	for _, wl := range spec.Workloads {
		if _, err := newWorkload(wl.Name); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			trace bool
			want  []specMetric
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res := runMinimal(t, minimal(wl.Name), mode.trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					wl.Name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			var got, want []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, m := range mode.want {
				want = append(want, m.Name)
				if gm, ok := res.Metrics[m.Name]; ok && gm.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.Name, m.Name, gm.Unit, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted %v, want %v", wl.Name, mode.trace, got, want)
			}
		}
	}
}

// corrupt wraps router.Route, letting bad change the n-th call's result
// (counting from 1).
func corrupt(bad func(n int64, out *router.Output) error) serve.RouteFunc {
	var calls atomic.Int64
	return func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		out, err := router.Route(ctx, d, opt)
		if err != nil {
			return out, err
		}
		return out, bad(calls.Add(1), out)
	}
}

func addProblem(kind verify.ProblemKind) func(int64, *router.Output) error {
	return func(_ int64, out *router.Output) error {
		out.VerifyReport.Problems = append(out.VerifyReport.Problems, verify.Problem{Kind: kind, Other: -1})
		return nil
	}
}

// nudgeWirelength changes the wirelength by one ulp from the second call on.
func nudgeWirelength(n int64, out *router.Output) error {
	if n >= 2 {
		out.Metrics.Wirelength = math.Nextafter(out.Metrics.Wirelength, math.Inf(1))
	}
	return nil
}

// TestChecksCatchCorruptOps corrupts one kind of output at a time and
// expects the run to count failed ops and report itself incorrect.
func TestChecksCatchCorruptOps(t *testing.T) {
	twice := []string{"dense1", "dense1"} // the second route must repeat the first
	slowRoute := func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		time.Sleep(200 * time.Millisecond)
		return router.Route(ctx, d, opt)
	}
	cases := []struct {
		name  string
		w     workload
		trace bool
	}{
		{"route error", denseWorkload{cases: twice, route: corrupt(func(n int64, _ *router.Output) error {
			if n == 2 {
				return errors.New("injected")
			}
			return nil
		})}, false},
		{"broken connectivity", denseWorkload{cases: twice[:1],
			route: corrupt(addProblem(verify.BrokenConnectivity))}, false},
		{"via placement", denseWorkload{cases: twice[:1],
			route: corrupt(addProblem(verify.ViaPlacement))}, false},
		{"fingerprint drift", denseWorkload{cases: twice, route: corrupt(nudgeWirelength)}, false},
		// The untraced reference differs from the traced composition.
		{"traced parity", denseWorkload{cases: twice[:1], route: corrupt(
			func(_ int64, out *router.Output) error { return nudgeWirelength(2, out) })}, true},
		{"serve job failed", serveWorkload{designs: 3, engine: serve.Config{Route: corrupt(
			func(int64, *router.Output) error { return errors.New("injected") })}}, false},
		{"serve connectivity", serveWorkload{designs: 3, engine: serve.Config{
			Route: corrupt(addProblem(verify.BrokenConnectivity))}}, false},
		{"serve rejected", serveWorkload{designs: 3, clients: 4, engine: serve.Config{
			Workers: 1, QueueCapacity: 1, Route: slowRoute}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := runMinimal(t, c.w, c.trace)
			if res.Correct || res.Failed == 0 {
				t.Errorf("corrupt run passed: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if c.name == "serve rejected" && res.Metrics["serve.rejected"].Value == 0 {
				t.Error("serve.rejected = 0 with a saturated queue")
			}
		})
	}
}

// TestCacheHitMustMatchCold feeds the serve checks a cache hit whose
// metrics differ from the cold result of the same design.
func TestCacheHitMustMatchCold(t *testing.T) {
	done := func(hit bool, wirelength float64) job {
		var j job
		j.req.key = "d0"
		j.res.State = serve.StateDone
		j.res.CacheHit = hit
		j.res.Metrics = &router.Metrics{Routability: 1, Wirelength: wirelength}
		j.res.Verify = &struct {
			Counts map[string]int `json:"counts"`
		}{}
		return j
	}
	led := newLedger()
	rs := &roundStats{jobs: []job{done(false, 100), done(true, 100)}}
	rs.check(led)
	if led.failed != 0 {
		t.Fatalf("matching hit failed: %d", led.failed)
	}
	rs = &roundStats{jobs: []job{done(true, 101)}}
	rs.check(led)
	if led.failed != 1 {
		t.Fatalf("hit differing from the cold result: failed = %d, want 1", led.failed)
	}
}

// TestDefaultInputSeedIsShipped pins the default inputs to the router's
// defaults, which the repository's golden tests pin.
func TestDefaultInputSeedIsShipped(t *testing.T) {
	if got, want := denseOptions(config{}), (router.Options{Verify: router.VerifyWarn}); !reflect.DeepEqual(got, want) {
		t.Errorf("default dense options %+v, want %+v", got, want)
	}
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := requestBody(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	var req map[string]json.RawMessage
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if _, ok := req["options"]; ok {
		t.Errorf("default request carries options: %s", req["options"])
	}
}

// TestResubmissionsAreCacheHits holds the serve-mixed round to a fixed
// amount of work: every re-submission points back at an earlier request
// for the same design and, because it waits for that request's result, is
// served from the cache.
func TestResubmissionsAreCacheHits(t *testing.T) {
	w := serveWorkload{designs: 6, clients: 3}
	pool, err := w.pool(0)
	if err != nil {
		t.Fatal(err)
	}
	reqs := round(rand.New(rand.NewSource(1)), pool)
	if len(reqs) != 8 {
		t.Fatalf("round of %d requests, want 8", len(reqs))
	}
	resubmitted := 0
	for i, r := range reqs {
		if r.orig < 0 {
			continue
		}
		resubmitted++
		if r.orig >= i || reqs[r.orig].key != r.key || reqs[r.orig].orig >= 0 {
			t.Errorf("request %d (%s) re-submits request %d (%s)", i, r.key, r.orig, reqs[r.orig].key)
		}
	}
	if resubmitted != 2 {
		t.Errorf("%d re-submissions, want 2", resubmitted)
	}
	rs, err := serveRound(context.Background(), reqs, w.clients, w.engine, false, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range rs.jobs {
		if j.err != nil {
			t.Fatalf("job %d: %v", i, j.err)
		}
		if hit := reqs[i].orig >= 0; j.res.CacheHit != hit {
			t.Errorf("job %d: cache hit %v, want %v", i, j.res.CacheHit, hit)
		}
	}
}

// TestTimesScaleToReferenceHost checks that end-to-end times are scaled by
// the op's reference-host factors, and that nothing else is.
func TestTimesScaleToReferenceHost(t *testing.T) {
	op := opStats{
		interval: interval{wall: 2 * time.Second, cpu: 3 * time.Second, allocMB: 10},
		sc:       scale{wall: 0.5, cpu: 0.25},
		peakMB:   40,
		jobsMS:   []float64{100, 300},
	}
	op.add(outcome{fp: fingerprint{Routability: 1, Vias: 7}, wirelength: 9})
	raw := endToEnd([]opStats{op}, 0.01, false)
	scaled := endToEnd([]opStats{op}, 0.02, true)
	for name, want := range map[string][2]float64{
		"wall_s":     {2, 1},
		"cpu_s":      {3, 0.75},
		"job_p50_ms": {200, 100},
		"jobs_per_s": {1, 2},
		"setup_s":    {0.01, 0.02},
		"alloc_mb":   {10, 10},
		"max_rss_mb": {40, 40},
		"vias":       {7, 7},
	} {
		if raw[name] != want[0] || scaled[name] != want[1] {
			t.Errorf("%s: raw %v scaled %v, want %v", name, raw[name], scaled[name], want)
		}
	}

	// A host twice as slow as the reference host halves the factors.
	c := &calibrator{batches: []refBatch{{2 * refNominalMS, 2 * refNominalMS}, {2 * refNominalMS, 2 * refNominalMS}}}
	if sc := c.between(0, 1); sc != (scale{0.5, 0.5}) {
		t.Errorf("scale on a host twice as slow: %+v", sc)
	}
}

// refDistBits is the sum of the reference kernel's finite distances after
// its third sample.
const refDistBits = 0x412bd946af8205fd

// TestReferenceKernelIsFixed pins the reference kernel's work, which every
// reference-host time depends on: changing it changes every time metric.
func TestReferenceKernelIsFixed(t *testing.T) {
	g := newRefGraph()
	for i := 0; i < 3; i++ {
		if n := g.sample(); n != refSettle {
			t.Fatalf("sample %d settled %d nodes, want %d", i, n, refSettle)
		}
	}
	sum := 0.0
	for _, d := range g.dist {
		if d < 1e300 {
			sum += d
		}
	}
	if got := math.Float64bits(sum); got != refDistBits {
		t.Errorf("reference distances sum to %v (bits %#x), want bits %#x", sum, got, uint64(refDistBits))
	}
}
