package main

import (
	"context"
	"fmt"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/global"
	"rdlroute/internal/obs"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/router"
	"rdlroute/internal/serve"
	"rdlroute/internal/verify"
	"rdlroute/internal/viaplan"
)

// traceOp is one op of a traced run. Each design is routed once untraced,
// through route, and once through tracedRoute; both must give the design's
// first fingerprint, or the per-layer numbers would describe a different
// program. It returns the op's per-layer sums and the tracing overhead
// (traced − untraced wall) / untraced. gc, when non-nil, accumulates the
// garbage collector's cost over the untraced routes.
func traceOp(ctx context.Context, keys []string, ds []*design.Design, opt router.Options,
	route serve.RouteFunc, led *ledger, spans *spanLog, op int, gc *gcTotals) (map[string]float64, float64, error) {
	opSpan := spans.begin("op", op, 0)
	defer spans.end(opSpan)
	layers := make(map[string]float64)
	var untraced, traced time.Duration
	var opErr error
	fail := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	for i, d := range ds {
		g0 := readGC()
		id := spans.begin("router.Route", op, opSpan)
		t0 := time.Now()
		out, err := route(ctx, d, opt)
		untraced += time.Since(t0)
		spans.end(id)
		if gc != nil {
			gc.add(g0, readGC())
		}
		o, err := routeOutcome(keys[i], out, err)
		if err == nil {
			err = led.same(o)
		}
		fail(err)

		id = spans.begin("pipeline", op, opSpan)
		t0 = time.Now()
		o, err = tracedRoute(ctx, keys[i], d, opt, spans, op, id, layers)
		traced += time.Since(t0)
		spans.end(id)
		if err == nil {
			if err = led.same(o); err != nil {
				err = fmt.Errorf("traced pipeline parity: %w", err)
			}
		}
		fail(err)
	}
	return layers, ratio((traced - untraced).Seconds(), untraced.Seconds()), opErr
}

// traceOps runs traceOp until the run has lasted seconds, at least once,
// and returns the per-layer metrics with the tracing overhead. op numbers
// the ops; it is advanced past the last one.
func traceOps(ctx context.Context, start time.Time, seconds float64, keys []string, ds []*design.Design,
	opt router.Options, route serve.RouteFunc, led *ledger, spans *spanLog, op *int, gc *gcTotals) map[string]float64 {
	var layerOps []map[string]float64
	var overhead []float64
	for first := true; first || time.Since(start).Seconds() < seconds; first = false {
		*op++
		layers, ovh, err := traceOp(ctx, keys, ds, opt, route, led, spans, *op, gc)
		layerOps = append(layerOps, layers)
		overhead = append(overhead, ovh)
		led.op(err)
	}
	m := layerMetrics(layerOps)
	m["trace.overhead_frac"] = median(overhead)
	return m
}

// collectorCounters maps per-layer metrics to the obs counters the stages
// already record.
var collectorCounters = map[string]string{
	"viaplan.vias":                 "viaplan.vias",
	"rgraph.links":                 "rgraph.links",
	"global.expansions":            "global.astar.expansions",
	"global.heap_pushes":           "global.astar.heap_pushes",
	"global.ripups":                "global.ripups",
	"global.rounds":                "global.order_rounds",
	"global.spec.hits":             "global.spec.hits",
	"global.spec.misses":           "global.spec.misses",
	"global.spec.wasted":           "global.spec.wasted_expansions",
	"detail.fit.failures":          "detail.fit.failures",
	"detail.fit.tangents":          "detail.fit.tangent_constructions",
	"detail.reassign.vias_removed": "detail.reassign.vias_removed",
	"drc.spacing":                  "drc.violations.spacing",
	"drc.angle":                    "drc.violations.angle",
	"drc.turn":                     "drc.violations.turn-distance",
}

// collectorStages are the stages' own sub-spans read from the Collector.
var collectorStages = []string{
	"global.order", "global.astar", "global.refine",
	"detail.adjust", "detail.fit", "drc.scan",
}

// tracedRoute routes d as router.Route composes the pipeline, calling each
// stage's public entry point under a span of its own with an obs.Collector
// in the stage's Rec field, and adds the per-layer sums into layers.
func tracedRoute(ctx context.Context, key string, d *design.Design, opt router.Options,
	spans *spanLog, op, parent int, layers map[string]float64) (outcome, error) {
	col := obs.NewCollector()
	call := func(layer string, f func() error) (interval, error) {
		id := spans.begin(layer, op, parent)
		m := startMeter()
		err := f()
		iv := m.stop()
		spans.end(id)
		layers[layer+".ms"] += ms(iv.wall)
		if err != nil {
			return iv, fmt.Errorf("%s: %s: %w", key, layer, err)
		}
		return iv, nil
	}

	vopt := opt.Via
	vopt.Rec = col
	if vopt.ViaCost == 0 {
		vopt.ViaCost = rgraph.ViaCostValue(opt.Graph.ViaCost)
	}
	var plan *viaplan.Plan
	if _, err := call("viaplan", func() (err error) {
		plan, err = viaplan.Build(d, vopt)
		return err
	}); err != nil {
		return outcome{key: key}, err
	}

	gropt := opt.Graph
	gropt.Rec = col
	var g *rgraph.Graph
	iv, err := call("rgraph", func() (err error) {
		g, err = rgraph.Build(d, plan, gropt)
		return err
	})
	if err != nil {
		return outcome{key: key}, err
	}
	layers["rgraph.alloc_mb"] += iv.allocMB

	gopt := opt.Global
	gopt.Rec = col
	if gopt.Parallelism == 0 {
		gopt.Parallelism = opt.Parallelism
	}
	var gr *global.Router
	var gres *global.Result
	iv, err = call("global", func() (err error) {
		gr = global.New(g, gopt)
		gres, err = gr.Run(ctx)
		return err
	})
	if err != nil {
		return outcome{key: key}, err
	}
	layers["global.alloc_mb"] += iv.allocMB
	layers["global.cpu_s"] += iv.cpu.Seconds()

	dopt := opt.Detail
	dopt.Rec = col
	if dopt.Workers == 0 {
		dopt.Workers = opt.Parallelism
	}
	var dres *detail.Result
	iv, err = call("detail", func() (err error) {
		dres, err = detail.Run(ctx, gr, gres, dopt)
		return err
	})
	if err != nil {
		return outcome{key: key}, err
	}
	layers["detail.alloc_mb"] += iv.allocMB

	var violations []detail.Violation
	_, _ = call("drc", func() error {
		violations = detail.CheckDRCParallel(dres.Routes, d,
			detail.DRCOptions{Workers: opt.Parallelism, Rec: col})
		return nil
	})
	var rep *verify.Report
	_, _ = call("verify", func() error {
		rep = verify.Check(d, dres.Routes, verify.Options{
			Workers: opt.Parallelism, Rec: col, DRC: violations, HaveDRC: true,
		})
		return nil
	})

	stages := col.StageSeconds()
	for _, s := range collectorStages {
		layers[s+".ms"] += stages[s] * 1000
	}
	for name, ctr := range collectorCounters {
		layers[name] += float64(col.Counter(ctr))
	}
	layers["verify.via_wire"] += float64(rep.Count(verify.ViaWireSpacing))

	// The metrics router.Route's epilogue derives from the same results.
	m := router.Metrics{
		Routability:   gres.Routability(),
		Wirelength:    dres.Wirelength,
		DRCViolations: len(violations),
	}
	for _, rt := range dres.Routes {
		if rt != nil {
			m.Vias += len(rt.Vias)
		}
	}
	return outcomeOf(key, m, rep.Counts())
}

// layerMetrics reduces the per-op layer sums of a traced run to the
// per-layer metrics, each the median over ops, with the ratios taken per op.
func layerMetrics(ops []map[string]float64) map[string]float64 {
	per := make(map[string][]float64)
	for _, l := range ops {
		l["detail.rest.ms"] = l["detail.ms"] - l["detail.adjust.ms"] - l["detail.fit.ms"]
		l["global.expansions_per_s"] = ratio(l["global.expansions"], l["global.astar.ms"]/1000)
		l["global.spec.hit_ratio"] = ratio(l["global.spec.hits"],
			l["global.spec.hits"]+l["global.spec.misses"])
		l["global.spec.wasted_ratio"] = ratio(l["global.spec.wasted"],
			l["global.spec.wasted"]+l["global.expansions"])
		for name, v := range l {
			if _, ok := units[name]; ok {
				per[name] = append(per[name], v)
			}
		}
	}
	m := make(map[string]float64, len(per))
	for name, vs := range per {
		m[name] = median(vs)
	}
	return m
}
