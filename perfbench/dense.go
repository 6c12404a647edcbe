package main

import (
	"context"
	"fmt"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
	"rdlroute/internal/serve"
)

// denseWorkload routes Table I dense cases through router.Route; one op
// routes every case once, in order. Its inputs are the fixed Table I
// designs at the configured via seed: re-seeding the via lattice changes
// the routes themselves (dense5 takes 2.6–8.0 s over via seeds 0–5), so the
// run seed does not touch them and seed-to-seed spread stays run-to-run
// noise.
type denseWorkload struct {
	cases []string
	// route is the routing entry point; nil selects router.Route. The
	// self-test substitutes a corrupting one to show the checks fire.
	route serve.RouteFunc
}

func (w denseWorkload) router() serve.RouteFunc {
	if w.route != nil {
		return w.route
	}
	return router.Route
}

// setup generates and validates the workload's designs.
func (w denseWorkload) setup() ([]*design.Design, error) {
	ds := make([]*design.Design, len(w.cases))
	for i, name := range w.cases {
		d, err := design.GenerateDense(name)
		if err != nil {
			return nil, err
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ds[i] = d
	}
	return ds, nil
}

// denseOptions are the options every dense route uses: the defaults (so
// Parallelism resolves to GOMAXPROCS capped at 8) with the verify gate in
// warn mode, whose report the checks read.
func denseOptions(cfg config) router.Options {
	opt := router.Options{Verify: router.VerifyWarn}
	opt.Via.Seed = cfg.inputSeed
	return opt
}

// op routes every case once, checks each route and counts the op in led.
func (w denseWorkload) op(ctx context.Context, ds []*design.Design, opt router.Options,
	route serve.RouteFunc, led *ledger) opStats {
	var op opStats
	var opErr error
	m := startMeter()
	for i, d := range ds {
		t0 := time.Now()
		out, err := route(ctx, d, opt)
		op.jobsMS = append(op.jobsMS, ms(time.Since(t0)))
		o, err := routeOutcome(w.cases[i], out, err)
		if err == nil {
			err = led.same(o)
		}
		if err == nil {
			op.add(o)
		} else if opErr == nil {
			opErr = err
		}
	}
	op.interval = m.stop()
	led.op(opErr)
	return op
}

// measure times ops after one warm-up op, which fills the runtime's heap
// and the stages' lazily built tables; the warm-up is checked like every
// op but not timed. The calibration batches around every op give it its
// reference-host scale.
func (w denseWorkload) measure(ctx context.Context, cfg config) (*report, error) {
	ds, setupS, err := timedSetup(w.setup)
	if err != nil {
		return nil, err
	}
	opt := denseOptions(cfg)
	route := w.router()
	led := newLedger()
	start := time.Now()
	w.op(ctx, ds, opt, route, led)
	cal := newCalibrator()
	mem := startMemSampler()
	defer mem.close()
	var ops []opStats
	prev := cal.batch()
	for len(ops) == 0 || time.Since(start).Seconds() < cfg.seconds {
		mem.reset()
		op := w.op(ctx, ds, opt, route, led)
		op.peakMB = mem.peakMB()
		// The batch also starts every op from the same heap, so the op
		// before it does not decide when the collector runs.
		next := cal.batch()
		op.sc = cal.between(prev, next)
		prev = next
		ops = append(ops, op)
	}
	return led.measured(ops, setupS, cal), nil
}

func (w denseWorkload) trace(ctx context.Context, cfg config, spans *spanLog) (*report, error) {
	ds, err := w.setup()
	if err != nil {
		return nil, err
	}
	led := newLedger()
	var gc gcTotals
	op := 0
	m := traceOps(ctx, time.Now(), cfg.seconds, w.cases, ds, denseOptions(cfg), w.router(), led, spans, &op, &gc)
	gc.into(m)

	// The serve layer on this workload: each case through the HTTP API, cold
	// and then from the cache, whose results must match router.Route's.
	var reqs []request
	for i, d := range ds {
		body, err := requestBody(d, cfg.inputSeed)
		if err != nil {
			return nil, err
		}
		r := request{key: w.cases[i], d: d, body: body, orig: -1}
		reqs = append(reqs, r)
		r.orig = len(reqs) - 1
		reqs = append(reqs, r)
	}
	rs, err := serveRound(ctx, reqs, 1, serve.Config{Route: w.route}, true, spans, op+1)
	if err != nil {
		return nil, err
	}
	rs.check(led)
	serveLayer([]*roundStats{rs}, m)
	return led.report(m), nil
}
