package main

import (
	"fmt"
	"math"
	"os"
	"strings"

	"rdlroute/internal/router"
	"rdlroute/internal/verify"
)

// fingerprint is the deterministic summary of one routed design. Routing is
// deterministic, so every route of one design with one set of options must
// give the same fingerprint, whichever path produced it.
type fingerprint struct {
	Routability float64
	Wirelength  uint64 // IEEE-754 bits: any change counts
	Vias        int
	DRC         int
	// Verify holds the verify findings by kind, in verify.Kinds order.
	Verify string
}

// outcome is one routed design as the checks and quality metrics see it.
type outcome struct {
	key        string // design identity within the run
	fp         fingerprint
	wirelength float64
	// hard counts verify findings that are not wrapped DRC rules.
	hard int
}

// outcomeOf summarizes a route from its metrics and its verify findings by
// kind name. It fails when verify found a route that does not connect its
// pins or a via outside the package: such output is wrong, not just
// low-quality.
func outcomeOf(key string, m router.Metrics, counts map[string]int) (outcome, error) {
	o := outcome{key: key, wirelength: m.Wirelength}
	var b strings.Builder
	for i, k := range verify.Kinds {
		if i > 0 {
			b.WriteByte(' ')
		}
		n := counts[k.String()]
		fmt.Fprintf(&b, "%s=%d", k, n)
		if k != verify.RuleViolation {
			o.hard += n
		}
	}
	o.fp = fingerprint{
		Routability: m.Routability,
		Wirelength:  math.Float64bits(m.Wirelength),
		Vias:        m.Vias,
		DRC:         m.DRCViolations,
		Verify:      b.String(),
	}
	for _, k := range []verify.ProblemKind{verify.BrokenConnectivity, verify.ViaPlacement} {
		if n := counts[k.String()]; n > 0 {
			return o, fmt.Errorf("%s: %d %s findings", key, n, k)
		}
	}
	return o, nil
}

// routeOutcome checks one router.Route result.
func routeOutcome(key string, out *router.Output, err error) (outcome, error) {
	if err != nil {
		return outcome{key: key}, fmt.Errorf("%s: route: %w", key, err)
	}
	if out.VerifyReport == nil {
		return outcome{key: key}, fmt.Errorf("%s: route has no verify report", key)
	}
	return outcomeOf(key, out.Metrics, out.VerifyReport.Counts())
}

// ledger counts attempted and failed ops and holds the first fingerprint of
// every design, which later routes of that design must repeat.
type ledger struct {
	first             map[string]fingerprint
	attempted, failed int
}

func newLedger() *ledger { return &ledger{first: make(map[string]fingerprint)} }

// same checks o against the first outcome of its design; the first one
// becomes the reference.
func (l *ledger) same(o outcome) error {
	ref, ok := l.first[o.key]
	if !ok {
		l.first[o.key] = o.fp
		return nil
	}
	if ref != o.fp {
		return fmt.Errorf("%s: fingerprint %+v differs from the first route's %+v", o.key, o.fp, ref)
	}
	return nil
}

// maxReported bounds the failures printed to standard error per run.
const maxReported = 5

// op counts one attempted op; a non-nil err marks it failed.
func (l *ledger) op(err error) {
	l.attempted++
	if err == nil {
		return
	}
	l.failed++
	if l.failed <= maxReported {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

// report wraps the tallies and metrics into a run report.
func (l *ledger) report(m map[string]float64) *report {
	return &report{attempted: l.attempted, failed: l.failed, metrics: m}
}

// measured wraps an untraced run's ops into a run report: the end-to-end
// metrics in reference-host units, and the raw ones with the reference
// kernel's time for the comment lines. The set-up ran once, before the
// first batch, so it is scaled by the run's median reference sample.
func (l *ledger) measured(ops []opStats, setupS float64, cal *calibrator) *report {
	r := l.report(endToEnd(ops, setupS*refNominalMS/cal.refMS(), true))
	r.raw = endToEnd(ops, setupS, false)
	for name, v := range r.raw {
		if v == r.metrics[name] {
			delete(r.raw, name)
		}
	}
	r.raw["host.ref_ms"] = cal.refMS()
	r.raw["process.max_rss_mb"] = maxRSSMB()
	return r
}
