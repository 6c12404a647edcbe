package router

import (
	"context"
	"math"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/verify"
)

// golden pins the headline metrics of the deterministic pipeline. The exact
// wirelengths move whenever an algorithm detail changes — update the table
// deliberately when that happens (tolerances absorb float-level drift, not
// behavioural change). The DRC, via and via-wire bars are a ratchet: they
// sit at the measured values and may only tighten.
var golden = []struct {
	name        string
	wirelength  float64 // µm, ±2%
	maxDRC      int
	maxVias     int
	maxViaWire  int // hard via-wire spacing findings of the verifier
	routability float64
}{
	{name: "dense1", wirelength: 18740, maxDRC: 29, maxVias: 32, maxViaWire: 0, routability: 1},
	{name: "dense2", wirelength: 51742, maxDRC: 38, maxVias: 52, maxViaWire: 0, routability: 1},
	{name: "dense3", wirelength: 79930, maxDRC: 36, maxVias: 102, maxViaWire: 0, routability: 1},
	{name: "dense4", wirelength: 120131, maxDRC: 120, maxVias: 204, maxViaWire: 0, routability: 1},
	{name: "dense5", wirelength: 321335, maxDRC: 488, maxVias: 542, maxViaWire: 4, routability: 1},
}

func TestGoldenMetrics(t *testing.T) {
	for _, g := range golden {
		d, err := design.GenerateDense(g.name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Route(context.Background(), d, Options{Verify: VerifyWarn})
		if err != nil {
			t.Fatal(err)
		}
		m := out.Metrics
		if m.Routability != g.routability {
			t.Errorf("%s: routability = %v, want %v", g.name, m.Routability, g.routability)
		}
		if math.Abs(m.Wirelength-g.wirelength) > 0.02*g.wirelength {
			t.Errorf("%s: wirelength = %.0f, golden %.0f (±2%%)", g.name, m.Wirelength, g.wirelength)
		}
		if m.DRCViolations > g.maxDRC {
			t.Errorf("%s: DRC = %d, bar %d", g.name, m.DRCViolations, g.maxDRC)
		}
		if m.Vias > g.maxVias {
			t.Errorf("%s: vias = %d, bar %d", g.name, m.Vias, g.maxVias)
		}
		if n := out.VerifyReport.Count(verify.ViaWireSpacing); n > g.maxViaWire {
			t.Errorf("%s: verify via-wire = %d, bar %d", g.name, n, g.maxViaWire)
		}
	}
}

// TestRunToRunIdentical verifies full determinism of the pipeline: two runs
// of the same design produce byte-identical geometry.
func TestRunToRunIdentical(t *testing.T) {
	run := func() *Output {
		d, err := design.GenerateDense("dense2")
		if err != nil {
			t.Fatal(err)
		}
		out, err := Route(context.Background(), d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Metrics.Wirelength != b.Metrics.Wirelength {
		t.Fatalf("wirelength differs: %v vs %v", a.Metrics.Wirelength, b.Metrics.Wirelength)
	}
	for ni := range a.DetailResult.Routes {
		ra, rb := a.DetailResult.Routes[ni], b.DetailResult.Routes[ni]
		if (ra == nil) != (rb == nil) {
			t.Fatalf("net %d presence differs", ni)
		}
		if ra == nil {
			continue
		}
		if len(ra.Segs) != len(rb.Segs) {
			t.Fatalf("net %d segment count differs", ni)
		}
		for si := range ra.Segs {
			if len(ra.Segs[si].Pl) != len(rb.Segs[si].Pl) {
				t.Fatalf("net %d seg %d vertex count differs", ni, si)
			}
			for pi := range ra.Segs[si].Pl {
				if ra.Segs[si].Pl[pi] != rb.Segs[si].Pl[pi] {
					t.Fatalf("net %d seg %d vertex %d differs", ni, si, pi)
				}
			}
		}
	}
}
