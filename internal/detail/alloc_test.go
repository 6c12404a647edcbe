package detail

import (
	"context"
	"testing"
)

// TestDetailRunDoesNotAllocate pins the zero-allocation property of the
// detail stage's tile-routing hot path, mirroring the global stage's
// TestRouteSearchDoesNotAllocate: after one warm pass has grown every job's
// scratch buffers (fit/full polylines, per-passage route buffers, routed
// lists) to steady state, re-running tile routing over the whole design must
// not touch the heap. A run's tile-routing allocations are therefore only
// that buffer growth, never per-passage or per-iteration garbage.
func TestDetailRunDoesNotAllocate(t *testing.T) {
	r, gres, _ := pipeline(t, "dense1", Options{})
	d := &Detailer{
		G: r.G, R: r,
		Opt:    Options{Workers: 1},
		guides: gres.Guides,
	}
	if err := d.buildChains(gres.Guides); err != nil {
		t.Fatal(err)
	}
	d.AdjustAccessPoints(context.Background())
	d.buildTileJobs()
	ctx := context.Background()
	// Warm-up: the first pass sizes every scratch to its high-water mark.
	d.routeTiles(ctx)

	allocs := testing.AllocsPerRun(20, func() {
		d.routeTiles(ctx)
	})
	if allocs > 0 {
		t.Fatalf("warm routeTiles allocated %.1f allocs/run, want 0", allocs)
	}
}
