package main

import (
	"math/rand"
	"runtime"
	"time"
)

// The benchmark runs on a share of a shared machine whose speed drifts by
// up to 2× over minutes: clock frequency, hyperthread siblings and stolen
// time follow the neighbours' load. A run-to-run bound cannot absorb that,
// so the benchmark times a fixed reference kernel between its ops and
// reports every end-to-end time in reference-host units: the raw time
// scaled by refNominalMS / (the kernel's time around the op). The kernel
// never changes with the program, so a program that gets slower still
// reads slower; only the host's speed cancels. The raw times are printed
// on the result's comment lines, and host.ref_ms reports the kernel's time.

// refNominalMS is one reference sample on the reference host (2-vCPU Xeon
// VM at 2.0 GHz, Go 1.24), so scaled times read as seconds on that host.
const refNominalMS = 20.0

// refBatchSamples is the samples per calibration batch: about 0.16 s on
// the reference host.
const refBatchSamples = 8

// The reference kernel is a Dijkstra search, like the router's A*: a binary
// heap of float64 keys over a sparse graph of refNodes nodes, whose ~10 MB
// of adjacency does not fit in cache. Four edges join grid neighbours, the
// rest random nodes. A sample settles refSettle nodes from a fresh source.
const (
	refNodes  = 1 << 17
	refSide   = 362
	refDeg    = 6
	refSettle = 30000
)

// refGraph is the reference kernel's input and scratch.
type refGraph struct {
	to   []int32
	w    []float64
	dist []float64
	heap []refItem
	next int // the next sample's source
}

type refItem struct {
	d float64
	v int32
}

func newRefGraph() *refGraph {
	rng := rand.New(rand.NewSource(1))
	g := &refGraph{
		to:   make([]int32, refNodes*refDeg),
		w:    make([]float64, refNodes*refDeg),
		dist: make([]float64, refNodes),
		heap: make([]refItem, 0, 1<<16),
	}
	grid := [4]int{1, -1, refSide, -refSide}
	for v := 0; v < refNodes; v++ {
		for k := 0; k < refDeg; k++ {
			u := -1
			if k < len(grid) {
				u = v + grid[k]
			}
			if u < 0 || u >= refNodes {
				u = rng.Intn(refNodes)
			}
			g.to[v*refDeg+k] = int32(u)
			g.w[v*refDeg+k] = 1 + rng.Float64()
		}
	}
	return g
}

// sample runs the kernel once and returns the number of nodes it settled.
func (g *refGraph) sample() int {
	src := (g.next * 7919) % refNodes
	g.next++
	for i := range g.dist {
		g.dist[i] = 1e300
	}
	g.dist[src] = 0
	h := append(g.heap[:0], refItem{0, int32(src)})
	settled := 0
	for len(h) > 0 && settled < refSettle {
		it := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].d < h[c].d {
				c++
			}
			if h[i].d <= h[c].d {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		v := int(it.v)
		if it.d > g.dist[v] {
			continue
		}
		settled++
		for e := v * refDeg; e < (v+1)*refDeg; e++ {
			u := g.to[e]
			nd := it.d + g.w[e]
			if nd >= g.dist[u] {
				continue
			}
			g.dist[u] = nd
			h = append(h, refItem{nd, u})
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p].d <= h[i].d {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
		}
	}
	g.heap = h
	return settled
}

// refBatch is one calibration batch: the median sample's wall time and the
// mean sample's process CPU time.
type refBatch struct {
	wallMS, cpuMS float64
}

// calibrator times reference batches between a run's ops.
type calibrator struct {
	g       *refGraph
	batches []refBatch
	samples []float64 // every sample's wall time, ms
}

func newCalibrator() *calibrator { return &calibrator{g: newRefGraph()} }

// batch collects the garbage the last op left, so the collector does not
// run inside the batch, and times one batch. It returns the batch's index.
func (c *calibrator) batch() int {
	runtime.GC()
	walls := make([]float64, refBatchSamples)
	cpu0 := cpuTime()
	for i := range walls {
		t0 := time.Now()
		c.g.sample()
		walls[i] = ms(time.Since(t0))
	}
	cpu := ms(cpuTime() - cpu0)
	c.samples = append(c.samples, walls...)
	c.batches = append(c.batches, refBatch{wallMS: median(walls), cpuMS: cpu / refBatchSamples})
	return len(c.batches) - 1
}

// scale is the factor that turns times measured between batches from and
// to into reference-host times: wall times by the batches' wall time, CPU
// times by their CPU time.
type scale struct{ wall, cpu float64 }

func (c *calibrator) between(from, to int) scale {
	a, b := c.batches[from], c.batches[to]
	return scale{
		wall: ratio(2*refNominalMS, a.wallMS+b.wallMS),
		cpu:  ratio(2*refNominalMS, a.cpuMS+b.cpuMS),
	}
}

// refMS is the median reference sample of the run.
func (c *calibrator) refMS() float64 { return median(c.samples) }
