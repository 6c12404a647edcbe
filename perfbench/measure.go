package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident memory so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// readMetrics reads runtime/metrics samples by name.
func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// allocBytes is the heap bytes allocated so far (MemStats.TotalAlloc),
// read without stopping the world.
func allocBytes() uint64 {
	return readMetrics("/gc/heap/allocs:bytes")[0].Value.Uint64()
}

// liveHeapMB collects garbage and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readMetrics("/gc/heap/live:bytes")[0].Value.Uint64()) / (1 << 20)
}

// meter measures wall time, process CPU and allocation over an interval.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	alloc uint64
}

func startMeter() meter { return meter{t0: time.Now(), cpu0: cpuTime(), alloc: allocBytes()} }

// interval is what a meter measured.
type interval struct {
	wall, cpu time.Duration
	allocMB   float64
}

func (m meter) stop() interval {
	return interval{
		wall:    time.Since(m.t0),
		cpu:     cpuTime() - m.cpu0,
		allocMB: float64(allocBytes()-m.alloc) / (1 << 20),
	}
}

// gcMeter measures the runtime's garbage-collector cost over an interval:
// stop-the-world pause time, and GC CPU time against the CPU time the
// process used.
type gcMeter struct {
	pauseNs            uint64
	gcCPU, total, idle float64
}

func readGC() gcMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := readMetrics("/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds")
	return gcMeter{pauseNs: ms.PauseTotalNs,
		gcCPU: s[0].Value.Float64(), total: s[1].Value.Float64(), idle: s[2].Value.Float64()}
}

// gcTotals accumulates gcMeter intervals.
type gcTotals struct {
	pauseMS      []float64 // per interval
	gcCPU, usedC float64
}

func (t *gcTotals) add(from, to gcMeter) {
	t.pauseMS = append(t.pauseMS, float64(to.pauseNs-from.pauseNs)/1e6)
	t.gcCPU += to.gcCPU - from.gcCPU
	t.usedC += (to.total - to.idle) - (from.total - from.idle)
}

// into stores gc.pause_ms (median per interval) and gc.cpu_frac.
func (t *gcTotals) into(m map[string]float64) {
	m["gc.pause_ms"] = median(t.pauseMS)
	m["gc.cpu_frac"] = ratio(t.gcCPU, t.usedC)
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; zero for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timedSetup runs setup at least minSetupReps times and for at least
// minSetupTime, and returns the last result with the median duration. Set-up
// takes milliseconds, so one sample would mostly measure the host's state.
func timedSetup[T any](setup func() (T, error)) (T, float64, error) {
	var v T
	var err error
	var secs []float64
	start := time.Now()
	for len(secs) < minSetupReps || time.Since(start) < minSetupTime {
		t0 := time.Now()
		v, err = setup()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return v, 0, fmt.Errorf("setup: %w", err)
		}
	}
	return v, median(secs), nil
}

const (
	minSetupReps = 5
	minSetupTime = 500 * time.Millisecond
)

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS: everything it mapped minus what it released, which is the process's
// resident set up to pages it mapped but never touched. The process-wide
// peak (getrusage) is the maximum over every op of a run, so one op whose
// collector ran late sets it; the peak per op, reduced to the median op,
// does not depend on that.
type memSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

// memSampleEvery is the sampling period: the heap grows by at most a few
// MB in it.
const memSampleEvery = 2 * time.Millisecond

func heldBytes() uint64 {
	s := readMetrics("/memory/classes/total:bytes", "/memory/classes/heap/released:bytes")
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

func startMemSampler() *memSampler {
	s := &memSampler{peak: heldBytes(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *memSampler) observe() {
	b := heldBytes()
	s.mu.Lock()
	if b > s.peak {
		s.peak = b
	}
	s.mu.Unlock()
}

// reset starts a new peak from the memory held now.
func (s *memSampler) reset() {
	s.mu.Lock()
	s.peak = 0
	s.mu.Unlock()
	s.observe()
}

// peakMB is the peak since the last reset.
func (s *memSampler) peakMB() float64 {
	s.observe()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20)
}

// close stops the sampler and waits for it to end.
func (s *memSampler) close() {
	close(s.stop)
	<-s.done
}

// opStats is one op of the untraced loop.
type opStats struct {
	interval
	quality
	// sc turns the op's times into reference-host times.
	sc scale
	// peakMB is the peak memory held during the op.
	peakMB float64
	// jobsMS is the latency of each of the op's completed jobs.
	jobsMS []float64
}

// quality sums the deterministic outcome of an op's routes.
type quality struct {
	routes          int
	routabilitySum  float64
	wirelength      float64
	vias, drc, hard int
}

func (q *quality) add(o outcome) {
	q.routes++
	q.routabilitySum += o.fp.Routability
	q.wirelength += o.wirelength
	q.vias += o.fp.Vias
	q.drc += o.fp.DRC
	q.hard += o.hard
}

// endToEnd reduces the ops of an untraced run to the end-to-end metrics:
// times and resources as the median op, route quality as the mean op (the
// serve stream varies it from op to op), job throughput over all ops and
// job latency percentiles over all jobs. With scaled set, the times are in
// reference-host units and setupS must be too; otherwise they are raw.
func endToEnd(ops []opStats, setupS float64, scaled bool) map[string]float64 {
	var wall, cpu, alloc, peak, rout, wl, vias, drc, hard, lat []float64
	var busy float64
	for _, op := range ops {
		sc := scale{1, 1}
		if scaled {
			sc = op.sc
		}
		w := op.wall.Seconds() * sc.wall
		wall = append(wall, w)
		cpu = append(cpu, op.cpu.Seconds()*sc.cpu)
		busy += w
		for _, l := range op.jobsMS {
			lat = append(lat, l*sc.wall)
		}
		alloc = append(alloc, op.allocMB)
		peak = append(peak, op.peakMB)
		rout = append(rout, ratio(op.routabilitySum, float64(op.routes)))
		wl = append(wl, op.wirelength)
		vias = append(vias, float64(op.vias))
		drc = append(drc, float64(op.drc))
		hard = append(hard, float64(op.hard))
	}
	return map[string]float64{
		"wall_s":        median(wall),
		"cpu_s":         median(cpu),
		"setup_s":       setupS,
		"alloc_mb":      median(alloc),
		"routability":   mean(rout),
		"wirelength_um": mean(wl),
		"vias":          mean(vias),
		"drc_findings":  mean(drc),
		"verify_hard":   mean(hard),
		"max_rss_mb":    median(peak),
		"jobs_per_s":    ratio(float64(len(lat)), busy),
		"job_p50_ms":    quantile(lat, 0.5),
		"job_p90_ms":    quantile(lat, 0.9),
	}
}

// span is one call the traced run timed from outside.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	// StartUS and EndUS are microseconds since the run started.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id. A nil log records nothing.
func (l *spanLog) begin(name string, op, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		StartUS: time.Since(l.t0).Microseconds()})
	return id
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndUS = time.Since(l.t0).Microseconds()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
