// Command perfbench is the repository's end-to-end benchmark. It routes the
// Table I dense cases through router.Route and drives the rdlserved HTTP API
// over an in-process serve.Engine, checks every output, and prints one JSON
// result line. Run it from the repository root:
//
//	bash perfbench/run.sh --workload dense5 --seed 0 --seconds 35 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it composes the pipeline from the stage packages' public entry
// points, records a span around each call in its own memory, reads the
// stages' sub-spans and counters through an obs.Collector, and reports the
// per-layer metrics. BENCHMARK.json lists every metric and why each
// workload was chosen.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"rdlroute/internal/pool"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seconds  float64
	trace    bool
	// seed draws the run's traffic: the order and re-submissions of the
	// serve-mixed rounds. The dense workloads have no traffic to draw.
	seed int64
	// inputSeed selects the problem instances: the via-lattice jitter seed
	// of the dense cases and the generator seed of the serve-mixed pool.
	// Zero reproduces the shipped routes. It is apart from seed because a
	// new via lattice changes the routes themselves (dense5 takes 2.6–8.0 s
	// over via seeds 0–5), which no run-to-run bound could absorb.
	inputSeed int64
	// spanDir receives the traced run's spans; empty skips writing them.
	spanDir string
}

// units names the unit of every metric the benchmark reports; BENCHMARK.json
// lists the same names, and the self-test holds the two in step.
var units = map[string]string{
	// End to end, measured with tracing off.
	"wall_s":        "s",
	"cpu_s":         "s",
	"setup_s":       "s",
	"routability":   "fraction",
	"wirelength_um": "um",
	"vias":          "count",
	"drc_findings":  "count",
	"verify_hard":   "count",
	"alloc_mb":      "MB",
	"max_rss_mb":    "MB",
	"jobs_per_s":    "1/s",
	"job_p50_ms":    "ms",
	"job_p90_ms":    "ms",

	// Per layer, from the traced run.
	"viaplan.ms":                   "ms",
	"viaplan.vias":                 "count",
	"rgraph.ms":                    "ms",
	"rgraph.alloc_mb":              "MB",
	"rgraph.links":                 "count",
	"global.ms":                    "ms",
	"global.order.ms":              "ms",
	"global.astar.ms":              "ms",
	"global.refine.ms":             "ms",
	"global.alloc_mb":              "MB",
	"global.cpu_s":                 "s",
	"global.expansions":            "count",
	"global.heap_pushes":           "count",
	"global.expansions_per_s":      "1/s",
	"global.ripups":                "count",
	"global.rounds":                "count",
	"global.spec.hit_ratio":        "fraction",
	"global.spec.wasted_ratio":     "fraction",
	"detail.ms":                    "ms",
	"detail.adjust.ms":             "ms",
	"detail.fit.ms":                "ms",
	"detail.rest.ms":               "ms",
	"detail.alloc_mb":              "MB",
	"detail.fit.failures":          "count",
	"detail.fit.tangents":          "count",
	"detail.reassign.vias_removed": "count",
	"drc.ms":                       "ms",
	"drc.scan.ms":                  "ms",
	"drc.spacing":                  "count",
	"drc.angle":                    "count",
	"drc.turn":                     "count",
	"verify.ms":                    "ms",
	"verify.via_wire":              "count",
	"gc.pause_ms":                  "ms",
	"gc.cpu_frac":                  "fraction",
	"serve.wait_p50_ms":            "ms",
	"serve.wait_p90_ms":            "ms",
	"serve.run_p50_ms":             "ms",
	"serve.run_p90_ms":             "ms",
	"serve.submit_ms":              "ms",
	"serve.hit_ratio":              "fraction",
	"serve.rejected":               "count",
	"serve.retained_jobs":          "count",
	"serve.heap_mb_per_job":        "MB",
	"trace.overhead_frac":          "fraction",
	"host.ref_ms":                  "ms",
}

// report is what one run measured: the checks' tallies and the metric
// values by name.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// raw holds untraced runs' times before scaling to the reference
	// host, for the comment lines.
	raw map[string]float64
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// measure runs the untraced loop and returns the end-to-end metrics.
	measure(ctx context.Context, cfg config) (*report, error)
	// trace runs the traced loop and returns the per-layer metrics.
	trace(ctx context.Context, cfg config, spans *spanLog) (*report, error)
}

// servePoolSize is the serve-mixed pool, so a round sends 32 jobs: enough
// that the engine's retained jobs show in max_rss_mb, few enough to keep a
// round's peak heap far below the host's memory.
const servePoolSize = 24

func newWorkload(name string) (workload, error) {
	switch name {
	case "dense5":
		return denseWorkload{cases: []string{"dense5"}}, nil
	case "dense-sweep":
		return denseWorkload{cases: []string{"dense1", "dense2", "dense3", "dense4"}}, nil
	case "serve-mixed":
		return serveWorkload{designs: servePoolSize}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want dense5, dense-sweep or serve-mixed)", name)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// raw is printed on comment lines only.
	raw map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one invocation and assembles its result.
func run(ctx context.Context, w workload, cfg config) (*result, error) {
	var rep *report
	var err error
	if cfg.trace {
		// The reference kernel's time before and after says how fast the
		// host ran; the per-layer times are raw.
		cal := newCalibrator()
		cal.batch()
		spans := newSpanLog()
		rep, err = w.trace(ctx, cfg, spans)
		if err == nil {
			cal.batch()
			rep.metrics["host.ref_ms"] = cal.refMS()
		}
		if err == nil && cfg.spanDir != "" {
			err = spans.write(filepath.Join(cfg.spanDir,
				fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
		}
	} else {
		rep, err = w.measure(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(rep.metrics)),
		raw:       rep.raw,
	}
	for name, v := range rep.metrics {
		unit, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("metric %q has no unit", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", name, v)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res, nil
}

func main() {
	cfg := config{spanDir: filepath.Join(".bench_build", "spans")}
	flag.StringVar(&cfg.workload, "workload", "", "workload: dense5, dense-sweep or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 0, "run seed: the order and re-submissions of the serve-mixed traffic")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Int64Var(&cfg.inputSeed, "input-seed", 0, "seed of the input designs: dense via lattice, serve-mixed pool (0 reproduces the shipped routes)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	w, err := newWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	env, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "input_seed": cfg.inputSeed,
		"trace": *trace, "seconds": cfg.seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "parallelism": pool.Default(0),
	})
	fmt.Printf("# env %s\n", env)

	res, err := run(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("# %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	names = names[:0]
	for name := range res.raw {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("# raw %-26s %14.6g\n", name, res.raw[name])
	}
	fmt.Printf("# error_rate %.6g (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
